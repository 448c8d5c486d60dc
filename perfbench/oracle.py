"""Independent exact reference computations for checking minplus outputs.

Nothing here imports minplus: every expected answer is derived by a
different route from the one the program takes, in plain Python
integers and Fractions, with None standing for ε.

* tropdet coefficients: one exhaustive dynamic program over partial
  assignments (column subsets), instead of an assignment solve per
  principal minor.
* trace-recursion coefficients: the scalar form
  c_k = min(t_k, min_{l<k} c_l + t_{k-l}) with t_k the least closed-walk
  weight of length k, instead of the matrix recursion.
* minimum cycle mean: min_k t_k / k, or the least average of an
  enumerated circuit list, instead of Karp's table.
* lower hull: monotone chain, instead of gift wrapping.
* circuits: iterative depth-first search with reachability pruning,
  instead of recursive blocking search.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Value = Fraction | None


def parse_token(token) -> Value:
    if isinstance(token, int):
        return Fraction(token)
    text = str(token).strip()
    if text.lower() in ("inf", "eps"):
        return None
    return Fraction(text)


def to_json(q: Value):
    """The program's JSON form of a value: int, "p/q" string, or "inf"."""
    if q is None:
        return "inf"
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


def _scaled(rows: list[list[Value]]) -> tuple[list[list[int | None]], int]:
    """Rows as integers after multiplying by the LCM of all denominators."""
    scale = 1
    for row in rows:
        for x in row:
            if x is not None:
                scale = lcm(scale, x.denominator)
    ints = [[None if x is None else int(x * scale) for x in row] for row in rows]
    return ints, scale


def tropdet_coeffs(rows: list[list[Value]]) -> list[Value]:
    """c_0..c_n of tropdet(A ⊕ x⊗I): c_j is the least weight of a permutation
    of some j-subset (a cycle cover of j vertices).

    Rows are assigned in order; the state is the set of used columns and
    how many rows took the diagonal x instead of an entry. Row i may take x
    only at column i, so the x rows are fixed points and the rest permute
    their own index set, exactly as a principal minor.
    """
    n = len(rows)
    ints, scale = _scaled(rows)
    # layer[mask] = list indexed by x-count of the least entry sum
    layer: dict[int, list[int | None]] = {0: [0]}
    for i in range(n):
        nxt: dict[int, list[int | None]] = {}
        row = ints[i]
        for mask, costs in layer.items():
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                target = nxt.get(mask | bit)
                if target is None:
                    target = nxt[mask | bit] = [None] * (i + 2)
                w = row[j]
                for k, cost in enumerate(costs):
                    if cost is None:
                        continue
                    if w is not None:
                        cand = cost + w
                        if target[k] is None or cand < target[k]:
                            target[k] = cand
                    if j == i and (target[k + 1] is None or cost < target[k + 1]):
                        target[k + 1] = cost
        layer = nxt
    by_xcount = layer[(1 << n) - 1]
    return [None if c is None else Fraction(c, scale) for c in reversed(by_xcount)]


def closed_walk_minima(rows: list[list[Value]], kmax: int) -> list[Value]:
    """t_0..t_kmax: t_k is the least weight of a closed walk with k edges."""
    n = len(rows)
    ints, scale = _scaled(rows)
    out_edges = [[(j, w) for j, w in enumerate(row) if w is not None] for row in ints]
    best: list[int | None] = [0] + [None] * kmax
    for s in range(n):
        dist: list[int | None] = [None] * n
        dist[s] = 0
        for k in range(1, kmax + 1):
            nxt: list[int | None] = [None] * n
            for v, dv in enumerate(dist):
                if dv is None:
                    continue
                for h, w in out_edges[v]:
                    cand = dv + w
                    if nxt[h] is None or cand < nxt[h]:
                        nxt[h] = cand
            dist = nxt
            if dist[s] is not None and (best[k] is None or dist[s] < best[k]):
                best[k] = dist[s]
    return [None if t is None else Fraction(t, scale) for t in best]


def flv_coeffs(rows: list[list[Value]]) -> list[Value]:
    """Trace-recursion coefficients by the scalar recursion over t_k.

    Tr(X ⊕ Y) = min(Tr X, Tr Y) and Tr(c⊗M) = c + Tr M, so
    c_k = Tr(A^k ⊕ c_1⊗A^{k-1} ⊕ ... ⊕ c_{k-1}⊗A) = min(t_k, c_l + t_{k-l}).
    """
    n = len(rows)
    t = closed_walk_minima(rows, n)
    c: list[Value] = [Fraction(0)]
    for k in range(1, n + 1):
        best = t[k]
        for l in range(1, k):
            if c[l] is not None and t[k - l] is not None:
                cand = c[l] + t[k - l]
                if best is None or cand < best:
                    best = cand
        c.append(best)
    return c


def min_cycle_mean_from_walks(rows: list[list[Value]]) -> Value:
    """The least circuit average: min over k <= n of t_k / k."""
    t = closed_walk_minima(rows, len(rows))
    means = [tk / k for k, tk in enumerate(t) if k and tk is not None]
    return min(means) if means else None


def min_root(coeffs: list[Value]) -> Value:
    """Least root of a monic polynomial: min over finite c_j (j >= 1) of c_j / j."""
    roots = [c / j for j, c in enumerate(coeffs) if j and c is not None]
    return min(roots) if roots else None


def lower_hull(coeffs: list[Value]) -> list[tuple[int, Fraction]]:
    """Corners of the lower convex hull of the finite points (j, c_j)."""
    hull: list[tuple[int, Fraction]] = []
    for j, c in enumerate(coeffs):
        if c is None:
            continue
        while len(hull) >= 2:
            (i0, c0), (i1, c1) = hull[-2], hull[-1]
            # drop the middle point unless the slope strictly increases there
            if (c1 - c0) * (j - i1) >= (c - c1) * (i1 - i0):
                hull.pop()
            else:
                break
        hull.append((j, c))
    return hull


def canonical(coeffs: list[Value]) -> list[Value]:
    """The hull coefficients: same function, factorable form."""
    corners = lower_hull(coeffs)
    out: list[Value] = [None] * len(coeffs)
    out[corners[0][0]] = corners[0][1]
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        slope = (ck - ci) / (k - i)
        for ell in range(i + 1, k + 1):
            out[ell] = ci + (ell - i) * slope
    return out


def factorization(coeffs: list[Value]) -> dict:
    """The factorization JSON the program prints for these coefficients."""
    corners = lower_hull(coeffs)
    factors = [
        {"root": to_json((ck - ci) / (k - i)), "multiplicity": k - i}
        for (i, ci), (k, ck) in zip(corners, corners[1:])
    ]
    return {"factors": factors, "xpower": len(coeffs) - 1 - corners[-1][0]}


def expand(factorization_json: dict) -> list[Value]:
    """Coefficients of a printed factorization: c_j is the sum of the j
    smallest roots; the x^r factor adds trailing ε."""
    coeffs: list[Value] = [Fraction(0)]
    total = Fraction(0)
    for factor in factorization_json["factors"]:
        root = parse_token(factor["root"])
        for _ in range(factor["multiplicity"]):
            total += root
            coeffs.append(total)
    coeffs.extend([None] * factorization_json["xpower"])
    return coeffs


def evaluate(coeffs: list[Value], x: Fraction) -> Value:
    n = len(coeffs) - 1
    terms = [c + (n - j) * x for j, c in enumerate(coeffs) if c is not None]
    return min(terms) if terms else None


def plot_rows(coeffs: list[Value]) -> list[dict]:
    """The plot-data JSON rows: breakpoints flanked by one anchor each side."""
    n = len(coeffs) - 1
    corners = lower_hull(coeffs)
    points = []
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        x = (ck - ci) / (k - i)
        points.append((x, ci + (n - i) * x, n - i, n - k))

    def row(kind, x, y, left, right):
        return {"kind": kind, "x": to_json(x), "y": to_json(y),
                "slope_left": left, "slope_right": right}

    if not points:
        slope = n - corners[0][0]
        return [row("anchor", Fraction(x), evaluate(coeffs, Fraction(x)), slope, slope) for x in (0, 1)]
    first, last = points[0], points[-1]
    left_x, right_x = first[0] - 1, last[0] + 1
    return (
        [row("anchor", left_x, evaluate(coeffs, left_x), first[2], first[2])]
        + [row("breakpoint", *p) for p in points]
        + [row("anchor", right_x, evaluate(coeffs, right_x), last[3], last[3])]
    )


def elementary_cycles(succ: list[list[int]]):
    """Yield every elementary circuit of a digraph (0-based successor lists)
    once, as a vertex tuple starting at its smallest vertex.

    For each start s, a depth-first search over vertices > s that only
    enters vertices from which s is reachable inside that subgraph.
    """
    n = len(succ)
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, heads in enumerate(succ):
        for j in heads:
            pred[j].append(i)
    for s in range(n):
        reach = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for u in pred[v]:
                if u > s and u not in reach:
                    reach.add(u)
                    frontier.append(u)
        path = [s]
        on_path = {s}
        stack = [iter(succ[s])]
        while stack:
            for h in stack[-1]:
                if h == s:
                    yield tuple(path)
                elif h in reach and h not in on_path:
                    path.append(h)
                    on_path.add(h)
                    stack.append(iter(succ[h]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())


def circuits(rows: list[list[Value]]) -> list[tuple[tuple[int, ...], Fraction]]:
    """Every elementary circuit as (1-based vertices from the smallest, weight)."""
    succ = [[j for j, w in enumerate(row) if w is not None] for row in rows]
    out = []
    for cycle in elementary_cycles(succ):
        weight = sum(
            (rows[cycle[i]][cycle[(i + 1) % len(cycle)]] for i in range(len(cycle))),
            Fraction(0),
        )
        out.append((tuple(v + 1 for v in cycle), weight))
    return out


def is_separated(circuit_list) -> bool:
    """Whether no vertex lies on two circuits."""
    seen: set[int] = set()
    for vertices, _ in circuit_list:
        if seen.intersection(vertices):
            return False
        seen.update(vertices)
    return True
