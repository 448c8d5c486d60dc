"""Characteristic polynomials of min-plus matrices.

Two distinct constructions are provided:

* ``charpoly_tropdet`` expands tropdet(A ⊕ x⊗I): the coefficient of
  x^{n-j} is the minimum tropical determinant over all j-by-j principal
  submatrices (choosing x at the other n-j diagonal positions forces a
  permutation on the complementary index set).
* ``charpoly_flv`` is defined by the trace recursion
  c_k = Tr(A^k ⊕ c_1⊗A^{k-1} ⊕ ... ⊕ c_{k-1}⊗A),
  the min-plus counterpart of the classical trace-based coefficient
  recursion for characteristic polynomials. It is computed as the
  equivalent scalar recursion over the closed-walk minima Tr(A^k).

Every root of the first polynomial is fixed by the lower hull of the
points (j, c_j) alone, that is by the function f(x) = tropdet(A ⊕ x⊗I) =
min_j c_j + (n-j)·x. ``canonical_charpoly_tropdet`` finds that hull by
parametric assignment (Eisner–Severance probing; Burkard & Butkovič,
DAM 130, 2003; Gassner & Klinz, Networks 55, 2010), each probe one
assignment solve on A ⊕ X⊗I, so it has no size cap; ``factor``,
``roots``, ``plot-data`` and ``eigenvalue`` use it. The coefficients
off the hull (the best principal submatrix problem, of open complexity)
need the subset scan of ``charpoly_tropdet``, which ``charpoly`` and
``verify`` keep, under their cap.

Any optimal matching at X is a supporting line of the hull. Let k of
its matched diagonal cells take X, let S be the other n-k indices and
j = n-k. The rest of the matching is a permutation of S on entries of
A, of cost c >= c_j. So f(X) = c + k·X >= c_j + (n-j)·X >= f(X), both
are equalities, c = c_j, and the line c_j + (n-j)·x touches f at X: the
point (j, c_j) lies on the hull, whichever optimal matching the solver
returns.

The tropical determinant itself comes in two independent implementations,
a permutation brute force and a minimum-cost assignment solver, so each
can serve as the other's oracle.

All inner loops run on Python ints, with None for ε: they read the
matrix's own scaled int form (its entries times the least common multiple
D of their denominators, built once when the matrix is), and each result
is divided back exactly by D. Every step is a sum, a difference or a
minimum, so scaling by D > 0 commutes with it and the results are the same
exact rationals as a computation on Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from .errors import CapExceeded
from .matrix import MinPlusMatrix, _int_product
from .polynomial import MinPlusPolynomial, canonicalize
from .semiring import EPSILON, MinPlusValue, _unscaled

__all__ = [
    "BRUTE_FORCE_CAP",
    "SUBSET_CAP",
    "tropdet_bruteforce",
    "tropdet_assignment",
    "charpoly_tropdet",
    "canonical_charpoly_tropdet",
    "charpoly_flv",
    "eigenvalue_from_charpoly",
]

BRUTE_FORCE_CAP = 9
SUBSET_CAP = 16


def tropdet_bruteforce(a: MinPlusMatrix, cap: int = BRUTE_FORCE_CAP) -> MinPlusValue:
    """Minimum over all n! permutations of the selected entry sum."""
    n = a.n
    if n > cap:
        raise CapExceeded(
            f"brute-force tropical determinant is capped at order {cap} "
            f"(got {n}); use tropdet_assignment instead"
        )
    rows = a._ints
    best: int | None = None
    for sigma in permutations(range(n)):
        total = 0
        for i, j in enumerate(sigma):
            cell = rows[i][j]
            if cell is None:
                break
            total += cell
        else:
            if best is None or total < best:
                best = total
    return _unscaled(best, a._d)


def _assignment(rows) -> tuple[int, list[int]] | None:
    """Minimum-cost perfect assignment with None as a forbidden cell.

    Shortest-augmenting-path method with dual potentials (the Hungarian
    method in its O(n^3) form), run in exact integer arithmetic. Returns
    (cost, match) with match[j] the row matched to column j, both counted
    from 1 (match[0] is unused), or None when the finite cells admit no
    perfect matching (the tropical determinant is then ε).
    """
    n = len(rows)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j, 1-based, 0 = free
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv: list[int | None] = [None] * (n + 1)
        way = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta: int | None = None
            j1 = 0
            base = u[i0]
            row = rows[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cell = row[j - 1]
                if cell is not None:
                    cur = cell - base - v[j]
                    if minv[j] is None or cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] is not None and (delta is None or minv[j] < delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                return None  # Hall violation: no perfect matching on finite cells
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return sum(rows[match[j] - 1][j - 1] for j in range(1, n + 1)), match


def tropdet_assignment(a: MinPlusMatrix) -> MinPlusValue:
    """Tropical determinant via minimum-cost assignment; no size cap."""
    solved = _assignment(a._ints)
    return _unscaled(None if solved is None else solved[0], a._d)


def _check_subset_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"principal-minor enumeration is capped at order {cap} (got {n})")


def charpoly_tropdet(a: MinPlusMatrix, cap: int = SUBSET_CAP) -> MinPlusPolynomial:
    """The characteristic polynomial tropdet(A ⊕ x⊗I), as coefficients.

    c_0 = 0 and c_j = min over size-j index subsets S of the tropical
    determinant of A restricted to S, computed with the assignment solver
    on the scaled int entries.
    """
    n = a.n
    _check_subset_cap(n, cap)
    rows = a._ints
    coeffs: list[int | None] = [0]
    for j in range(1, n + 1):
        best: int | None = None
        for subset in combinations(range(n), j):
            minor = [[rows[r][c] for c in subset] for r in subset]
            solved = _assignment(minor)
            if solved is not None and (best is None or solved[0] < best):
                best = solved[0]
        coeffs.append(best)
    return MinPlusPolynomial._from_scaled(tuple(coeffs), a._d)


def canonical_charpoly_tropdet(a: MinPlusMatrix) -> MinPlusPolynomial:
    """canonicalize(charpoly_tropdet(a)), from at most 2n+1 assignment solves.

    Eisner–Severance probing of f(x) = tropdet(A ⊕ x⊗I) (see the module
    docstring): each probe at X = p/q, in D-scaled units, solves the
    assignment problem on q·A with min(q·a_ii, p) on the diagonal. If k
    matched diagonal cells took x, the optimal matching is the supporting
    line c_j + (n-j)·x with j = n-k and c_j = (cost - k·p)/q. The first
    probe, beyond every breakpoint, finds the largest coverable j; then
    each probe at the meeting point of two hull lines either finds a point
    strictly below both (a new corner: search both sides) or confirms the
    meeting point as a breakpoint. No size cap applies.
    """
    n = a.n
    rows = a._ints

    def probe(p: int, q: int) -> tuple[int, int, int]:
        """(q·f(p/q), j, c_j) for a supporting line of f at p/q."""
        scaled = [[None if w is None else q * w for w in row] for row in rows]
        took_x = []
        for i, row in enumerate(scaled):
            if row[i] is None or row[i] > p:
                row[i] = p
                took_x.append(i)
        cost, match = _assignment(scaled)  # the x diagonal always admits a matching
        k = sum(match[i + 1] == i + 1 for i in took_x)
        return cost, n - k, (cost - k * p) // q

    # past X the lines' x-terms outweigh any coefficient gap, |c_j - c_i| <= 2n·max|a|
    reach = 2 * n * max((abs(w) for row in rows for w in row if w is not None), default=0) + 1
    _, r, c_r = probe(reach, 1)
    points = {0: 0, r: c_r}
    pending = [(0, r)] if r else []
    while pending:
        i, k = pending.pop()
        p, q = points[k] - points[i], k - i  # the lines of i and k meet at p/q
        cost, j, c_j = probe(p, q)
        if cost < q * points[i] + (n - i) * p:
            points[j] = c_j
            pending += [(i, j), (j, k)]
    coeffs = tuple(points.get(j) for j in range(n + 1))
    return canonicalize(MinPlusPolynomial._from_scaled(coeffs, a._d))


def _closed_walk_minima(rows) -> list[int | None]:
    """t_k = Tr(A^k) for k = 1..n: the least weight of a closed k-walk.

    Index 0 holds None (unused). Each power is one min-plus product
    P ⊗ A on plain lists, relaxing only the finite entries of A.
    """
    n = len(rows)
    succ = [[(j, w) for j, w in enumerate(row) if w is not None] for row in rows]
    traces: list[int | None] = [None]
    power = rows
    for k in range(1, n + 1):
        if k > 1:
            power = _int_product(power, succ)
        diagonal = [power[i][i] for i in range(n) if power[i][i] is not None]
        traces.append(min(diagonal) if diagonal else None)
    return traces


def charpoly_flv(a: MinPlusMatrix) -> MinPlusPolynomial:
    """The trace-recursion characteristic polynomial.

    By definition c_1 = Tr(A) and c_k = Tr(A^k ⊕ c_1⊗A^{k-1} ⊕ ... ⊕
    c_{k-1}⊗A). Trace distributes over ⊕ and Tr(c⊗M) = c ⊗ Tr(M), so with
    t_k = Tr(A^k) this is the scalar recursion
    c_k = t_k ⊕ c_1⊗t_{k-1} ⊕ ... ⊕ c_{k-1}⊗t_1, i.e.
    c_k = min(t_k, min_{0<l<k} c_l + t_{k-l}), computed here on ints.
    """
    t = _closed_walk_minima(a._ints)
    c: list[int | None] = [0]
    for k in range(1, a.n + 1):
        best = t[k]
        for l in range(1, k):
            if c[l] is not None and t[k - l] is not None:
                s = c[l] + t[k - l]
                if best is None or s < best:
                    best = s
        c.append(best)
    return MinPlusPolynomial._from_scaled(tuple(c), a._d)


def eigenvalue_from_charpoly(p: MinPlusPolynomial) -> MinPlusValue:
    """Minimum root of a monic polynomial: min over finite c_j of c_j / j.

    The leading line n*x is the strict minimum for very negative x, so the
    first breakpoint sits where some line c_j + (n-j)*x first catches it,
    at x = c_j / j. Returns ε when c_1..c_n are all ε (no breakpoints).
    """
    if not p.is_monic:
        raise ValueError("polynomial must be monic (leading coefficient 0)")
    best: tuple[int, int] | None = None  # (c_j·D, j): the ratio c_j·D / j, compared cross-multiplied
    for j, c in enumerate(p._ints):
        if j == 0 or c is None:
            continue
        if best is None or c * best[1] < best[0] * j:
            best = (c, j)
    return EPSILON if best is None else MinPlusValue(Fraction(best[0], best[1] * p._d))
