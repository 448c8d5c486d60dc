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

Every circuit lies inside one strongly connected class of the matrix's
graph, and a principal minor is finite only through a family of disjoint
circuits that covers its indices, so tropdet(A ⊕ x⊗I) is the ⊗-product of
the classes' own polynomials, times x for each vertex on no circuit
(Frobenius normal form: Butkovič, Max-linear Systems, 2010; Akian, Bapat &
Gaubert, Handbook of Linear Algebra, ch. 25, 2006). Each kernel here runs
per class (``MinPlusMatrix._classes``) and merges the results: a class that
is one circuit of length l and weight W contributes x^l ⊕ W in closed form,
and any other class is scanned or probed on its own rows.

Every root of the first polynomial is fixed by the lower hull of the
points (j, c_j) alone, that is by the function f(x) = tropdet(A ⊕ x⊗I) =
min_j c_j + (n-j)·x. ``canonical_charpoly_tropdet`` finds that hull by
parametric assignment on each class's C ⊕ X⊗I (Eisner–Severance probing;
Burkard & Butkovič, DAM 130, 2003; Gassner & Klinz, Networks 55, 2010), in
at most k probes for a class of order k, and merges the classes' convex
sequences, so it has no size cap; ``factor``, ``roots``, ``plot-data`` and
``eigenvalue`` use it. A class of order k is probed in units of L·D with
L = lcm(1..k), in which every probe point is an integer and a probe moves
only the diagonal, and it keeps one optimal assignment and its duals
across the probes: each probe re-augments only the rows whose diagonal
change broke their dual constraint or their matched cell's tightness. The
coefficients off the hull (the best principal submatrix problem, of open
complexity) need the subset scan of ``charpoly_tropdet``, which
``charpoly`` and ``verify`` keep, under their cap on the order of each
class scanned. The scan costs one shortest augmenting path per subset of
a class, O(Σ 2^k·k^2) over the classes of order k that are not single
circuits: each minor's optimal assignment extends that of its parent, one
row and one column smaller.

Any optimal matching at X is a supporting line of the hull. Let k of
its matched diagonal cells take X, let S be the other n-k indices and
j = n-k. The rest of the matching is a permutation of S on entries of
A, of cost c >= c_j. So f(X) = c + k·X >= c_j + (n-j)·X >= f(X), both
are equalities, c = c_j, and the line c_j + (n-j)·x touches f at X: the
point (j, c_j) lies on the hull, whichever optimal matching the solver
returns.

The tropical determinant itself comes in two independent implementations,
a permutation brute force and a minimum-cost assignment solver, so each
can serve as the other's oracle. The brute force walks only finite cells,
so its work grows with the partial permutations through them (n! only on
dense input). The solver, the subset scan and the hull's probes share one
augmentation step, ``_augment``.

All inner loops run on Python ints, with None for ε: they read the
matrix's finite cells (its entries times the least common multiple D of
their denominators), or dense rows that a kernel builds from them for its
own use (``matrix._dense``), and each result is divided back exactly by
D. Every step is a sum, a difference or a minimum, so scaling by D > 0
commutes with it and the results are the same exact rationals as a
computation on Fractions.
"""

from __future__ import annotations

from math import lcm

from .errors import CapExceeded
from .matrix import MinPlusMatrix, _Component, _dense, _int_product, _single_circuit
from .polynomial import MinPlusPolynomial, canonicalize, factorize
from .semiring import EPSILON, MinPlusValue, _check_int, _unscaled

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
    """Minimum over all permutations of the selected entry sum.

    A depth-first walk on an explicit stack: depth i tries only row i's
    finite cells in the columns not yet taken, and keeps the running sum
    of the cells above it; the last row takes the one column left, read
    off the sum of the columns not taken. A permutation is cut at its
    first ε cell and every prefix sum is shared, so the work grows with
    the partial permutations through finite cells (n! only on dense
    input), while every finite permutation is still enumerated.
    """
    _check_int(cap, "cap")
    n = a.n
    if n > cap:
        raise CapExceeded(
            f"brute-force tropical determinant is capped at order {cap} "
            f"(got {n}); use tropdet_assignment instead"
        )
    if n == 1:
        return a[0, 0]
    cells = a._cells
    last = dict(cells[-1])  # row n-1's finite cells by column
    taken = [False] * n
    left = n * (n - 1) // 2  # the sum of the columns not taken
    sums = [0]  # sums[i]: the sum of the cells taken in rows 0..i-1
    chosen: list[int] = []  # chosen[i]: the column taken in row i
    stack = [iter(cells[0])]  # stack[i]: the cells of row i still to try
    best: int | None = None
    while stack:
        for j, w in stack[-1]:
            if not taken[j]:
                break
        else:
            stack.pop()
            sums.pop()
            if chosen:
                j = chosen.pop()
                taken[j] = False
                left += j
            continue
        total = sums[-1] + w
        if len(stack) == n - 1:  # row n-1 takes the one column left
            cell = last.get(left - j)
            if cell is not None and (best is None or total + cell < best):
                best = total + cell
        else:
            taken[j] = True
            chosen.append(j)
            left -= j
            sums.append(total)
            stack.append(iter(cells[len(stack)]))
    return _unscaled(best, a._d)


def _augment(rows, cols, u, v, match, i: int) -> bool:
    """One shortest augmenting path from the free row i.

    The step of the Hungarian method in its O(n^3) form, in exact integer
    arithmetic, with None as a forbidden cell. Rows, columns and the
    arrays u, v (the duals) and match (match[j] the row matched to column
    j, 0 = free) count from 1; index 0 is the path's virtual start column.
    Row i may enter with any u_i: the first round raises it to
    min_j a_ij - v_j. The matched rows must be dual feasible on every
    column of cols (u_r + v_j <= a_rj) and tight on their matched cells;
    that holds again for i as well on return. Returns False, with the
    arrays spoilt, when the finite cells give row i no augmenting path.
    """
    size = len(match)
    minv: list[int | None] = [None] * size
    way = [0] * size
    used = [False] * size
    match[0] = i
    j0 = 0
    while True:
        used[j0] = True
        i0 = match[j0]
        delta: int | None = None
        j1 = 0
        base = u[i0]
        row = rows[i0 - 1]
        for j in cols:
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
            return False  # Hall violation: no perfect matching on finite cells
        u[i] += delta  # row i sits on the virtual column 0, always in the tree
        for j in cols:
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
    return True


def _assignment(rows) -> tuple[int, list[int]] | None:
    """Minimum-cost perfect assignment with None as a forbidden cell.

    Rows 1..n each take one shortest augmenting path (``_augment``) over
    all columns, starting from zero duals. Returns (cost, match) with
    match[j] the row matched to column j, both counted from 1 (match[0]
    is unused), or None when the finite cells admit no perfect matching
    (the tropical determinant is then ε).
    """
    n = len(rows)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)
    cols = range(1, n + 1)
    for i in cols:
        if not _augment(rows, cols, u, v, match, i):
            return None
    return sum(rows[match[j] - 1][j - 1] for j in cols), match


def tropdet_assignment(a: MinPlusMatrix) -> MinPlusValue:
    """Tropical determinant via minimum-cost assignment; no size cap."""
    solved = _assignment(_dense(a._cells))
    return _unscaled(None if solved is None else solved[0], a._d)


def _check_subset_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"principal-minor enumeration is capped at order {cap} (got {n})")


def _class_rows(succ: _Component, scale: int = 1) -> list[list[int | None]]:
    """A class's own rows, dense, its vertices renumbered 0..k-1 in any
    order (a principal minor's determinant does not depend on it): each
    internal weight times scale, None for ε."""
    pos = {v: i for i, v in enumerate(succ)}
    return _dense([[(pos[head], scale * w) for head, w in pairs] for pairs in succ.values()])


def _class_product(classes: list[_Component], kernel) -> dict[int, int]:
    """The min-plus product over the classes of their own sequences, each
    held as {j: c_j} over its finite entries: {0: 0, l: W} for a class
    that is one circuit of length l and weight W, kernel(class) for any
    other. ε is skipped: r_j = min over i + l = j of p_i + q_l."""
    product = {0: 0}
    for succ in classes:
        circuit = _single_circuit(succ)
        factor = {0: 0, circuit[0]: circuit[1]} if circuit is not None else kernel(succ)
        r: dict[int, int] = {}
        for i, x in product.items():
            for l, y in factor.items():
                if i + l not in r or x + y < r[i + l]:
                    r[i + l] = x + y
        product = r
    return product


def charpoly_tropdet(a: MinPlusMatrix, cap: int = SUBSET_CAP) -> MinPlusPolynomial:
    """The characteristic polynomial tropdet(A ⊕ x⊗I), as coefficients.

    c_0 = 0 and c_j = min over size-j index subsets S of the tropical
    determinant of A restricted to S. It is the ⊗-product of the classes'
    polynomials (see the module docstring): a class that is one circuit
    gives x^l ⊕ W, any other class the subset scan of its own rows
    (``_subset_scan`` on ``_class_rows``). The cap bounds the order of the
    largest class scanned, and is checked before any scan starts.
    """
    _check_int(cap, "cap")
    scanned = [len(succ) for succ in a._classes if _single_circuit(succ) is None]
    if scanned and max(scanned) > cap:
        raise CapExceeded(
            f"principal-minor enumeration is capped at order {cap} "
            f"(got a strongly connected class of order {max(scanned)})"
        )
    coeffs = _class_product(a._classes, lambda succ: _subset_scan(_class_rows(succ)))
    return MinPlusPolynomial._from_scaled(tuple(coeffs.get(j) for j in range(a.n + 1)), a._d)


def _subset_scan(ints) -> dict[int, int]:
    """{j: c_j} over the finite c_j (c_0 = 0 among them) of the principal
    minors of dense int rows, None for ε.

    The subsets are visited depth-first in inclusion order, a child being
    S ∪ {k} with k > max S, and each child's optimal assignment extends its
    parent's by one shortest augmenting path (``_augment``, the step of
    ``_assignment``): the child copies the parent's matching and duals,
    takes v_k = min_{i∈S} a_ik - u_i so that column k is dual feasible, and
    augments from row k, whose first round sets u_k = min_j a_kj - v_j.
    That is one O(j^2) augmentation per subset, O(2^n·n^2) in all.

    So that every parent has a perfect matching to extend, ε costs
    2B+1 here, with B = Σ_i max_j |a_ij| over the finite cells (an all-ε
    row adds 0): a permutation through finite cells costs at most B, and
    one through an ε cell at least B+1, so a minor is finite iff its
    optimal cost is at most B.
    """
    n = len(ints)
    bound = sum(max((abs(w) for w in row if w is not None), default=0) for row in ints)
    rows = [[2 * bound + 1 if w is None else w for w in row] for row in ints]
    coeffs = {0: 0}
    zeros = [0] * (n + 1)
    # (the subset S as 1-based columns in increasing order, its cost, u, v, match)
    stack = [((), 0, zeros, zeros, zeros)]
    while stack:
        subset, cost, u, v, match = stack.pop()
        j = len(subset)
        if j and cost <= bound and (j not in coeffs or cost < coeffs[j]):
            coeffs[j] = cost
        for k in range(subset[-1] + 1 if subset else 1, n + 1):
            child = subset + (k,)
            cu, cv, cm = u[:], v[:], match[:]
            cv[k] = min((rows[i - 1][k - 1] - cu[i] for i in subset), default=0)
            _augment(rows, child, cu, cv, cm, k)  # ε is finite here, so it always augments
            stack.append((child, sum(rows[cm[c] - 1][c - 1] for c in child), cu, cv, cm))
    return coeffs


def _reprobe(rows, diagonal, u, v, match, p: int) -> tuple[int, int]:
    """Move a kept optimal assignment to the diagonal min(a_ii, p).

    rows holds the cells, with the diagonal as the last probe left it;
    diagonal holds the cells a_ii (None for ε); u, v and match are the
    duals and matching of ``_augment``, optimal for rows (all zero before
    the first probe). A diagonal cell that is ε or above p takes x and costs p. Only
    the diagonal moves, so only a row whose diagonal cell changed can lose
    dual feasibility or tightness: its u_i drops to cell - v_i if the cell
    fell below u_i + v_i, which keeps the rest of the row feasible, and the
    row is freed if its matched cell is then not tight. Every free row is
    re-augmented, in row order. Returns (cost, k): the optimal cost, and
    how many matched diagonal cells took x.
    """
    n = len(rows)
    cols = range(1, n + 1)
    col = [0] * (n + 1)  # col[i]: the column matched to row i, 0 = free
    for j in cols:
        col[match[j]] = j
    took_x = []
    for i in cols:
        row, cell = rows[i - 1], diagonal[i - 1]
        if cell is None or cell > p:
            cell = p
            took_x.append(i)
        if row[i - 1] == cell:
            continue
        row[i - 1] = cell
        if u[i] + v[i] > cell:
            u[i] = cell - v[i]
        j = col[i]
        if j and u[i] + v[j] != row[j - 1]:
            match[j] = col[i] = 0
    for i in cols:
        if not col[i]:
            _augment(rows, cols, u, v, match, i)  # the finite diagonal always admits a matching
    return sum(rows[match[j] - 1][j - 1] for j in cols), sum(match[i] == i for i in took_x)


def canonical_charpoly_tropdet(a: MinPlusMatrix) -> MinPlusPolynomial:
    """canonicalize(charpoly_tropdet(a)), from the classes' lower hulls.

    The polynomial is the ⊗-product of the classes' polynomials (see the
    module docstring), so its lower hull is the Minkowski sum of theirs:
    the lower hull of the min-plus product of the classes' hull points
    (``_class_product``). A class that is one circuit of length l and
    weight W has the two points (0, 0) and (l, W); any other class's hull
    is probed (``_class_hull``). No size cap applies.
    """
    points = _class_product(a._classes, _class_hull)
    coeffs = tuple(points.get(j) for j in range(a.n + 1))
    return canonicalize(MinPlusPolynomial._from_scaled(coeffs, a._d))


def _class_hull(succ: _Component) -> dict[int, int]:
    """{j: c_j} at points on the lower hull of one class's polynomial, its
    corners among them, from at most k probes of one assignment on the
    class's k-by-k rows.

    Eisner–Severance probing of f(x) = tropdet(C ⊕ x⊗I) (see the module
    docstring), in units of L·D with L = lcm(1..k): every probe point
    X = p/q has q <= k, so it is the integer P = p·L/q, and the probe
    solves the assignment problem on L·C with min(L·c_ii, P) on the
    diagonal. If m matched diagonal cells took x, the optimal matching is
    the supporting line c_j + (k-j)·x with j = k-m and c_j = (cost - m·P)/L.
    One matching and its duals are kept from probe to probe, and a probe
    re-augments only the rows its diagonal change unsettles (``_reprobe``).

    The first probe, beyond every breakpoint, finds the largest coverable
    j; then each probe at the meeting point of the lines of two hull points
    i < l either finds a point strictly below both (a new corner: search
    both sides) or confirms the meeting point as a breakpoint. A probe with
    l = i+1 can only confirm, and is skipped: a point strictly below both
    lines at their meeting point lies strictly below the chord from i to l,
    and every point outside [i, l] lies on or above that chord, because i
    and l are on the lower hull.
    """
    k = len(succ)
    unit = lcm(*range(1, k + 1))
    rows = _class_rows(succ, unit)
    diagonal = [row[i] for i, row in enumerate(rows)]
    u, v, match = [0] * (k + 1), [0] * (k + 1), [0] * (k + 1)

    def probe(p: int) -> tuple[int, int, int]:
        """(L·f(p/L), j, c_j) for a supporting line of f at p/L."""
        cost, m = _reprobe(rows, diagonal, u, v, match, p)
        return cost, k - m, (cost - m * p) // unit

    # past X the lines' x-terms outweigh any coefficient gap, |c_j - c_i| <= 2k·max|c|
    reach = 2 * k * max(abs(w) for pairs in succ.values() for _, w in pairs) + 1
    _, r, c_r = probe(reach * unit)
    points = {0: 0, r: c_r}
    pending = [(0, r)] if r > 1 else []
    while pending:
        i, l = pending.pop()
        p = (points[l] - points[i]) * unit // (l - i)  # the lines of i and l meet at p/L
        cost, j, c_j = probe(p)
        if cost < unit * points[i] + (k - i) * p:
            points[j] = c_j
            pending += [(s, t) for s, t in ((i, j), (j, l)) if t - s > 1]
    return points


def _closed_walk_minima(a: MinPlusMatrix) -> list[int | None]:
    """t_k = Tr(A^k) for k = 1..n, times D: the least weight of a closed k-walk.

    Index 0 holds None (unused). Each power is one min-plus product
    P ⊗ A on plain lists, relaxing only the finite cells of A.
    """
    n = a.n
    traces: list[int | None] = [None]
    power = _dense(a._cells)
    for k in range(1, n + 1):
        if k > 1:
            power = _int_product(power, a._cells)
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
    t = _closed_walk_minima(a)
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
    at x = c_j / j: the least root of ``factorize(p)``, the slope of the
    lower hull's first segment, from (0, 0). Returns ε when c_1..c_n are
    all ε (no breakpoints).
    """
    factors = factorize(p).factors
    return factors[0][0] if factors else EPSILON
