"""Directed weighted graphs associated with min-plus matrices.

A matrix and its network are two views of the same object: finite entry
a_ij is an edge i -> j of that weight, ε is no edge. This module
enumerates elementary circuits and vertex-disjoint circuit families,
computes the minimum circuit average weight (the eigenvalue oracle), and
cross-verifies the characteristic-polynomial structure theorems against
graph data. `verify_matrix` runs every check on one matrix from one
computation of each polynomial, one component pass and one expansion of
tropdet(C ⊕ x⊗I) per component C, the oracle of the coefficients; it
lists no circuits.

A network holds its matrix (``_matrix``), the one owner of the graph: the
matrix's finite cells (per vertex, its (head, weight times D) pairs in
head order, vertices counted from 0, with D the least common multiple of
the weights' reduced denominators) and its strongly connected classes
that hold a circuit (``MinPlusMatrix._classes``, one Tarjan pass per
matrix). A network built from a matrix holds that matrix itself; one
built from edges builds its matrix once. Every graph kernel here reads
the classes' cells as Tarjan numbers them, each vertex by its place in
the class's labels: Johnson's circuit search (which maps each circuit
back through the labels), Karp's minimum cycle mean, the expansion that
is the coefficients' oracle and the separation checks. The ``verify`` checks
take the matrix and build no network, so the tropdet kernels and the
graph kernels make one class pass per matrix between them.
Fractions appear only in ``edges``, in each ``Circuit`` and in results.

Vertices are labeled 1..m in ``edges``, circuits and every result,
matching the adjacency-matrix rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .charpoly import (
    _class_product,
    charpoly_flv,
    charpoly_tropdet,
    tropdet_assignment,
    tropdet_bruteforce,
)
from .errors import CapExceeded
from .matrix import MinPlusMatrix, _single_circuit, _strongly_connected_components
from .polynomial import Factorization, MinPlusPolynomial, canonicalize, factorize
from .semiring import MinPlusValue, _check_int, _common_denominator, _is_int, _ratio, _rational, _scaled

__all__ = [
    "Network",
    "Circuit",
    "ExtendedCircuit",
    "Report",
    "CIRCUIT_CAP",
    "EXHAUSTIVE_CAP",
    "network_from_matrix",
    "matrix_from_network",
    "enumerate_circuits",
    "min_cycle_mean",
    "enumerate_extended_circuits",
    "coefficient_check",
    "separated_check",
    "verify_separated_factorization",
    "verify_corollary_equivalence",
    "verify_matrix",
    "plant_separated_instance",
]

CIRCUIT_CAP = 10**6
EXHAUSTIVE_CAP = 10


def _finite(weight) -> Fraction:
    """An edge or circuit weight as a Fraction, coerced as a matrix entry
    is (floats, booleans and Decimals raise TypeError); ε raises ValueError."""
    q = _rational(weight)
    if q is None:
        raise ValueError("a weight must be finite, not ε")
    return q


@dataclass(frozen=True)
class Network:
    """m vertices (1..m) and directed weighted edges, one per ordered pair."""

    m: int
    edges: tuple[tuple[int, int, Fraction], ...]
    _matrix: MinPlusMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_int(self.m, "vertex count")
        if self.m < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        normalized = []
        for tail, head, weight in self.edges:
            if not (_is_int(tail) and _is_int(head)):
                raise TypeError(f"edge ({tail!r}, {head!r}) must join int vertices")
            if not (1 <= tail <= self.m and 1 <= head <= self.m):
                raise ValueError(f"edge ({tail}, {head}) is outside vertices 1..{self.m}")
            if (tail, head) in seen:
                raise ValueError(f"duplicate edge for ordered pair ({tail}, {head})")
            seen.add((tail, head))
            normalized.append((tail, head, _finite(weight)))
        d = _common_denominator(_ratio(w) for _, _, w in normalized)
        cells: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for tail, head, weight in normalized:
            cells[tail - 1].append((head - 1, _scaled(_ratio(weight), d)))
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_matrix", MinPlusMatrix._from_scaled(tuple(tuple(sorted(row)) for row in cells), d))

    def successors(self) -> dict[int, list[tuple[int, Fraction]]]:
        d = self._matrix._d
        return {v: [(h + 1, Fraction(w, d)) for h, w in row] for v, row in enumerate(self._matrix._cells, start=1)}


@dataclass(frozen=True)
class Circuit:
    """An elementary cycle: distinct vertices, stored starting at the smallest."""

    vertices: tuple[int, ...]
    weight: Fraction

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a circuit has at least one vertex")
        if not all(map(_is_int, self.vertices)):
            raise TypeError(f"circuit vertices must be ints, not {self.vertices!r}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("circuit vertices must be distinct")
        if self.vertices[0] != min(self.vertices):
            raise ValueError("circuit must be in canonical rotation (smallest vertex first)")
        object.__setattr__(self, "weight", _finite(self.weight))

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def average(self) -> Fraction:
        return self.weight / self.length

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "length": self.length,
            "weight": MinPlusValue(self.weight).to_json(),
            "average": MinPlusValue(self.average).to_json(),
        }


@dataclass(frozen=True)
class ExtendedCircuit:
    """A family of pairwise vertex-disjoint circuits, treated as one object."""

    circuits: tuple[Circuit, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.circuits, key=lambda c: (c.length, c.vertices)))
        seen: set[int] = set()
        for circuit in ordered:
            overlap = seen.intersection(circuit.vertices)
            if overlap:
                raise ValueError(f"circuits share vertices {sorted(overlap)}")
            seen.update(circuit.vertices)
        if not ordered:
            raise ValueError("an extended circuit has at least one member")
        object.__setattr__(self, "circuits", ordered)

    @property
    def total_length(self) -> int:
        return sum(c.length for c in self.circuits)

    @property
    def weight(self) -> Fraction:
        return sum((c.weight for c in self.circuits), Fraction(0))

    @property
    def average(self) -> Fraction:
        return self.weight / self.total_length

    def to_json(self) -> dict:
        return {
            "circuits": [c.to_json() for c in self.circuits],
            "total_length": self.total_length,
            "weight": MinPlusValue(self.weight).to_json(),
            "average": MinPlusValue(self.average).to_json(),
        }


@dataclass
class Report:
    """Outcome of one structure check, JSON-serializable."""

    check: str
    hypothesis_met: bool | None
    details: list = field(default_factory=list)
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "hypothesis_met": self.hypothesis_met,
            "details": self.details,
            "pass": self.passed,
        }


def network_from_matrix(a: MinPlusMatrix) -> Network:
    """One edge (i, j, a_ij) per finite entry: the network holds the
    matrix itself, so its components are the matrix's strongly connected
    classes, found once per matrix."""
    d = a._d
    edges = tuple([(i, j + 1, Fraction(w, d)) for i, row in enumerate(a._cells, start=1) for j, w in row])
    return _unchecked(Network, m=a.n, edges=edges, _matrix=a)


def _unchecked(cls, **fields):
    """An instance of a frozen dataclass from fields already in the form
    its __post_init__ gives them: nothing is checked or coerced."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


def matrix_from_network(net: Network) -> MinPlusMatrix:
    """Weighted adjacency matrix; inverse of network_from_matrix."""
    if net.m == 0:
        raise ValueError("matrix order must be at least 1")
    return net._matrix


def _circuits_through(cells):
    """Johnson's blocking search, on an explicit stack: (path, int weight)
    of every elementary circuit through vertex 0 of a class's cells, 0
    first; path is the search's own vertex list, to be read before resuming."""
    blocked = {0}
    block_map: dict[int, set[int]] = defaultdict(set)
    path = [0]
    sums = [0]  # sums[i]: the weight of the path's first i edges
    work = [iter(cells[0])]
    found = [False]
    while work:
        for head, weight in work[-1]:
            if head == 0:
                yield path, sums[-1] + weight
                found[-1] = True
            elif head not in blocked:
                path.append(head)
                sums.append(sums[-1] + weight)
                blocked.add(head)
                work.append(iter(cells[head]))
                found.append(False)
                break
        else:
            v = path.pop()
            sums.pop()
            work.pop()
            if found.pop():
                release = [v]
                while release:
                    u = release.pop()
                    if u in blocked:
                        blocked.discard(u)
                        release.extend(block_map.pop(u, ()))
                if found:
                    found[-1] = True
            else:
                for head, _ in cells[v]:
                    block_map[head].add(v)


def enumerate_circuits(net: Network, cap: int = CIRCUIT_CAP) -> list[Circuit]:
    """All elementary circuits, by Johnson's algorithm.

    Every circuit lies inside one strongly connected component, so the
    search starts from the network's components, as Tarjan numbers them.
    Each is searched from its vertex 0, its smallest, which is then removed,
    and the components of what remains are searched in turn, their labels
    composed with its own: every circuit is found exactly once, from its
    smallest vertex, so it comes out already in canonical rotation. Results
    are sorted by (length, vertex sequence).
    """
    _check_int(cap, "cap")
    d = net._matrix._d
    circuits: list[Circuit] = []
    pending = list(net._matrix._classes)
    while pending:
        labels, cells = pending.pop()
        for cycle, total in _circuits_through(cells):
            vertices = tuple([labels[v] + 1 for v in cycle])  # canonical, distinct ints: nothing to check
            circuits.append(_unchecked(Circuit, vertices=vertices, weight=Fraction(total, d)))
            if len(circuits) > cap:
                raise CapExceeded(f"circuit enumeration exceeded the cap of {cap}", partial_count=len(circuits))
        residue = tuple([tuple([(h - 1, w) for h, w in row if h]) for row in cells[1:]])  # vertex 0 goes
        for sub, sub_cells in _strongly_connected_components(residue):
            pending.append((tuple([labels[v + 1] for v in sub]), sub_cells))

    circuits.sort(key=lambda c: (c.length, c.vertices))
    return circuits


def _karp_component(cells, d: int) -> Fraction:
    """Minimum cycle mean of one strongly connected component, given as
    its cells: per vertex, its internal (head, weight times d) pairs.

    A component that is one circuit (``_single_circuit``) has its weight
    over its length as its mean; any other takes Karp's walk table
    (_karp_walks).
    """
    circuit = _single_circuit(cells)
    if circuit is not None:
        return Fraction(circuit[1], circuit[0] * d)
    return _karp_walks(cells, d)


def _karp_walks(cells, d: int) -> Fraction:
    """Minimum cycle mean of one strongly connected component, given as its
    cells, by Karp's dynamic program over exact-length walks from vertex 0:
    with D_k(v) the minimum weight of a k-edge walk 0 -> v (None when no
    such walk exists),

        lambda = min over v with D_n(v) finite of
                 max over k < n with D_k(v) finite of (D_n(v) - D_k(v)) / (n - k).

    The walks run on the int weights (times d), and the ratios are
    compared cross-multiplied (the denominators n - k are positive), so
    the one Fraction built is the result.
    """
    n = len(cells)
    table: list[list[int | None]] = [[None] * n for _ in range(n + 1)]
    table[0][0] = 0
    edges = [(t, h, w) for t, row in enumerate(cells) for h, w in row]
    for k in range(1, n + 1):
        prev = table[k - 1]
        cur = table[k]
        for t, h, w in edges:
            dt = prev[t]
            if dt is None:
                continue
            cand = dt + w
            if cur[h] is None or cand < cur[h]:
                cur[h] = cand
    best: tuple[int, int] | None = None  # a ratio as (numerator, positive denominator)
    for i in range(n):
        dn = table[n][i]
        if dn is None:
            continue
        worst: tuple[int, int] | None = None
        for k in range(n):
            dk = table[k][i]
            if dk is None:
                continue
            if worst is None or (dn - dk) * worst[1] > worst[0] * (n - k):
                worst = (dn - dk, n - k)
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    if best is None:
        raise AssertionError("strongly connected component with an edge must contain a cycle")
    return Fraction(best[0], best[1] * d)


def min_cycle_mean(net: Network) -> MinPlusValue:
    """Minimum average weight over all circuits; ε when the graph is acyclic.

    Runs the exact-length-walk dynamic program independently on each
    strongly connected component, since every circuit lives inside one.
    """
    a = net._matrix
    return MinPlusValue(min((_karp_component(cells, a._d) for _, cells in a._classes), default=None))


def enumerate_extended_circuits(
    net: Network,
    j: int,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    circuit_cap: int = CIRCUIT_CAP,
) -> list[ExtendedCircuit]:
    """All vertex-disjoint circuit families with total length exactly j."""
    _check_int(j, "total length")
    _check_int(exhaustive_cap, "exhaustive_cap")
    _check_int(circuit_cap, "circuit_cap")
    if j < 1:
        raise ValueError("total length must be a positive integer")
    if net.m > exhaustive_cap:
        raise CapExceeded(f"exhaustive family enumeration is capped at {exhaustive_cap} vertices (got {net.m})")
    circuits = enumerate_circuits(net, cap=circuit_cap)
    vertex_sets = [frozenset(c.vertices) for c in circuits]
    families: list[ExtendedCircuit] = []

    def backtrack(start: int, used: frozenset, chosen: list[Circuit], remaining: int):
        if remaining == 0:
            families.append(ExtendedCircuit(circuits=tuple(chosen)))
            return
        for idx in range(start, len(circuits)):
            circuit = circuits[idx]
            if circuit.length > remaining:
                continue
            if used & vertex_sets[idx]:
                continue
            chosen.append(circuit)
            backtrack(idx + 1, used | vertex_sets[idx], chosen, remaining - circuit.length)
            chosen.pop()

    backtrack(0, frozenset(), [], j)
    families.sort(key=lambda f: tuple((c.length, c.vertices) for c in f.circuits))
    return families


def _minor_minima(a: MinPlusMatrix) -> dict[int, Fraction]:
    """Least j-by-j principal minor of A, for each j >= 1 that has a finite
    one: the literal definition of c_j, found without any circuit.

    The oracle of the coefficients check: each component that is not one
    circuit takes the expansion of tropdet(C ⊕ x⊗I) on its own cells
    (``_expansion``), and the components' minima are merged as in
    ``charpoly_tropdet`` (``_class_product``), whose program it checks."""
    minima = _class_product(a._classes, _expansion)
    return {j: Fraction(total, a._d) for j, total in minima.items() if j}


def _expansion(cells) -> dict[int, int]:
    """{j: c_j} over the finite c_j (c_0 = 0 among them) of the matrix C
    whose finite cells these are, read off tropdet(C ⊕ x⊗I) expanded row
    by row.

    Row i takes one of its finite cells (j, w) in a column not yet taken,
    or takes x at column i. The rows that take x are fixed points, so the
    other rows permute their own index set S on finite cells of C: a
    permutation with r rows on x is a term of the (k-r)-by-(k-r)
    principal minor on S. Partial permutations of the same rows (rows are
    taken in order) onto the same columns are merged, keeping the least
    sum for each count of x rows, so every permutation through finite
    cells is still counted. Once every row is done, the full column set
    holds c_{k-r} for each count r. The rows done are as many as the
    columns taken, so that is O(2^k·k·Δ) on k rows with at most Δ finite
    cells each.
    """
    k = len(cells)
    sums: dict[int, dict[int, int]] = {0: {0: 0}}  # taken columns (a mask) -> {x rows: least sum}
    for i, out in enumerate(cells):
        taken_next: dict[int, dict[int, int]] = {}
        while sums:  # each entry freed as it is read
            taken, by_x = sums.popitem()
            moves = [(1 << j, w, 0) for j, w in out if not taken >> j & 1]
            if not taken >> i & 1:
                moves.append((1 << i, 0, 1))
            for bit, w, x in moves:
                target = taken_next.setdefault(taken | bit, {})
                for r, total in by_x.items():
                    if r + x not in target or total + w < target[r + x]:
                        target[r + x] = total + w
        sums = taken_next
    return {k - r: total for r, total in sums[(1 << k) - 1].items()}


def _coefficient_report(a: MinPlusMatrix, poly: MinPlusPolynomial) -> Report:
    minima = _minor_minima(a)
    details = []
    for j in range(1, poly.degree + 1):
        coefficient, family = MinPlusValue(minima.get(j)), poly.coeffs[j]
        details.append({"j": j, "coefficient": coefficient.to_json(), "circuit_minimum": family.to_json(),
                        "match": coefficient == family})
    passed = all(d["match"] for d in details)
    return Report(check="coefficients", hypothesis_met=None, details=details, passed=passed)


def coefficient_check(a: MinPlusMatrix) -> Report:
    """Compare each coefficient of tropdet(A ⊕ x⊗I), as its least principal
    minor of that order, with the minimum weight sum of vertex-disjoint
    circuit families of that total length. The families are the production
    polynomial, ``charpoly_tropdet``'s program over the vertex subsets of
    each component; the minors come from the independent row-by-row
    expansion of tropdet(C ⊕ x⊗I) on each component (``_minor_minima``).
    ``charpoly_tropdet`` runs first, so its cap stops both exponential
    stages, which take the same components."""
    return _coefficient_report(a, charpoly_tropdet(a))


def _is_separated(a: MinPlusMatrix) -> bool:
    return all(_single_circuit(cells) is not None for _, cells in a._classes)


def separated_check(net: Network) -> bool:
    """Whether every vertex belongs to at most one elementary circuit.

    Decided from the strongly connected components in O(n + m): a vertex
    on a circuit lies in a component that holds one, so the network is
    separated iff each such component is one circuit, i.e. has as many
    internal edges as vertices (``_single_circuit``).
    """
    return _is_separated(net._matrix)


def _homogeneous_groups(a: MinPlusMatrix) -> list[tuple[Fraction, int]]:
    """Group the circuits of a separated matrix's graph by average weight:
    (average, total length), ascending. Each class is one circuit, made of
    exactly its internal edges (weights times D)."""
    totals: dict[Fraction, int] = defaultdict(int)
    for _, cells in a._classes:
        totals[_karp_component(cells, a._d)] += len(cells)
    return sorted(totals.items())


def _factorization_report(a: MinPlusMatrix, poly: MinPlusPolynomial | None) -> Report:
    """The factorization predicted from a's circuits against poly, a's
    characteristic polynomial when its graph is separated, None when not."""
    if poly is None:
        note = "hypothesis not met: circuits are not pairwise vertex-disjoint"
        return Report(check="separated_factorization", hypothesis_met=False, details=[{"note": note}])
    groups = _homogeneous_groups(a)
    predicted = Factorization(
        factors=tuple((MinPlusValue(avg), length) for avg, length in groups),
        xpower=a.n - sum(length for _, length in groups),
    )
    actual = factorize(poly)
    details = [{"predicted": predicted.to_json(), "actual": actual.to_json()}]
    return Report(check="separated_factorization", hypothesis_met=True, details=details, passed=predicted == actual)


def verify_separated_factorization(a: MinPlusMatrix) -> Report:
    """Check that, for a separated network, the characteristic polynomial
    factors exactly as predicted by the homogeneous circuit groups:
    (x ⊕ p_1)^(l_1) ⊗ ... ⊗ (x ⊕ p_k)^(l_k) ⊗ x^r with r the number of
    circuit-free vertices."""
    return _factorization_report(a, charpoly_tropdet(a) if _is_separated(a) else None)


def _equivalence_report(separated: bool, g: MinPlusPolynomial, g_hat: MinPlusPolynomial) -> Report:
    canonical, canonical_hat = canonicalize(g), canonicalize(g_hat)
    equivalent = canonical == canonical_hat
    details = [
        {
            "separated": separated,
            "equivalent": equivalent,
            "tropdet_canonical": canonical.to_json(),
            "trace_recursion_canonical": canonical_hat.to_json(),
        }
    ]
    return Report(
        check="corollary_equivalence",
        hypothesis_met=separated,
        details=details,
        passed=equivalent if separated else True,
    )


def verify_corollary_equivalence(a: MinPlusMatrix) -> Report:
    """Compare the two characteristic polynomials as functions.

    When the network is separated the equivalence is asserted (the report
    fails if it does not hold); otherwise the outcome is recorded only.
    """
    return _equivalence_report(_is_separated(a), charpoly_tropdet(a), charpoly_flv(a))


def verify_matrix(a: MinPlusMatrix, cap_perms: int, cap_subsets: int) -> list[Report]:
    """Every check of `minplus verify` on one matrix: the tropdet oracle,
    separation, coefficients, separated factorization and the corollary
    equivalence. No circuit is listed. The coefficients check compares
    `charpoly_tropdet`, whose circuit-family program reads the graph, with
    the expansion of tropdet(C ⊕ x⊗I) on each component (``_minor_minima``).
    `charpoly_tropdet` runs first, so a component above `cap_subsets` that
    is not one circuit is refused before the permutation brute force or
    the expansion starts: the expansion takes the same components."""
    _check_int(cap_perms, "cap_perms")
    _check_int(cap_subsets, "cap_subsets")
    g = charpoly_tropdet(a, cap=cap_subsets)
    if a.n <= cap_perms:
        brute, solver = tropdet_bruteforce(a, cap=cap_perms), tropdet_assignment(a)
        details = {"bruteforce": brute.to_json(), "assignment": solver.to_json(), "match": brute == solver}
        oracle = Report(check="tropdet_oracle", hypothesis_met=True, details=[details], passed=brute == solver)
    else:
        details = {"note": f"order {a.n} above the brute-force cap {cap_perms}"}
        oracle = Report(check="tropdet_oracle", hypothesis_met=False, details=[details])
    separated = _is_separated(a)
    return [
        oracle,
        Report(check="separated", hypothesis_met=None, details=[{"separated": separated}]),
        _coefficient_report(a, g),
        _factorization_report(a, g if separated else None),
        _equivalence_report(separated, g, charpoly_flv(a)),
    ]


def plant_separated_instance(
    rng,
    n: int,
    max_cycles: int = 3,
    extra_edge_probability: float = 0.35,
) -> tuple[MinPlusMatrix, list[tuple[tuple[int, ...], tuple[Fraction, ...]]]]:
    """Random matrix whose network has only planted, pairwise-disjoint cycles.

    Plants up to max_cycles vertex-disjoint cycles with random integer
    edge weights, leaves the remaining vertices circuit-free, and adds
    extra edges only from earlier to later components in a fixed component
    order, so no new circuits can arise.

    Returns the matrix and the planted cycles as (vertex tuple, edge
    weight tuple) pairs, for independent verification.
    """
    _check_int(n, "n")
    _check_int(max_cycles, "max_cycles")
    if n < 1:
        raise ValueError("need at least one vertex")
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    k = rng.randint(0, max_cycles)
    lengths: list[int] = []
    available = n
    for _ in range(k):
        if available == 0:
            break
        length = rng.randint(1, available)
        lengths.append(length)
        available -= length

    edges: dict[tuple[int, int], Fraction] = {}
    planted: list[tuple[tuple[int, ...], tuple[Fraction, ...]]] = []
    components: list[list[int]] = []
    cursor = 0
    for length in lengths:
        cycle = tuple(labels[cursor : cursor + length])
        cursor += length
        weights = tuple(Fraction(rng.randint(-9, 12)) for _ in range(length))
        for idx in range(length):
            edges[(cycle[idx], cycle[(idx + 1) % length])] = weights[idx]
        planted.append((cycle, weights))
        components.append(list(cycle))
    for v in labels[cursor:]:
        components.append([v])

    rng.shuffle(components)
    for earlier in range(len(components)):
        for later in range(earlier + 1, len(components)):
            for u in components[earlier]:
                for v in components[later]:
                    if rng.random() < extra_edge_probability:
                        edges[(u, v)] = Fraction(rng.randint(-9, 12))

    return MinPlusMatrix([[edges.get((t, h)) for h in range(1, n + 1)] for t in range(1, n + 1)]), planted
