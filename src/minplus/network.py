"""Directed weighted graphs associated with min-plus matrices.

A matrix and its network are two views of the same object: finite entry
a_ij is an edge i -> j of that weight, ε is no edge. This module
enumerates elementary circuits and vertex-disjoint circuit families,
computes the minimum circuit average weight (the eigenvalue oracle), and
cross-verifies the characteristic-polynomial structure theorems against
that circuit data. `verify_matrix` runs every check on one matrix from one
circuit enumeration and one computation of each polynomial.

Vertices are labeled 1..m throughout, matching the adjacency-matrix rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .charpoly import charpoly_flv, charpoly_tropdet, tropdet_assignment, tropdet_bruteforce
from .errors import CapExceeded
from .matrix import MinPlusMatrix, epsilon_matrix
from .polynomial import Factorization, MinPlusPolynomial, canonicalize, factorize, is_equivalent
from .semiring import EPSILON, MinPlusValue

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


@dataclass(frozen=True)
class Network:
    """m vertices (1..m) and directed weighted edges, one per ordered pair."""

    m: int
    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        normalized = []
        for tail, head, weight in self.edges:
            if not (1 <= tail <= self.m and 1 <= head <= self.m):
                raise ValueError(f"edge ({tail}, {head}) is outside vertices 1..{self.m}")
            if (tail, head) in seen:
                raise ValueError(f"duplicate edge for ordered pair ({tail}, {head})")
            seen.add((tail, head))
            normalized.append((tail, head, Fraction(weight)))
        object.__setattr__(self, "edges", tuple(normalized))

    def successors(self) -> dict[int, list[tuple[int, Fraction]]]:
        adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in range(1, self.m + 1)}
        for tail, head, weight in self.edges:
            adj[tail].append((head, weight))
        for lst in adj.values():
            lst.sort()
        return adj


@dataclass(frozen=True)
class Circuit:
    """An elementary cycle: distinct vertices, stored starting at the smallest."""

    vertices: tuple[int, ...]
    weight: Fraction

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a circuit has at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("circuit vertices must be distinct")
        if self.vertices[0] != min(self.vertices):
            raise ValueError("circuit must be in canonical rotation (smallest vertex first)")
        object.__setattr__(self, "weight", Fraction(self.weight))

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
    """One edge (i, j, a_ij) per finite entry."""
    edges = []
    for i in range(a.n):
        for j in range(a.n):
            x = a.rows[i][j]
            if not x.is_epsilon:
                edges.append((i + 1, j + 1, x.rational))
    return Network(m=a.n, edges=tuple(edges))


def matrix_from_network(net: Network) -> MinPlusMatrix:
    """Weighted adjacency matrix; inverse of network_from_matrix."""
    rows = [list(row) for row in epsilon_matrix(net.m).rows]
    for tail, head, weight in net.edges:
        rows[tail - 1][head - 1] = MinPlusValue(weight)
    return MinPlusMatrix(tuple(tuple(row) for row in rows))


def _strongly_connected_components(succ: dict[int, list[tuple[int, Fraction]]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative, on the subgraph induced by the keys of succ."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, edge_iter = work[-1]
            advanced = False
            for head, _ in edge_iter:
                if head not in succ:
                    continue
                if head not in index:
                    index[head] = low[head] = counter
                    counter += 1
                    stack.append(head)
                    on_stack.add(head)
                    work.append((head, iter(succ[head])))
                    advanced = True
                    break
                if head in on_stack:
                    low[v] = min(low[v], index[head])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def _component_of(net: Network) -> dict[int, int]:
    """Index of the strongly connected component of every vertex."""
    components = _strongly_connected_components(net.successors())
    return {v: ci for ci, component in enumerate(components) for v in component}


def _circuits_through(start: int, succ: dict[int, list[tuple[int, Fraction]]]):
    """Johnson's blocking search, on an explicit stack: the vertex tuple of
    every elementary circuit through start inside succ, start first."""
    blocked = {start}
    block_map: dict[int, set[int]] = defaultdict(set)
    path = [start]
    work = [iter(succ[start])]
    found = [False]
    while work:
        for head, _ in work[-1]:
            if head == start:
                yield tuple(path)
                found[-1] = True
            elif head not in blocked:
                path.append(head)
                blocked.add(head)
                work.append(iter(succ[head]))
                found.append(False)
                break
        else:
            v = path.pop()
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
                for head, _ in succ[v]:
                    block_map[head].add(v)


def enumerate_circuits(net: Network, cap: int = CIRCUIT_CAP) -> list[Circuit]:
    """All elementary circuits, by Johnson's algorithm.

    Every circuit lies inside one strongly connected component, so edges
    between components are dropped. Each component is searched from its
    smallest vertex, which is then removed, and the components of what
    remains are searched in turn: every circuit is found exactly once,
    from its smallest vertex, so it comes out already in canonical
    rotation. Results are sorted by (length, vertex sequence).
    """
    weight_of = {(t, h): w for t, h, w in net.edges}
    adj = net.successors()
    circuits: list[Circuit] = []
    pending = [adj]
    while pending:
        for component in _strongly_connected_components(pending.pop()):
            start = min(component)
            inside = set(component)
            succ = {v: [(h, w) for h, w in adj[v] if h in inside] for v in component}
            for cycle in _circuits_through(start, succ):
                total = sum((weight_of[edge] for edge in zip(cycle, cycle[1:] + cycle[:1])), Fraction(0))
                circuits.append(Circuit(vertices=cycle, weight=total))
                if len(circuits) > cap:
                    raise CapExceeded(
                        f"circuit enumeration exceeded the cap of {cap}",
                        partial_count=len(circuits),
                    )
            pending.append({v: succ[v] for v in component if v != start})

    circuits.sort(key=lambda c: (c.length, c.vertices))
    return circuits


def _karp_component(edges: list[tuple[int, int, Fraction]]) -> Fraction:
    """Minimum cycle mean of one strongly connected component, given by
    its internal edges (every vertex of it is the tail of one).

    Dynamic program over exact-length walks from a fixed source: with
    D_k(v) the minimum weight of a k-edge walk source -> v (None when no
    such walk exists),

        lambda = min over v with D_n(v) finite of
                 max over k < n with D_k(v) finite of (D_n(v) - D_k(v)) / (n - k).
    """
    order = sorted({t for t, _, _ in edges})
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    table: list[list[Fraction | None]] = [[None] * n for _ in range(n + 1)]
    table[0][0] = Fraction(0)
    local_edges = [(pos[t], pos[h], w) for t, h, w in edges]
    for k in range(1, n + 1):
        prev = table[k - 1]
        cur = table[k]
        for t, h, w in local_edges:
            dt = prev[t]
            if dt is None:
                continue
            cand = dt + w
            if cur[h] is None or cand < cur[h]:
                cur[h] = cand
    best: Fraction | None = None
    for i in range(n):
        dn = table[n][i]
        if dn is None:
            continue
        worst: Fraction | None = None
        for k in range(n):
            dk = table[k][i]
            if dk is None:
                continue
            ratio = Fraction(dn - dk, n - k)
            if worst is None or ratio > worst:
                worst = ratio
        if best is None or worst < best:
            best = worst
    if best is None:
        raise AssertionError("strongly connected component with an edge must contain a cycle")
    return best


def min_cycle_mean(net: Network) -> MinPlusValue:
    """Minimum average weight over all circuits; ε when the graph is acyclic.

    Runs the exact-length-walk dynamic program independently on each
    strongly connected component, since every circuit lives inside one.
    """
    component = _component_of(net)
    edges_by_component: dict[int, list[tuple[int, int, Fraction]]] = defaultdict(list)
    for tail, head, weight in net.edges:
        if component[tail] == component[head]:
            edges_by_component[component[tail]].append((tail, head, weight))
    means = [MinPlusValue(_karp_component(edges)) for edges in edges_by_component.values()]
    return min(means, default=EPSILON)


def enumerate_extended_circuits(
    net: Network,
    j: int,
    exhaustive_cap: int = EXHAUSTIVE_CAP,
    circuit_cap: int = CIRCUIT_CAP,
) -> list[ExtendedCircuit]:
    """All vertex-disjoint circuit families with total length exactly j."""
    if j < 1:
        raise ValueError("total length must be a positive integer")
    _require_exhaustive(net.m, exhaustive_cap)
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


def _family_minima(circuits: list[Circuit], n: int) -> dict[int, Fraction]:
    """Least weight of a vertex-disjoint circuit family of total length j,
    for each j that has one, by a dynamic program over vertex subsets S
    (bitmasks), with best[S] the least weight of a family covering exactly S:

        best[∅] = 0,  best[S] = min over circuits C ⊆ S with min(C) = min(S)
                                of w(C) + best[S ∖ C],

    and the minimum for j is the least best[S] over |S| = j.
    """
    cheapest: dict[int, Fraction] = {}
    for circuit in circuits:
        mask = sum(1 << (v - 1) for v in circuit.vertices)
        cheapest[mask] = min(circuit.weight, cheapest.get(mask, circuit.weight))
    by_lowest: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
    for mask, weight in cheapest.items():
        by_lowest[mask & -mask].append((mask, weight))
    best = {0: Fraction(0)}
    minima: dict[int, Fraction] = {}
    for s in range(1, 1 << n):
        options = [w + best[s ^ m] for m, w in by_lowest[s & -s] if m & s == m and s ^ m in best]
        if options:
            best[s] = min(options)
            j = bin(s).count("1")
            minima[j] = min(best[s], minima.get(j, best[s]))
    return minima


def _require_exhaustive(n: int, exhaustive_cap: int) -> None:
    """Raise before any work when the order alone puts the family minima
    over the exhaustive cap."""
    if n > exhaustive_cap:
        raise CapExceeded(f"exhaustive family enumeration is capped at {exhaustive_cap} vertices (got {n})")


def _coefficient_report(poly: MinPlusPolynomial, circuits: list[Circuit]) -> Report:
    n = poly.degree
    minima = _family_minima(circuits, n)
    details = []
    for j in range(1, n + 1):
        coefficient, enumerated = poly.coeffs[j], MinPlusValue(minima.get(j))
        details.append(
            {
                "j": j,
                "coefficient": coefficient.to_json(),
                "circuit_minimum": enumerated.to_json(),
                "match": coefficient == enumerated,
            }
        )
    passed = all(d["match"] for d in details)
    return Report(check="coefficients", hypothesis_met=None, details=details, passed=passed)


def coefficient_check(a: MinPlusMatrix, exhaustive_cap: int = EXHAUSTIVE_CAP) -> Report:
    """Compare each coefficient of tropdet(A ⊕ x⊗I) with the minimum
    weight sum of vertex-disjoint circuit families of that total length,
    computed from one circuit enumeration by a dynamic program over vertex
    subsets that uses graph data only."""
    _require_exhaustive(a.n, exhaustive_cap)
    circuits = enumerate_circuits(network_from_matrix(a))
    return _coefficient_report(charpoly_tropdet(a), circuits)


def separated_check(net: Network) -> bool:
    """Whether every vertex belongs to at most one elementary circuit.

    Decided from the strongly connected components in O(n + m): the
    network is separated iff no vertex has two out-edges inside its own
    component, i.e. every component has at most as many internal edges as
    vertices. Proof: a component with k vertices and exactly k internal
    edges is one circuit, a single vertex without a loop has none, and a
    vertex with two internal out-edges (v, u) and (v, u') lies on two
    circuits, each closed by a path back to v inside the component.
    """
    component = _component_of(net)
    tails = [t for t, h, _ in net.edges if component[t] == component[h]]
    return len(tails) == len(set(tails))


def _homogeneous_groups(circuits: list[Circuit]) -> list[tuple[Fraction, int]]:
    """Group circuits of equal average weight: (average, total length), ascending."""
    totals: dict[Fraction, int] = defaultdict(int)
    for circuit in circuits:
        totals[circuit.average] += circuit.length
    return sorted(totals.items())


def _factorization_report(
    n: int, circuits: list[Circuit], separated: bool, poly: MinPlusPolynomial | None
) -> Report:
    if not separated:
        return Report(
            check="separated_factorization",
            hypothesis_met=False,
            details=[{"note": "hypothesis not met: circuits are not pairwise vertex-disjoint"}],
            passed=True,
        )
    groups = _homogeneous_groups(circuits)
    covered = sum(length for _, length in groups)
    predicted = Factorization(
        factors=tuple((MinPlusValue(avg), length) for avg, length in groups),
        xpower=n - covered,
    )
    actual = factorize(poly)
    details = [
        {"predicted": predicted.to_json(), "actual": actual.to_json()},
    ]
    return Report(
        check="separated_factorization",
        hypothesis_met=True,
        details=details,
        passed=predicted == actual,
    )


def verify_separated_factorization(a: MinPlusMatrix, circuit_cap: int = CIRCUIT_CAP) -> Report:
    """Check that, for a separated network, the characteristic polynomial
    factors exactly as predicted by the homogeneous circuit groups:
    (x ⊕ p_1)^(l_1) ⊗ ... ⊗ (x ⊕ p_k)^(l_k) ⊗ x^r with r the number of
    circuit-free vertices."""
    net = network_from_matrix(a)
    circuits = enumerate_circuits(net, cap=circuit_cap)
    separated = separated_check(net)
    return _factorization_report(a.n, circuits, separated, charpoly_tropdet(a) if separated else None)


def _equivalence_report(separated: bool, g: MinPlusPolynomial, g_hat: MinPlusPolynomial) -> Report:
    equivalent = is_equivalent(g, g_hat)
    details = [
        {
            "separated": separated,
            "equivalent": equivalent,
            "tropdet_canonical": canonicalize(g).to_json(),
            "trace_recursion_canonical": canonicalize(g_hat).to_json(),
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
    return _equivalence_report(separated_check(network_from_matrix(a)), charpoly_tropdet(a), charpoly_flv(a))


def verify_matrix(a: MinPlusMatrix, cap_perms: int, cap_subsets: int, circuit_cap: int) -> list[Report]:
    """Every check of `minplus verify` on one matrix: the tropdet oracle,
    separation, coefficients, separated factorization and the corollary
    equivalence, from one circuit enumeration and each polynomial once.
    An order above the exhaustive cap raises `CapExceeded` before any work."""
    _require_exhaustive(a.n, EXHAUSTIVE_CAP)
    if a.n <= cap_perms:
        brute, solver = tropdet_bruteforce(a, cap=cap_perms), tropdet_assignment(a)
        details = {"bruteforce": brute.to_json(), "assignment": solver.to_json(), "match": brute == solver}
        oracle = Report(check="tropdet_oracle", hypothesis_met=True, details=[details], passed=brute == solver)
    else:
        details = {"note": f"order {a.n} above the brute-force cap {cap_perms}"}
        oracle = Report(check="tropdet_oracle", hypothesis_met=False, details=[details])
    net = network_from_matrix(a)
    circuits = enumerate_circuits(net, cap=circuit_cap)
    separated = separated_check(net)
    g = charpoly_tropdet(a, cap=cap_subsets)
    return [
        oracle,
        Report(check="separated", hypothesis_met=None, details=[{"separated": separated}]),
        _coefficient_report(g, circuits),
        _factorization_report(a.n, circuits, separated, g),
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

    net = Network(m=n, edges=tuple((t, h, w) for (t, h), w in sorted(edges.items())))
    return matrix_from_network(net), planted
