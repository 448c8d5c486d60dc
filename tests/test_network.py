import dataclasses
import json
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from minplus import charpoly as charpoly_module
from minplus import matrix as matrix_module
from minplus import network
from minplus.cli import main
from minplus import (
    CapExceeded,
    Circuit,
    EPSILON,
    ExtendedCircuit,
    MinPlusMatrix,
    MinPlusValue,
    Network,
    canonical_charpoly_tropdet,
    charpoly_flv,
    charpoly_tropdet,
    coefficient_check,
    eigenvalue_from_charpoly,
    enumerate_circuits,
    enumerate_extended_circuits,
    epsilon_matrix,
    factorize,
    is_equivalent,
    matrix_from_network,
    min_cycle_mean,
    network_from_matrix,
    parse_matrix,
    plant_separated_instance,
    scalar_otimes,
    separated_check,
    verify_corollary_equivalence,
    verify_separated_factorization,
)
from conftest import dense_ints, random_matrix

EPS = None


def diag(*values):
    n = len(values)
    return MinPlusMatrix([[values[i] if i == j else EPS for j in range(n)] for i in range(n)])


def test_network_round_trip(example7):
    net = network_from_matrix(example7)
    assert net.m == 7
    assert len(net.edges) == 12
    assert matrix_from_network(net) == example7

    rng = random.Random(31)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 6))
        assert matrix_from_network(network_from_matrix(a)) == a


def test_network_special_cases():
    assert network_from_matrix(epsilon_matrix(3)).edges == ()
    loops = network_from_matrix(diag(1, 2, 3))
    assert loops.edges == ((1, 1, Fraction(1)), (2, 2, Fraction(2)), (3, 3, Fraction(3)))
    single = Network(m=2, edges=((1, 1, Fraction(5)),))
    assert matrix_from_network(single) == MinPlusMatrix([[5, EPS], [EPS, EPS]])
    assert matrix_from_network(Network(m=3, edges=())) == epsilon_matrix(3)


def test_network_validation():
    with pytest.raises(ValueError, match="duplicate"):
        Network(m=2, edges=((1, 2, Fraction(1)), (1, 2, Fraction(3))))
    with pytest.raises(ValueError, match="outside"):
        Network(m=2, edges=((1, 3, Fraction(1)),))
    # weights are coerced as matrix entries are: exact values only, and finite
    for weight, message in ((0.1, "floats"), (True, "booleans"), (Decimal("0.1"), "cannot interpret")):
        with pytest.raises(TypeError, match=message):
            Network(m=1, edges=((1, 1, weight),))
    for weight in (None, "inf"):
        with pytest.raises(ValueError, match="finite"):
            Network(m=1, edges=((1, 1, weight),))
    assert Network(m=1, edges=((1, 1, "7/2"),)).edges == ((1, 1, Fraction(7, 2)),)
    # the vertex count is an int, as a value is never a bool
    for m in (2.5, 2.0, True, False, "2", Fraction(2), None):
        with pytest.raises(TypeError, match="vertex count"):
            Network(m=m, edges=())
    with pytest.raises(ValueError, match="nonnegative"):
        Network(m=-1, edges=())
    # so are the endpoints of an edge
    for tail, head in ((1.5, 2), (True, 2), (1, 2.0), (1, False), ("1", 2), (Fraction(1), 2), (None, 1)):
        with pytest.raises(TypeError, match="int vertices"):
            Network(m=2, edges=((tail, head, 1),))
    with pytest.raises(ValueError, match="order"):
        matrix_from_network(Network(m=0, edges=()))


def test_circuit_type_invariants():
    with pytest.raises(ValueError, match="canonical"):
        Circuit(vertices=(3, 1, 2), weight=Fraction(0))
    with pytest.raises(ValueError, match="distinct"):
        Circuit(vertices=(1, 2, 1), weight=Fraction(0))
    for weight, message in ((0.1, "floats"), (True, "booleans"), (Decimal("0.1"), "cannot interpret")):
        with pytest.raises(TypeError, match=message):
            Circuit(vertices=(1,), weight=weight)
    for weight in (None, "inf"):
        with pytest.raises(ValueError, match="finite"):
            Circuit(vertices=(1,), weight=weight)
    for vertices in ((1.0, 2), (1, 2.5), (True, 2), ("1",), (Fraction(1),)):
        with pytest.raises(TypeError, match="circuit vertices"):
            Circuit(vertices=vertices, weight=1)
    c = Circuit(vertices=(1, 3, 2), weight=Fraction(6))
    assert c.length == 3
    assert c.average == 2


def test_extended_circuit_disjointness():
    a = Circuit(vertices=(1, 2), weight=Fraction(4))
    b = Circuit(vertices=(3,), weight=Fraction(1))
    fam = ExtendedCircuit(circuits=(a, b))
    assert fam.total_length == 3
    assert fam.weight == 5
    assert fam.average == Fraction(5, 3)
    overlapping = Circuit(vertices=(2, 4), weight=Fraction(0))
    with pytest.raises(ValueError, match="share"):
        ExtendedCircuit(circuits=(a, overlapping))


def test_network_holds_the_scaled_form_of_its_matrix():
    # random ε-heavy matrices with denominators 1-4, every fourth a planted separated instance
    rng = random.Random(20261103)
    for k in range(200):
        n = rng.randint(1, 8)
        if k % 4 == 3:
            a = plant_separated_instance(rng, n)[0]
        else:
            density = rng.uniform(0.05, 0.5)
            a = MinPlusMatrix(
                [
                    [Fraction(rng.randint(-9, 20), rng.randint(1, 4)) if rng.random() < density else EPS for _ in range(n)]
                    for _ in range(n)
                ]
            )
        net = network_from_matrix(a)
        # the network holds the matrix's own finite cells and D, and hands them back
        assert net._cells is a._cells and net._d == a._d
        assert net._cells == tuple(tuple((j, w) for j, w in enumerate(row) if w is not None) for row in dense_ints(a))
        back = matrix_from_network(net)
        assert back._cells is net._cells and back._d == a._d
        # the same edges in any order give the same cells
        shuffled = list(net.edges)
        random.Random(k).shuffle(shuffled)
        rebuilt = Network(m=a.n, edges=tuple(shuffled))
        assert rebuilt.edges == tuple(shuffled)
        assert (rebuilt._cells, rebuilt._d) == (a._cells, a._d)
        assert rebuilt._components == net._components


def test_network_equality_hash_and_repr_see_only_m_and_edges():
    net = Network(m=2, edges=((1, 2, Fraction(1, 2)), (2, 1, 3)))
    assert [f.name for f in dataclasses.fields(net) if f.compare] == ["m", "edges"]
    assert repr(net) == f"Network(m=2, edges={net.edges!r})"
    assert hash(net) == hash((2, net.edges))
    assert (net._cells, net._d) == ((((1, 1),), ((0, 6),)), 2)
    assert net.successors() == {1: [(2, Fraction(1, 2))], 2: [(1, Fraction(3))]}
    back = matrix_from_network(net)
    assert (back._cells, back._d) == (net._cells, 2)
    assert dense_ints(back) == ((None, 1), (6, None))
    unordered = Network(m=3, edges=((3, 1, 2), (1, 3, Fraction(1, 3)), (1, 2, 5), (3, 3, 0)))
    assert (unordered._cells, unordered._d) == ((((1, 15), (2, 1)), (), ((0, 6), (2, 0))), 3)
    # vertices 1 and 3 form the one component that holds a circuit; the edge 1 -> 2 leaves it
    assert unordered._components == [{0: ((2, 1),), 2: ((0, 6), (2, 0))}]
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.m = 3


def test_enumerate_circuits_golden(example7):
    circuits = enumerate_circuits(network_from_matrix(example7))
    assert [(c.vertices, c.weight) for c in circuits] == [
        ((3,), Fraction(3)),
        ((2, 4), Fraction(8)),
        ((1, 3, 2), Fraction(6)),
        ((1, 3, 4, 2), Fraction(20)),
    ]
    assert sorted(c.average for c in circuits) == [2, 3, 4, 5]


def test_enumerate_circuits_trivia():
    assert enumerate_circuits(Network(m=3, edges=())) == []
    loop = enumerate_circuits(Network(m=1, edges=((1, 1, Fraction(7)),)))
    assert [(c.vertices, c.length, c.weight) for c in loop] == [((1,), 1, Fraction(7))]


def test_enumerate_circuits_cap():
    a = MinPlusMatrix([[0] * 4 for _ in range(4)])
    with pytest.raises(CapExceeded) as err:
        enumerate_circuits(network_from_matrix(a), cap=5)
    assert err.value.partial_count == 6


def _cyclic_arrangements(subset):
    """All distinct cyclic orders of a vertex subset, smallest vertex first."""
    first, *rest = sorted(subset)
    if not rest:
        yield (first,)
        return
    for tail in permutations(rest):
        yield (first,) + tail


def _bruteforce_circuits(net: Network):
    """Independent oracle: test every cyclic vertex arrangement against the edge set."""
    weight_of = {(t, h): w for t, h, w in net.edges}
    found = []
    vertices = range(1, net.m + 1)
    for size in range(1, net.m + 1):
        for subset in combinations(vertices, size):
            for arrangement in _cyclic_arrangements(subset):
                pairs = [
                    (arrangement[i], arrangement[(i + 1) % size]) for i in range(size)
                ]
                if all(pair in weight_of for pair in pairs):
                    total = sum((weight_of[p] for p in pairs), Fraction(0))
                    found.append((arrangement, total))
    return sorted(found, key=lambda item: (len(item[0]), item[0]))


def test_enumerate_circuits_against_bruteforce():
    rng = random.Random(20240823)
    for _ in range(25):
        n = rng.randint(1, 6)
        net = network_from_matrix(random_matrix(rng, n, density=0.5))
        enumerated = [(c.vertices, c.weight) for c in enumerate_circuits(net)]
        assert enumerated == _bruteforce_circuits(net)


def test_min_cycle_mean_golden(example7):
    assert min_cycle_mean(network_from_matrix(example7)) == MinPlusValue(2)


def test_min_cycle_mean_trivia():
    acyclic = Network(m=3, edges=((1, 2, Fraction(1)), (2, 3, Fraction(-4))))
    assert min_cycle_mean(acyclic).is_epsilon
    loop = Network(m=2, edges=((2, 2, Fraction(-7)),))
    assert min_cycle_mean(loop) == MinPlusValue(-7)
    two_cycle = Network(m=2, edges=((1, 2, Fraction(1)), (2, 1, Fraction(4))))
    assert min_cycle_mean(two_cycle) == MinPlusValue(Fraction(5, 2))


def test_min_cycle_mean_matches_enumeration():
    rng = random.Random(20240824)
    for _ in range(60):
        n = rng.randint(1, 6)
        net = network_from_matrix(random_matrix(rng, n))
        circuits = enumerate_circuits(net)
        expected = (
            MinPlusValue(min(c.average for c in circuits)) if circuits else EPSILON
        )
        assert min_cycle_mean(net) == expected


def test_single_circuit_component_mean_matches_the_walk_table():
    # a component with as many internal edges as vertices skips Karp's table;
    # on a planted instance the components are exactly the planted cycles
    rng = random.Random(20261018)
    single = 0
    for _ in range(80):
        matrix, planted = plant_separated_instance(rng, rng.randint(1, 12))
        shift = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        net = network_from_matrix(scalar_otimes(shift, matrix))
        expected = []
        for cycle, weights in planted:
            heads = cycle[1:] + cycle[:1]
            expected.append({t - 1: ((h - 1, (w + shift) * net._d),) for t, h, w in zip(cycle, heads, weights)})
        assert sorted(net._components, key=min) == sorted(expected, key=min)
        for succ in net._components:
            single += all(len(pairs) == 1 for pairs in succ.values())
            assert network._karp_component(succ, net._d) == network._karp_walks(succ, net._d)
    assert single > 80


def test_eigenvalue_triangle_random():
    rng = random.Random(20240825)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n)
        karp = min_cycle_mean(network_from_matrix(a))
        assert karp == eigenvalue_from_charpoly(charpoly_tropdet(a))
        assert karp == eigenvalue_from_charpoly(charpoly_flv(a))


def test_extended_circuits_simple_cases():
    loops = network_from_matrix(diag(1, 2, 3))
    singles = enumerate_extended_circuits(loops, 1)
    assert [f.circuits[0].vertices for f in singles] == [(1,), (2,), (3,)]
    pairs = enumerate_extended_circuits(loops, 2)
    assert sorted(f.weight for f in pairs) == [3, 4, 5]
    everything = enumerate_extended_circuits(loops, 3)
    assert [f.weight for f in everything] == [6]
    assert enumerate_extended_circuits(Network(m=2, edges=()), 1) == []


def test_extended_circuits_golden(example7):
    net = network_from_matrix(example7)
    by_length = {
        j: [f.weight for f in enumerate_extended_circuits(net, j)] for j in range(1, 8)
    }
    assert by_length[1] == [Fraction(3)]
    assert by_length[2] == [Fraction(8)]
    # length 3: the 3-cycle, and the loop with the 2-cycle (disjoint)
    assert sorted(by_length[3]) == [Fraction(6), Fraction(11)]
    # length 4: only the 4-cycle; the loop shares vertex 3 with the 3-cycle
    assert by_length[4] == [Fraction(20)]
    assert by_length[5] == by_length[6] == by_length[7] == []


def test_extended_circuits_cap():
    with pytest.raises(CapExceeded):
        enumerate_extended_circuits(Network(m=11, edges=()), 1)
    with pytest.raises(ValueError):
        enumerate_extended_circuits(Network(m=2, edges=()), 0)
    loop = Network(m=1, edges=((1, 1, 2),))
    assert [f.total_length for f in enumerate_extended_circuits(loop, 1)] == [1]
    for j in (1.5, 1.0, True, "1", Fraction(1)):
        with pytest.raises(TypeError, match="total length"):
            enumerate_extended_circuits(loop, j)


def _planted_minima(planted, n):
    """Independent oracle: the least weight of a subset of the planted
    cycles, for each total length 1..n (None when no subset has it)."""
    minima = [None] * (n + 1)
    for size in range(1, len(planted) + 1):
        for chosen in combinations(planted, size):
            j = sum(len(cycle) for cycle, _ in chosen)
            weight = sum((sum(weights, Fraction(0)) for _, weights in chosen), Fraction(0))
            if minima[j] is None or weight < minima[j]:
                minima[j] = weight
    return minima[1:]


def test_verify_matrix_above_the_old_exhaustive_cap_matches_oracles():
    rng = random.Random(20261021)
    cases = []
    for n in (11, 12):
        values = [Fraction(rng.randint(-9, 20), rng.randint(1, 3)) for _ in range(n)]
        cases.append((diag(*values), [sum(sorted(values)[:j]) for j in range(1, n + 1)]))
        matrix, planted = plant_separated_instance(rng, n)
        while len(planted) < 2:
            matrix, planted = plant_separated_instance(rng, n)
        cases.append((matrix, _planted_minima(planted, n)))
    for a, expected in cases:
        reports = {r.check: r for r in network.verify_matrix(a, cap_perms=9, cap_subsets=16)}
        assert [r.check for r in reports.values()] == [
            "tropdet_oracle", "separated", "coefficients", "separated_factorization", "corollary_equivalence"
        ]
        oracle = [MinPlusValue(w).to_json() for w in expected]
        details = reports["coefficients"].details
        assert [d["coefficient"] for d in details] == oracle
        assert [d["circuit_minimum"] for d in details] == oracle
        assert reports["coefficients"].passed
        assert reports["separated_factorization"].hypothesis_met
        assert reports["separated_factorization"].passed


def _class_with_free_vertices(k, small=0):
    """A strongly connected class of order k (a shuffled k-cycle with chords
    two steps on), and a class of order small built the same way if small
    > 1, led to by two vertices on no circuit."""
    n = k + small + 2
    rows = [[EPS] * n for _ in range(n)]
    for start, size in ((2, k), (2 + k, small)):
        for i in range(size):
            rows[start + i][start + (i + 1) % size] = i % 5 - 2
            if size > 2:
                rows[start + i][start + (i + 2) % size] = 3 - i % 4
    rows[0][1] = rows[0][2] = rows[1][n - 1] = 1
    order = list(range(n))
    random.Random(k).shuffle(order)
    return MinPlusMatrix([[rows[order[i]][order[j]] for j in range(n)] for i in range(n)])


def test_verify_matrix_subset_cap_stops_before_family_minima(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done past the subset cap")

    monkeypatch.setattr(network, "_family_minima", refuse)
    monkeypatch.setattr(network, "tropdet_bruteforce", refuse)
    # the class of order 3 is under the cap, and is not scanned either: the cap is checked first
    monkeypatch.setattr(charpoly_module, "_subset_scan", refuse)
    a = _class_with_free_vertices(12, small=3)
    message = r"capped at order 11 \(got a strongly connected class of order 12\)"
    with pytest.raises(CapExceeded, match=message):
        network.verify_matrix(a, cap_perms=9, cap_subsets=11)
    # an order within the brute-force cap is still refused before the brute force runs
    with pytest.raises(CapExceeded, match=message):
        network.verify_matrix(a, cap_perms=17, cap_subsets=11)
    with pytest.raises(CapExceeded, match="capped at order 16"):
        coefficient_check(_class_with_free_vertices(17))


def test_verify_lists_no_circuits(monkeypatch, example7):
    def refuse(*args, **kwargs):
        raise AssertionError("circuits enumerated")

    monkeypatch.setattr(network, "enumerate_circuits", refuse)
    rng = random.Random(20261022)
    matrices = [example7, random_matrix(rng, 8), plant_separated_instance(rng, 9)[0]]
    for a in matrices:
        assert all(r.passed or r.check == "corollary_equivalence" for r in network.verify_matrix(a, 9, 16))
        assert coefficient_check(a).passed
        assert verify_separated_factorization(a).passed


def test_graph_commands_read_only_the_int_adjacency(monkeypatch, tmp_path, capsys, example7):
    # Network.successors builds a Fraction adjacency for callers; no kernel reads it
    def refuse(self):
        raise AssertionError("Network.successors called")

    monkeypatch.setattr(Network, "successors", refuse)
    rng = random.Random(20261104)
    matrices = [example7] + [
        MinPlusMatrix(
            [[Fraction(rng.randint(-9, 20), rng.randint(1, 4)) if rng.random() < 0.25 else EPS for _ in range(n)]
             for _ in range(n)]
        )
        for n in (1, 3, 5, 8, 12)
    ]
    for k, a in enumerate(matrices):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(a.to_json()), encoding="utf-8")
        for argv in (["circuits", "--format", "json"], ["verify"], ["eigenvalue", "--method", "karp"]):
            code = main([*argv, str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 4) and err == "" and out, (argv, k, code, err)


def test_network_from_a_parsed_text_matrix_reads_only_its_finite_cells():
    # a matrix holds its finite cells alone, so a long ε-heavy cycle is
    # parsed, made a network, searched and given its cycle mean with no
    # dense int form built
    n = 300
    order = list(range(1, n + 1))
    random.Random(20261019).shuffle(order)
    weights = [0, Fraction(3, 4), -2, Fraction(-5, 6)] * (n // 4)  # zero weights and a common D of 12
    edges = tuple((order[k], order[(k + 1) % n], weights[k]) for k in range(n))
    cells = {(t, h): w for t, h, w in edges}
    rows = [[cells.get((t, h)) for h in range(1, n + 1)] for t in range(1, n + 1)]
    text = "\n\n".join(" ".join("inf" if w is None else str(w) for w in row) for row in rows) + "\n"
    parsed, from_json = parse_matrix(text), parse_matrix(json.dumps(MinPlusMatrix(rows).to_json()))
    assert (from_json._cells, from_json._d) == (parsed._cells, parsed._d)
    net = network_from_matrix(parsed)
    coerced = Network(m=n, edges=tuple(sorted(edges)))
    assert (net, hash(net), repr(net)) == (coerced, hash(coerced), repr(coerced))
    assert net._cells is parsed._cells
    assert (net._cells, net._d) == (coerced._cells, coerced._d)
    assert net._d == 12
    # one component, the whole cycle, each vertex with its one successor
    assert net._components == [{t - 1: ((h - 1, w * 12),) for t, h, w in edges}]
    [circuit] = enumerate_circuits(net)
    assert (circuit.length, circuit.weight) == (n, sum(weights))
    assert min_cycle_mean(net) == MinPlusValue(Fraction(sum(weights), n))
    assert network_from_matrix(from_json) == net


def test_every_constructor_holds_the_same_cells():
    # a matrix holds one int form, its finite cells and D, whichever way it
    # is built; no slot or attribute holds a dense form
    text = "0 inf 2 inf inf\ninf inf inf inf inf\ninf 1/2 inf -3 inf\neps eps eps eps eps\n7 inf inf inf 5/4\n"
    json_text = '{"rows": [[0, null, 2, "inf", "eps"], [null, null, null, null, null], ["inf", "2/4", null, -3, "eps"],'
    json_text += ' ["eps", "eps", "eps", "eps", "eps"], [7, null, "inf", null, "5/4"]]}'
    rows = [[0, None, 2, None, None], [None] * 5, [None, Fraction(1, 2), None, -3, None], [None] * 5]
    rows.append([7, None, None, None, Fraction(5, 4)])
    held = MinPlusMatrix(rows)
    assert MinPlusMatrix.__slots__ == ("_cells", "_d", "_rows", "_class_list")
    assert not any(hasattr(held, name) for name in ("_ints", "_int_rows", "_cell_rows", "__dict__"))
    cells = (((0, 0), (2, 8)), (), ((1, 2), (3, -12)), (), ((0, 28), (4, 5)))
    assert (held._cells, held._d) == (cells, 4)
    for built in (parse_matrix(text), parse_matrix(json_text), matrix_from_network(network_from_matrix(held))):
        assert (built._cells, built._d) == (cells, 4)
        assert built == held and hash(built) == hash(held)
        assert network_from_matrix(built)._cells is built._cells
        assert built.rows == held.rows
        assert built.principal_submatrix([0, 2, 4]) == held.principal_submatrix([0, 2, 4])
        assert charpoly_tropdet(built) == charpoly_tropdet(held)


def _residue(component):
    """A component less its smallest vertex, with the edges into that vertex dropped."""
    start = min(component)
    return {v: tuple(p for p in pairs if p[0] != start) for v, pairs in component.items() if v != start}


def test_separated_check_and_min_cycle_mean_share_one_component_pass(monkeypatch, tmp_path, capsys, example7):
    # per matrix, one Tarjan pass over all n vertices feeds every tropdet kernel and
    # every graph kernel; Johnson's search runs Tarjan again only on what is left of a
    # component it has searched, once that component's smallest vertex goes
    n = 300
    order = list(range(1, n + 1))
    random.Random(20261020).shuffle(order)
    cells = {(order[k], order[(k + 1) % n]): Fraction(k % 7 - 3, 1 + k % 2) for k in range(n)}
    cycle = MinPlusMatrix([[cells.get((t, h)) for h in range(1, n + 1)] for t in range(1, n + 1)])
    matrices = (example7, diag(3, 1, 2), plant_separated_instance(random.Random(5), 9)[0],
                _class_with_free_vertices(6, small=3), cycle)

    def fresh(a):
        # the same matrix, with no classes found yet
        return MinPlusMatrix._from_scaled(a._cells, a._d)

    def all_answers(a):
        net = network_from_matrix(a)
        return (separated_check(net), min_cycle_mean(net), enumerate_circuits(net),
                charpoly_tropdet(a), canonical_charpoly_tropdet(a))

    expected = [all_answers(fresh(a)) for a in matrices]
    reports = [[r.to_json() for r in network.verify_matrix(fresh(a), 8, 20)] for a in matrices[:4]]
    calls = []
    tarjan = matrix_module._strongly_connected_components

    def spy(succ):
        components = tarjan(succ)
        calls.append((succ, components))
        return components

    def one_whole_pass_then_residues(m, johnson, cells=None):
        (whole, known), *rest = calls
        assert isinstance(whole, tuple) and len(whole) == m
        assert cells is None or whole is cells
        known = list(known)
        for succ, components in rest:
            assert any(succ == _residue(component) for component in known)
            known.extend(components)
        # Johnson's search takes every component in turn, with one pass over its residue
        assert len(rest) == (len(known) if johnson else 0)
        calls.clear()

    monkeypatch.setattr(matrix_module, "_strongly_connected_components", spy)
    monkeypatch.setattr(network, "_strongly_connected_components", spy)
    commands = (["circuits"], ["eigenvalue", "--method", "karp"], ["charpoly", "--method", "tropdet"], ["factor"],
                ["eigenvalue", "--method", "all"], ["charpoly"], ["verify"])
    for k, (a, answers) in enumerate(zip(matrices, expected)):
        b = fresh(a)
        assert all_answers(b) == answers
        one_whole_pass_then_residues(a.n, True, b._cells)
        if k < 4:
            b = fresh(a)
            assert [r.to_json() for r in network.verify_matrix(b, 8, 20)] == reports[k]
            one_whole_pass_then_residues(a.n, False, b._cells)
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(a.to_json()), encoding="utf-8")
        # the trace recursion of flv is O(n^3) on the 300-cycle: the last three commands skip it
        for argv in commands[: len(commands) if k < 4 else 4]:
            assert main([*argv, "--format", "json", str(path)]) in (0, 4)
            capsys.readouterr()
            one_whole_pass_then_residues(a.n, johnson=argv[0] == "circuits")


def test_coefficient_check_golden(example7):
    report = coefficient_check(example7)
    assert report.passed
    assert [d["match"] for d in report.details] == [True] * 7
    assert [d["coefficient"] for d in report.details] == [3, 8, 6, 20, "inf", "inf", "inf"]


def test_coefficient_check_diagonal():
    values = [5, 1, 4, 2]
    report = coefficient_check(diag(*values))
    assert report.passed
    # independent oracle: minimum over j-subsets of the loop-weight sums
    for j, detail in enumerate(report.details, start=1):
        expected = min(sum(combo) for combo in combinations(values, j))
        assert detail["coefficient"] == expected


def test_coefficient_check_acyclic():
    a = MinPlusMatrix([[EPS, 1, 2], [EPS, EPS, 3], [EPS, EPS, EPS]])
    report = coefficient_check(a)
    assert report.passed
    assert all(d["coefficient"] == "inf" for d in report.details)


def test_coefficient_check_random():
    # orders up to 12: the subset dynamic program against the subset scan,
    # beyond the reach of the family backtracking
    rng = random.Random(20240826)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 12))
        assert coefficient_check(a).passed


def test_separated_check(example7):
    assert separated_check(network_from_matrix(diag(1, 2)))
    # the loop at vertex 3 and the 3-cycle share vertex 3
    assert not separated_check(network_from_matrix(example7))
    ring = Network(
        m=3,
        edges=((1, 2, Fraction(1)), (2, 3, Fraction(1)), (3, 1, Fraction(1))),
    )
    assert separated_check(ring)


def test_long_cycle_is_one_circuit():
    # the circuit search keeps its path on an explicit stack
    n = 5000
    net = Network(m=n, edges=tuple((v, v % n + 1, Fraction(1)) for v in range(1, n + 1)))
    circuits = enumerate_circuits(net)
    assert [(c.vertices, c.weight) for c in circuits] == [(tuple(range(1, n + 1)), Fraction(n))]
    assert separated_check(net)


def test_trace_recursion_coefficients_dominated_by_disjoint_families():
    # every coefficient of the trace recursion is at most the best
    # vertex-disjoint family weight of that total length (walk multisets
    # include the disjoint families)
    rng = random.Random(20240829)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n)
        net = network_from_matrix(a)
        poly = charpoly_flv(a)
        for j in range(1, n + 1):
            families = enumerate_extended_circuits(net, j)
            bound = MinPlusValue(min(f.weight for f in families)) if families else EPSILON
            assert poly.coeffs[j] <= bound


def test_separated_factorization_three_loops():
    report = verify_separated_factorization(diag(1, 2, 3))
    assert report.hypothesis_met
    assert report.passed
    predicted = report.details[0]["predicted"]
    assert predicted == {
        "factors": [
            {"root": 1, "multiplicity": 1},
            {"root": 2, "multiplicity": 1},
            {"root": 3, "multiplicity": 1},
        ],
        "xpower": 0,
    }


def test_separated_factorization_equal_average_two_cycles():
    # two disjoint 2-cycles of average 1 merge into one homogeneous group
    a = MinPlusMatrix(
        [
            [EPS, 0, EPS, EPS],
            [2, EPS, EPS, EPS],
            [EPS, EPS, EPS, 3],
            [EPS, EPS, -1, EPS],
        ]
    )
    report = verify_separated_factorization(a)
    assert report.hypothesis_met and report.passed
    assert report.details[0]["predicted"] == {
        "factors": [{"root": 1, "multiplicity": 4}],
        "xpower": 0,
    }
    assert factorize(charpoly_tropdet(a)).factors == ((MinPlusValue(1), 4),)


def test_separated_factorization_hypothesis_not_met(example7):
    report = verify_separated_factorization(example7)
    assert report.hypothesis_met is False
    assert report.passed  # vacuous: nothing asserted


def test_corollary_on_example7(example7):
    report = verify_corollary_equivalence(example7)
    assert report.hypothesis_met is False
    assert report.passed  # recorded only
    assert report.details[0]["equivalent"] is False
    # the second-smallest roots differ: 14 for the tropdet polynomial, 3 for
    # the trace recursion
    g_roots = factorize(charpoly_tropdet(example7)).factors
    gh_roots = factorize(charpoly_flv(example7)).factors
    assert g_roots[1][0] == MinPlusValue(14)
    assert gh_roots[1][0] == MinPlusValue(3)


def test_corollary_on_full_cycle():
    rng = random.Random(20240827)
    for _ in range(10):
        n = rng.randint(2, 5)
        weights = [Fraction(rng.randint(-5, 9)) for _ in range(n)]
        rows = [[EPS] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = weights[i]
        a = MinPlusMatrix(rows)
        report = verify_corollary_equivalence(a)
        assert report.hypothesis_met and report.passed
        assert is_equivalent(charpoly_tropdet(a), charpoly_flv(a))


def test_corollary_fails_on_distinct_average_loops():
    # Separated network, yet the polynomials differ as functions: the trace
    # recursion can reuse the cheap loop (coefficient 2 at length 2), while
    # disjoint circuit families must mix in the expensive one (3). The
    # claimed equivalence under separation is therefore not a theorem; the
    # report records the honest outcome.
    a = diag(1, 2)
    report = verify_corollary_equivalence(a)
    assert report.hypothesis_met is True
    assert report.details[0]["equivalent"] is False
    assert report.passed is False
    assert factorize(charpoly_tropdet(a)).factors == (
        (MinPlusValue(1), 1),
        (MinPlusValue(2), 1),
    )
    assert factorize(charpoly_flv(a)).factors == ((MinPlusValue(1), 2),)


def test_planted_instances_are_separated_and_factor_as_predicted():
    rng = random.Random(20240828)
    for _ in range(40):
        n = rng.randint(1, 8)
        matrix, planted = plant_separated_instance(rng, n)
        net = network_from_matrix(matrix)
        circuits = enumerate_circuits(net)
        # exactly the planted cycles, nothing else
        expected = sorted(
            (min_rotation(cycle), sum(weights, Fraction(0)))
            for cycle, weights in planted
        )
        assert sorted((c.vertices, c.weight) for c in circuits) == expected
        assert separated_check(net)
        assert verify_separated_factorization(matrix).passed

        # distinct roots are exactly the homogeneous averages, in order
        groups = {}
        for cycle, weights in planted:
            avg = Fraction(sum(weights), len(cycle))
            groups[avg] = groups.get(avg, 0) + len(cycle)
        factors = factorize(charpoly_tropdet(matrix)).factors
        assert [(root.rational, mult) for root, mult in factors] == sorted(groups.items())


def min_rotation(cycle):
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]
