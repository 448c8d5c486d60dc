"""Property-based and differential tests for the characteristic polynomials.

The kernels in ``minplus.charpoly`` run on LCM-scaled ints; these tests
compare them with oracles written on the public min-plus value and matrix
operations, compare the circuit-family program with ``verify``'s
row-by-row expansion of tropdet(C ⊕ x⊗I) and with one from-scratch solve
per minor, check that expansion against every permutation of every minor, compare
the parametric-assignment hull with the canonical form of
``charpoly_tropdet`` and with probing by from-scratch solves, and
check metamorphic identities of both polynomials on ε-heavy matrices
with mixed denominators.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    EPSILON,
    E,
    MinPlusMatrix,
    MinPlusPolynomial,
    MinPlusValue,
    canonical_charpoly_tropdet,
    canonicalize,
    charpoly_flv,
    charpoly_tropdet,
    epsilon_matrix,
    mat_oplus,
    mat_otimes,
    scalar_otimes,
    trace,
    tropdet_assignment,
    tropdet_bruteforce,
)
from minplus import charpoly as charpoly_module
from minplus import network
from minplus.matrix import _single_circuit

from conftest import dense_ints, random_matrix

# Denominators 1..13 make the scaling factor D (their LCM) as large as 360360.
ENTRIES = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13))
# Few distinct small values: many principal minors tie, so many points (j, c_j) are collinear.
TIED_ENTRIES = st.builds(Fraction, st.integers(-2, 2))
# Magnitudes far past any fixed stand-in for ε: no kernel may treat a large finite sum as ε.
HUGE_ENTRIES = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 13))


@st.composite
def matrices(draw, max_n, entries=ENTRIES):
    """A random matrix whose share of ε entries is itself drawn, from none to all."""
    n = draw(st.integers(1, max_n))
    finite_tenths = draw(st.integers(0, 10))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            finite = draw(st.integers(0, 9)) < finite_tenths
            row.append(draw(entries) if finite else None)
        rows.append(row)
    return MinPlusMatrix(rows)


def flv_by_definition(a):
    """c_k = Tr(A^k ⊕ c_1⊗A^{k-1} ⊕ ... ⊕ c_{k-1}⊗A), literally, on matrices."""
    powers = [None, a]
    for _ in range(2, a.n + 1):
        powers.append(mat_otimes(powers[-1], a))
    coeffs = [E]
    for k in range(1, a.n + 1):
        acc = powers[k]
        for i in range(1, k):
            acc = mat_oplus(acc, scalar_otimes(coeffs[i], powers[k - i]))
        coeffs.append(trace(acc))
    return tuple(coeffs)


def tropdet_by_definition(a, indices):
    """min over permutations σ of the subset of ⊗_i a[i, σ(i)]: every permutation's
    sum of a's entries times D (``dense_ints``), cut at its first ε, and the least
    sum divided by D once."""
    rows = dense_ints(a)
    best = None
    for sigma in permutations(indices):
        total = 0
        for i, j in zip(indices, sigma):
            if rows[i][j] is None:
                break
            total += rows[i][j]
        else:
            if best is None or total < best:
                best = total
    return EPSILON if best is None else MinPlusValue(Fraction(best, a._d))


def tropdet_charpoly_by_definition(a):
    coeffs = [E]
    for j in range(1, a.n + 1):
        coeffs.append(min(tropdet_by_definition(a, s) for s in combinations(range(a.n), j)))
    return tuple(coeffs)


@st.composite
def uncoverable_matrices(draw, max_n):
    """A random matrix with an all-ε row: no cycle family covers every vertex, so x^r has r > 0."""
    a = draw(matrices(max_n))
    blank = draw(st.integers(0, a.n - 1))
    return MinPlusMatrix([[None if i == blank else x for x in row] for i, row in enumerate(a.rows)])


@st.composite
def blanked_matrices(draw, max_n):
    """A random matrix with a drawn set of rows and a drawn set of columns made all-ε."""
    a = draw(matrices(max_n))
    rows = draw(st.sets(st.integers(0, a.n - 1)))
    cols = draw(st.sets(st.integers(0, a.n - 1)))
    return MinPlusMatrix([[None if i in rows or j in cols else a[i, j] for j in range(a.n)] for i in range(a.n)])


def charpoly_tropdet_from_scratch(a):
    """c_j from one from-scratch assignment solve per j-by-j principal minor."""
    rows = dense_ints(a)
    coeffs = [E]
    for j in range(1, a.n + 1):
        best = EPSILON
        for s in combinations(range(a.n), j):
            solved = charpoly_module._assignment([[rows[r][c] for c in s] for r in s])
            if solved is not None:
                best = min(best, MinPlusValue(Fraction(solved[0], a._d)))
        coeffs.append(best)
    return tuple(coeffs)


def hull_by_scan(a):
    return canonicalize(charpoly_tropdet(a))


def hull_from_scratch(a):
    """The parametric hull with one from-scratch assignment solve per probe.

    The same Eisner–Severance probing as ``canonical_charpoly_tropdet``,
    without its shared state or its skipped probes: the probe at X = p/q
    solves the assignment problem on q·A with min(q·a_ii, p) on the diagonal.
    """
    n = a.n
    rows = dense_ints(a)

    def probe(p, q):
        scaled = [[None if w is None else q * w for w in row] for row in rows]
        took_x = []
        for i, row in enumerate(scaled):
            if row[i] is None or row[i] > p:
                row[i] = p
                took_x.append(i)
        cost, match = charpoly_module._assignment(scaled)
        k = sum(match[i + 1] == i + 1 for i in took_x)
        return cost, n - k, (cost - k * p) // q

    reach = 2 * n * max((abs(w) for row in rows for w in row if w is not None), default=0) + 1
    _, r, c_r = probe(reach, 1)
    points = {0: 0, r: c_r}
    pending = [(0, r)] if r else []
    while pending:
        i, k = pending.pop()
        p, q = points[k] - points[i], k - i
        cost, j, c_j = probe(p, q)
        if cost < q * points[i] + (n - i) * p:
            points[j] = c_j
            pending += [(i, j), (j, k)]
    return canonicalize(MinPlusPolynomial._from_scaled(tuple(points.get(j) for j in range(n + 1)), a._d))


def hull_by_probes(a):
    """canonical_charpoly_tropdet(a), failing as soon as it takes more than 2n+1
    probes, or more than n augmentations in one probe."""
    reprobe, augment = charpoly_module._reprobe, charpoly_module._augment
    probes = augments = 0

    def counted_reprobe(*args):
        nonlocal probes, augments
        probes += 1
        assert probes <= 2 * a.n + 1, "more than 2n+1 probes"
        augments = 0
        return reprobe(*args)

    def counted_augment(*args):
        nonlocal augments
        augments += 1
        assert augments <= a.n, "more than n augmentations in one probe"
        return augment(*args)

    with mock.patch.multiple(charpoly_module, _reprobe=counted_reprobe, _augment=counted_augment):
        return canonical_charpoly_tropdet(a)


def both(a):
    return charpoly_tropdet(a).coeffs, charpoly_flv(a).coeffs


def permuted(a, p):
    return MinPlusMatrix([[a[p[i], p[j]] for j in range(a.n)] for i in range(a.n)])


def transposed(a):
    return MinPlusMatrix([[a[j, i] for j in range(a.n)] for i in range(a.n)])


def mapped(a, f):
    return MinPlusMatrix([[x if x.is_epsilon else MinPlusValue(f(x.rational)) for x in row] for row in a.rows])


def mapped_coeffs(coeffs, f):
    return tuple(c if c.is_epsilon else MinPlusValue(f(j, c.rational)) for j, c in enumerate(coeffs))


@settings(max_examples=150, deadline=None)
@given(matrices(max_n=8))
def test_flv_matches_literal_trace_definition(a):
    assert charpoly_flv(a).coeffs == flv_by_definition(a)


@settings(max_examples=60, deadline=None)
@given(matrices(max_n=5))
def test_tropdet_charpoly_matches_literal_definition(a):
    assert charpoly_tropdet(a).coeffs == tropdet_charpoly_by_definition(a)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        matrices(max_n=10),
        matrices(max_n=10, entries=TIED_ENTRIES),
        matrices(max_n=10, entries=HUGE_ENTRIES),
        uncoverable_matrices(max_n=10),
    )
)
def test_subset_scan_matches_from_scratch_solves(a):
    # the circuit-family program against one from-scratch assignment solve per principal minor
    assert charpoly_tropdet(a).coeffs == charpoly_tropdet_from_scratch(a)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        matrices(max_n=10),
        matrices(max_n=10, entries=TIED_ENTRIES),
        matrices(max_n=10, entries=HUGE_ENTRIES),
        blanked_matrices(max_n=10),
    )
)
def test_scan_oracle_matches_circuit_families_per_class(a):
    # verify's oracle, tropdet(C ⊕ x⊗I) expanded row by row, against the production program
    # over the class's vertex subsets, on every class of the matrix
    for _, cells in a._classes:
        assert network._expansion(cells) == charpoly_module._circuit_families(cells)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        matrices(max_n=6),
        matrices(max_n=6, entries=TIED_ENTRIES),
        matrices(max_n=6, entries=HUGE_ENTRIES),
        uncoverable_matrices(max_n=6),
    )
)
def test_expansion_matches_every_permutation_of_every_minor(a):
    # verify's oracle on the whole matrix's cells, against the definition itself
    minima = network._expansion(a._cells)
    coeffs = tuple(minima.get(j) for j in range(a.n + 1))
    assert MinPlusPolynomial._from_scaled(coeffs, a._d).coeffs == tropdet_charpoly_by_definition(a)


def one_circuit(start, length, weight):
    """A class that is one circuit through start..start+length-1, of total weight weight."""
    cells = tuple((((i + 1) % length, weight if i == 0 else 0),) for i in range(length))
    return tuple(range(start, start + length)), cells


def two_circuits(start, a, b, c):
    """A class of two vertices on a loop (weight a) and a 2-circuit (weights b and c)."""
    return (start, start + 1), (((0, a), (1, b)), ((0, c),))


def one_at_a_time_product(classes):
    """The classes' sequences multiplied in one class at a time."""
    product = {0: 0}
    for _, cells in classes:
        circuit = _single_circuit(cells)
        factor = {0: 0, circuit[0]: circuit[1]} if circuit else charpoly_module._circuit_families(cells)
        r = {}
        for i, x in product.items():
            for l, y in factor.items():
                if i + l not in r or x + y < r[i + l]:
                    r[i + l] = x + y
        product = r
    return product


# few (length, weight) pairs, so that identical circuits repeat; length 0 draws a class
# that is not one circuit
CLASS_KINDS = st.tuples(st.integers(0, 3), st.sampled_from((-4, -1, 0, 2, 7)), st.integers(-3, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(CLASS_KINDS, max_size=40))
def test_grouped_circuit_product_matches_one_at_a_time(kinds):
    classes, start = [], 0
    for length, weight, other in kinds:
        succ = two_circuits(start, other, weight, -other) if length == 0 else one_circuit(start, length, weight)
        classes.append(succ)
        start += len(succ[0])
    grouped = charpoly_module._class_product(classes, charpoly_module._circuit_families)
    assert grouped == one_at_a_time_product(classes)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(max_n=8), blanked_matrices(max_n=8), uncoverable_matrices(max_n=8)))
def test_bruteforce_matches_literal_definition(a):
    assert tropdet_bruteforce(a, cap=8) == tropdet_by_definition(a, range(a.n))


def test_bruteforce_at_order_12_walks_only_finite_cells():
    # finite cells on a permutation with cycles of lengths 5, 4 and 3, plus a loop at every
    # vertex: each cycle is taken whole or left to its loops, so only 2^3 of the 12!
    # permutations are finite. The cheaper side is the loops (5·-1 < 5·2), then the cycle
    # (4·-1/2 < 4·3), then a tie (3·1/3 = 3·1/3): tropdet = -5 - 2 + 1 = -6.
    sides = [
        ((0, 1, 2, 3, 4), -1, 2),
        ((5, 6, 7, 8), 3, Fraction(-1, 2)),
        ((9, 10, 11), Fraction(1, 3), Fraction(1, 3)),
    ]
    rows = [[None] * 12 for _ in range(12)]
    for cycle, loop, edge in sides:
        for i, v in enumerate(cycle):
            rows[v][v] = loop
            rows[v][cycle[(i + 1) % len(cycle)]] = edge
    a = MinPlusMatrix(rows)
    assert tropdet_bruteforce(a, cap=12) == MinPlusValue(-6) == tropdet_assignment(a)


@settings(max_examples=80, deadline=None)
@given(matrices(max_n=7))
def test_assignment_matches_bruteforce(a):
    assert tropdet_assignment(a) == tropdet_bruteforce(a)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(max_n=9), matrices(max_n=9, entries=TIED_ENTRIES), uncoverable_matrices(max_n=9)))
def test_parametric_hull_matches_canonical_subset_scan(a):
    assert hull_by_probes(a) == hull_by_scan(a)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        matrices(max_n=9),
        matrices(max_n=9, entries=TIED_ENTRIES),
        matrices(max_n=9, entries=HUGE_ENTRIES),
        uncoverable_matrices(max_n=9),
    )
)
def test_warm_hull_matches_from_scratch_probing(a):
    # one kept assignment, re-augmented on the rows each probe unsettles, against a solve per probe
    assert hull_by_probes(a) == hull_from_scratch(a)


@pytest.mark.parametrize("n", [10, 12, 16, 20, 24, 32, 48, 64])
def test_warm_hull_matches_from_scratch_probing_up_to_order_64(n):
    rng = random.Random(n)
    a = random_matrix(rng, n, density=rng.choice((0.1, 0.3, 0.6, 1.0)))
    assert hull_by_probes(a) == hull_from_scratch(a)


@pytest.mark.parametrize("n", range(1, 10))
def test_parametric_hull_start_probe_reaches_the_full_cover(n):
    # an n-cycle of +60 and loops of -60 on all but one of its vertices: c_{n-1} = -60(n-1)
    # and c_n = 60n, so only a probe past x = 60(2n-1) finds the full cover
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 60
    for i in range(n - 1):
        rows[i][i] = -60
    a = MinPlusMatrix(rows)
    assert hull_by_probes(a) == hull_by_scan(a)
    assert hull_by_probes(a).coeffs[n] == MinPlusValue(60 * n)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_all_epsilon_matrix(n):
    a = epsilon_matrix(n)
    expected = (E,) + (EPSILON,) * n
    assert both(a) == (expected, expected)
    assert hull_by_probes(a).coeffs == expected
    assert tropdet_assignment(a) == EPSILON == tropdet_bruteforce(a)


@pytest.mark.parametrize("entry", [None, 0, -4, Fraction(7, 12)])
def test_one_by_one_matrix(entry):
    a = MinPlusMatrix([[entry]])
    expected = (E, MinPlusValue(entry))
    assert both(a) == (expected, expected)
    assert hull_by_probes(a).coeffs == expected
    assert tropdet_assignment(a) == MinPlusValue(entry) == tropdet_bruteforce(a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_invariant_under_permutation_similarity(data):
    a = data.draw(matrices(max_n=6))
    p = data.draw(st.permutations(range(a.n)))
    assert both(permuted(a, p)) == both(a)


@settings(max_examples=60, deadline=None)
@given(matrices(max_n=6))
def test_invariant_under_transposition(a):
    assert both(transposed(a)) == both(a)


@settings(max_examples=60, deadline=None)
@given(matrices(max_n=6), ENTRIES)
def test_scalar_shift_adds_j_alpha(a, alpha):
    shifted = both(scalar_otimes(alpha, a))
    expected = tuple(mapped_coeffs(coeffs, lambda j, c: c + j * alpha) for coeffs in both(a))
    assert shifted == expected


@settings(max_examples=60, deadline=None)
@given(matrices(max_n=6), st.integers(1, 7))
def test_positive_integer_scaling_scales_coefficients(a, k):
    scaled = both(mapped(a, lambda x: k * x))
    expected = tuple(mapped_coeffs(coeffs, lambda j, c: k * c) for coeffs in both(a))
    assert scaled == expected
