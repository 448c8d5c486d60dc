"""Differential tests of the per-class tropdet kernels.

Every circuit lies inside one strongly connected class, so
``charpoly_tropdet``, ``canonical_charpoly_tropdet`` and the family minima
of ``verify`` run per class and merge the results. These tests keep the
whole-matrix subset scan and the whole-graph family program as oracles, and
compare on ε-heavy matrices, block upper-triangular matrices with shuffled
labels, loops, single circuits and planted separated instances, of orders
up to 12.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    MinPlusMatrix,
    MinPlusPolynomial,
    canonical_charpoly_tropdet,
    canonicalize,
    charpoly_tropdet,
    factorize,
    network_from_matrix,
    plant_separated_instance,
)
from conftest import dense_ints
from minplus import charpoly as charpoly_module
from minplus import network
from minplus.matrix import _single_circuit

ENTRIES = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 4))


def whole_matrix_scan(a):
    """charpoly_tropdet over all 2^n subsets of the whole matrix: each
    child minor's assignment extends its parent's by one augmentation,
    with ε at the finite cost 2B+1."""
    n, ints = a.n, dense_ints(a)
    bound = sum(max((abs(w) for w in row if w is not None), default=0) for row in ints)
    rows = [[2 * bound + 1 if w is None else w for w in row] for row in ints]
    coeffs = [0] + [None] * n
    zeros = [0] * (n + 1)
    stack = [((), zeros, zeros, zeros)]
    while stack:
        subset, u, v, match = stack.pop()
        for k in range(subset[-1] + 1 if subset else 1, n + 1):
            child = subset + (k,)
            cu, cv, cm = u[:], v[:], match[:]
            cv[k] = min((rows[i - 1][k - 1] - cu[i] for i in subset), default=0)
            charpoly_module._augment(rows, child, cu, cv, cm, k)
            cost = sum(rows[cm[c] - 1][c - 1] for c in child)
            j = len(child)
            if cost <= bound and (coeffs[j] is None or cost < coeffs[j]):
                coeffs[j] = cost
            stack.append((child, cu, cv, cm))
    return MinPlusPolynomial._from_scaled(tuple(coeffs), a._d)


def whole_graph_family_minima(net):
    """The least family weight of each total length, by one subset program
    over all m vertices of the graph (see ``_component_family_minima``)."""
    succ = net._cells
    paths = {1 << u: {u: 0} for u in range(net.m)}
    minima = {}
    for s in range(1, 1 << net.m):
        ends = paths.pop(s, None)
        if ends is None:
            continue
        low = (s & -s).bit_length() - 1
        closed = None
        for v, total in ends.items():
            for u, weight in succ[v]:
                if u > low and not s >> u & 1:
                    target = paths.setdefault(s | 1 << u, {})
                    if u not in target or total + weight < target[u]:
                        target[u] = total + weight
                elif u == low and (closed is None or total + weight < closed):
                    closed = total + weight
        if closed is None:
            continue
        j = s.bit_count()
        minima[j] = min(closed, minima.get(j, closed))
        for u in range(low):
            target = paths.setdefault(s | 1 << u, {})
            if u not in target or closed < target[u]:
                target[u] = closed
    return {j: Fraction(total, net._d) for j, total in minima.items()}


@st.composite
def sparse_matrices(draw, max_n=12):
    """A random matrix with at most two finite entries in five, loops included."""
    n = draw(st.integers(1, max_n))
    finite_tenths = draw(st.integers(0, 4))
    return MinPlusMatrix(
        [[draw(ENTRIES) if draw(st.integers(0, 9)) < finite_tenths else None for _ in range(n)] for _ in range(n)]
    )


@st.composite
def block_triangular(draw, max_n=12):
    """Diagonal blocks of drawn kinds (dense at a drawn density, one
    circuit, loops alone, or none), finite entries drawn above them, and
    the labels shuffled."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    while sum(sizes) > max_n:
        sizes.pop()
    n = sum(sizes)
    rows = [[None] * n for _ in range(n)]
    start = 0
    above = draw(st.integers(0, 10))
    for size in sizes:
        kind = draw(st.sampled_from(("dense", "circuit", "loops", "none")))
        density = draw(st.integers(1, 10))
        block = range(start, start + size)
        for i in block:
            if kind == "circuit":
                rows[i][start + (i - start + 1) % size] = draw(ENTRIES)
            elif kind == "loops":
                rows[i][i] = draw(ENTRIES)
            elif kind == "dense":
                for j in block:
                    if draw(st.integers(0, 9)) < density:
                        rows[i][j] = draw(ENTRIES)
            for j in range(start + size, n):
                if draw(st.integers(0, 9)) < above:
                    rows[i][j] = draw(ENTRIES)
        start += size
    order = draw(st.permutations(range(n)))
    return MinPlusMatrix([[rows[order[i]][order[j]] for j in range(n)] for i in range(n)])


@st.composite
def planted(draw, max_n=12):
    rng = random.Random(draw(st.integers(0, 2**32)))
    return plant_separated_instance(rng, draw(st.integers(1, max_n)))[0]


INPUTS = st.one_of(sparse_matrices(), block_triangular(), planted())


def probed_orders(a):
    """The orders of the classes whose hull is probed: those not one circuit."""
    return [len(succ) for succ in a._classes if _single_circuit(succ) is None]


@settings(max_examples=150, deadline=None)
@given(INPUTS)
def test_per_class_scan_matches_whole_matrix_scan(a):
    assert charpoly_tropdet(a, cap=12) == whole_matrix_scan(a)


@settings(max_examples=150, deadline=None)
@given(INPUTS)
def test_per_class_hull_matches_canonical_whole_matrix_scan(a):
    probes = 0
    reprobe = charpoly_module._reprobe

    def counted(*args):
        nonlocal probes
        probes += 1
        return reprobe(*args)

    with mock.patch.object(charpoly_module, "_reprobe", counted):
        assert canonical_charpoly_tropdet(a) == canonicalize(whole_matrix_scan(a))
    # a class of order k takes at most k probes, and a class that is one circuit none
    assert probes <= sum(probed_orders(a))


@settings(max_examples=150, deadline=None)
@given(INPUTS)
def test_per_class_family_minima_match_whole_graph(a):
    net = network_from_matrix(a)
    assert network._family_minima(net) == whole_graph_family_minima(net)


def test_every_class_mean_is_a_root_of_the_canonical_polynomial():
    # the minimum cycle mean of each strongly connected class that holds a circuit (Karp,
    # per component) is a root of tropdet(A ⊕ x⊗I), spectral class or not: the class's
    # polynomial is a ⊗-factor of it, and its least root is the class's mean. The roots
    # come from the whole-matrix scan, which knows nothing of the classes.
    rng = random.Random(20261021)
    classes = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.uniform(0.2, 0.5)
        a = MinPlusMatrix(
            [
                [Fraction(rng.randint(-9, 20), rng.randint(1, 3)) if rng.random() < density else None for _ in range(n)]
                for _ in range(n)
            ]
        )
        roots = {root.rational for root, _ in factorize(whole_matrix_scan(a)).factors}
        for succ in a._classes:
            assert network._karp_component(succ, a._d) in roots
            classes += 1
    assert classes > 200


def test_a_long_cycle_needs_no_scan():
    # a shuffled 2000-cycle is one class and one circuit: x^2000 ⊕ W, with no subset scanned
    n = 2000
    order = list(range(n))
    random.Random(2000).shuffle(order)
    cells = [None] * n
    for k in range(n):
        cells[order[k]] = ((order[(k + 1) % n], k % 7 - 2),)
    a = MinPlusMatrix._from_scaled(tuple(cells), 1)
    total = sum(k % 7 - 2 for k in range(n))
    assert charpoly_tropdet(a, cap=1) == MinPlusPolynomial([0] + [None] * (n - 1) + [total])
    assert factorize(canonical_charpoly_tropdet(a)).factors == ((Fraction(total, n), n),)
    assert network._family_minima(network_from_matrix(a)) == {n: total}
