"""Differential tests of the circuit layer.

`networkx.simple_cycles` is an independent enumeration of elementary
circuits: `enumerate_circuits` and the component-based `separated_check`
are compared with it, and the subset dynamic program behind
`coefficient_check` with the exhaustive family backtracking of
`enumerate_extended_circuits`, on ε-heavy random digraphs with loops and
on planted separated instances.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

nx = pytest.importorskip("networkx")

from minplus import (
    EPSILON,
    MinPlusMatrix,
    MinPlusValue,
    coefficient_check,
    enumerate_circuits,
    enumerate_extended_circuits,
    network_from_matrix,
    plant_separated_instance,
    separated_check,
)


def instances(seed, count, max_n):
    """Every fourth a planted separated instance; the others have a drawn
    share of finite entries (loops included) of at most one half."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, max_n)
        if k % 4 == 3:
            yield plant_separated_instance(rng, n)[0]
            continue
        density = rng.uniform(0.05, 0.5)
        yield MinPlusMatrix(
            [
                [Fraction(rng.randint(-9, 20), rng.randint(1, 4)) if rng.random() < density else None for _ in range(n)]
                for _ in range(n)
            ]
        )


def networkx_circuits(net):
    """(vertex tuple rotated to its smallest vertex, weight), sorted."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(1, net.m + 1))
    graph.add_weighted_edges_from(net.edges)
    found = []
    for cycle in nx.simple_cycles(graph):
        pivot = cycle.index(min(cycle))
        cycle = tuple(cycle[pivot:] + cycle[:pivot])
        weight = sum((graph[u][v]["weight"] for u, v in zip(cycle, cycle[1:] + cycle[:1])), Fraction(0))
        found.append((cycle, weight))
    return sorted(found)


def test_circuits_match_networkx():
    for a in instances(seed=20261018, count=300, max_n=8):
        net = network_from_matrix(a)
        assert sorted((c.vertices, c.weight) for c in enumerate_circuits(net)) == networkx_circuits(net)


def test_separation_matches_networkx():
    outcomes = Counter()
    for a in instances(seed=20261019, count=300, max_n=8):
        net = network_from_matrix(a)
        on_circuits = Counter(v for cycle, _ in networkx_circuits(net) for v in cycle)
        expected = all(count == 1 for count in on_circuits.values())
        assert separated_check(net) == expected
        outcomes[expected] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_family_minima_match_backtracking():
    for a in instances(seed=20261020, count=150, max_n=7):
        net = network_from_matrix(a)
        for detail in coefficient_check(a).details:
            families = enumerate_extended_circuits(net, detail["j"])
            expected = MinPlusValue(min(f.weight for f in families)) if families else EPSILON
            assert detail["circuit_minimum"] == expected.to_json()
