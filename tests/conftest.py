"""Shared fixtures and random-instance helpers."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from minplus import MinPlusMatrix, parse_matrix

try:
    from hypothesis import strategies as st
except ImportError:  # the modules that draw from its strategies skip themselves
    st = None

# The 7x7 worked example used throughout: a sparse matrix whose network has
# one loop, one 2-cycle, one 3-cycle, and one 4-cycle, and whose two
# characteristic polynomials differ beyond the minimum root.
EXAMPLE_7X7_TEXT = "\n".join(
    [
        "inf inf 2 inf inf inf inf",
        "3 inf inf 2 inf inf inf",
        "inf 1 3 9 1 inf inf",
        "inf 6 inf inf inf 2 inf",
        "inf inf inf inf inf 2 1",
        "inf inf inf inf inf inf 1",
        "inf inf inf inf inf inf inf",
    ]
)


@pytest.fixture
def example7() -> MinPlusMatrix:
    return parse_matrix(EXAMPLE_7X7_TEXT)


def dense_ints(a: MinPlusMatrix) -> tuple[tuple[int | None, ...], ...]:
    """a's entries times its D as ints, None for ε, read off ``a.rows``:
    the dense rows that the test oracles work on."""
    return tuple(tuple(None if x.is_epsilon else int(x.rational * a._d) for x in row) for row in a.rows)


def _cyclic_arrangements(subset):
    """All distinct cyclic orders of a vertex subset, smallest vertex first."""
    first, *rest = sorted(subset)
    if not rest:
        yield (first,)
        return
    for tail in permutations(rest):
        yield (first,) + tail


def bruteforce_circuits(net):
    """Independent oracle of a network's circuits: every cyclic vertex
    arrangement tested against the edge set, as (vertices, weight) sorted
    by (length, vertices)."""
    weight_of = {(t, h): w for t, h, w in net.edges}
    found = []
    vertices = range(1, net.m + 1)
    for size in range(1, net.m + 1):
        for subset in combinations(vertices, size):
            for arrangement in _cyclic_arrangements(subset):
                pairs = [(arrangement[i], arrangement[(i + 1) % size]) for i in range(size)]
                if all(pair in weight_of for pair in pairs):
                    total = sum((weight_of[p] for p in pairs), Fraction(0))
                    found.append((arrangement, total))
    return sorted(found, key=lambda item: (len(item[0]), item[0]))


def random_entry(rng, allow_fractions=True):
    """A random finite value: usually an integer, sometimes a fraction."""
    if allow_fractions and rng.random() < 0.2:
        return Fraction(rng.randint(-18, 40), rng.randint(2, 6))
    return Fraction(rng.randint(-9, 20))


def random_matrix(rng, n, density=None, allow_fractions=True) -> MinPlusMatrix:
    """Random n-by-n matrix with the given finite-entry density."""
    if density is None:
        density = 0.3 + 0.7 * rng.random()
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < density:
                row.append(random_entry(rng, allow_fractions))
            else:
                row.append(None)
        rows.append(tuple(row))
    return MinPlusMatrix(tuple(rows))


if st is not None:

    @st.composite
    def composed_matrix(draw, max_blocks, max_block_order=6):
        """(matrix, blocks): random blocks of order at most max_block_order,
        each with its own drawn share of ε, joined by edges from earlier to
        later blocks only, so that every circuit lies inside one block, with
        the vertices shuffled. The blocks come back as matrices of their own.

        The number of blocks is drawn; their orders and shares of ε, the
        entries, the joining edges and the shuffle come from one drawn
        seed, so that orders in the hundreds stay cheap to draw."""
        count = draw(st.integers(1, max_blocks))
        rng = random.Random(draw(st.integers(0, 2**32)))
        orders = [rng.randint(1, max_block_order) for _ in range(count)]
        n = sum(orders)
        rows = [[None] * n for _ in range(n)]
        blocks, after = [], []  # after[v]: the first vertex past v's block
        for order in orders:
            start, density = len(after), rng.randint(0, 10)
            block = [[random_entry(rng) if rng.randrange(10) < density else None for _ in range(order)]
                     for _ in range(order)]
            for i, row in enumerate(block):
                rows[start + i][start : start + order] = row
            blocks.append(MinPlusMatrix(block))
            after += [start + order] * order
        for _ in range(rng.randint(0, 3 * n)):
            v = rng.randrange(n)
            if after[v] < n:
                rows[v][rng.randrange(after[v], n)] = random_entry(rng)
        order = list(range(n))
        rng.shuffle(order)
        return MinPlusMatrix([[rows[order[i]][order[j]] for j in range(n)] for i in range(n)]), blocks
