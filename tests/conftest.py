"""Shared fixtures and random-instance helpers."""

from fractions import Fraction

import pytest

from minplus import MinPlusMatrix, parse_matrix

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
