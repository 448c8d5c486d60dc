"""Property-based tests for the polynomial layer.

The lower hull in ``minplus.polynomial`` is a monotone chain on
LCM-scaled ints; these tests compare canonicalize, factorize, breakpoints
and evaluate with oracles written on Fractions and on the public semiring
operations, over polynomials with interior and trailing ε runs, mixed or
pairwise-coprime denominators, and near-collinear coefficients around 10¹².
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    EPSILON,
    Factorization,
    MinPlusPolynomial,
    MinPlusValue,
    breakpoints,
    canonicalize,
    eigenvalue_from_charpoly,
    evaluate,
    expand,
    factorize,
    oplus,
    otimes,
    power,
)

SMALL = st.builds(Fraction, st.integers(-200, 200), st.integers(1, 13))
# 7, 8, 9, 11 and 13 are pairwise coprime, so the scaling factor is their product.
COPRIME = st.builds(Fraction, st.integers(-10**4, 10**4), st.sampled_from((7, 8, 9, 11, 13)))


@st.composite
def coefficient_lists(draw, monic):
    """c_0..c_n with interior ε runs and a trailing ε run (None is ε)."""
    n = draw(st.integers(1, 24))
    values = draw(st.sampled_from((SMALL, COPRIME)))
    coeffs = [Fraction(0) if monic else draw(st.none() | values)]
    while len(coeffs) <= n:
        if draw(st.integers(0, 5)) == 0:
            coeffs.extend([None] * draw(st.integers(1, 4)))
        else:
            coeffs.append(draw(values))
    coeffs = coeffs[: n + 1]
    trailing = draw(st.integers(0, 3))
    for j in range(max(1, n + 1 - trailing), n + 1):
        coeffs[j] = None
    return coeffs


@st.composite
def near_collinear(draw):
    """Points within 1/13 of one line of slope around 10¹², many exactly on it."""
    n = draw(st.integers(2, 20))
    slope = Fraction(draw(st.integers(-10**12, 10**12)), draw(st.integers(1, 13)))
    coeffs = [Fraction(0)]
    for j in range(1, n + 1):
        coeffs.append(j * slope + Fraction(draw(st.integers(-1, 1)), draw(st.integers(1, 13))))
    return coeffs


def polynomials(monic=True):
    lists = coefficient_lists(monic)
    if monic:
        lists = lists | near_collinear()
    return lists.map(MinPlusPolynomial)


def canonical_by_chords(p):
    """c'_j = min over finite i <= j <= k of the chord value at j; O(n³)."""
    finite = [(j, c.rational) for j, c in enumerate(p.coeffs) if not c.is_epsilon]
    out = []
    for j in range(p.degree + 1):
        chords = [
            ci if i == k else ci + (j - i) * (ck - ci) / (k - i)
            for i, ci in finite
            for k, ck in finite
            if i <= j <= k
        ]
        out.append(min(chords) if chords else None)
    return MinPlusPolynomial(out)


def evaluate_literal(p, x):
    n = p.degree
    best = EPSILON
    for j, c in enumerate(p.coeffs):
        best = oplus(best, otimes(c, power(x, n - j)))
    return best


def probe_points(p):
    """Breakpoints, midpoints between them, and a point on each outer ray."""
    xs = [x for x, _, _, _ in breakpoints(p)]
    if not xs:
        return [Fraction(-1), Fraction(0), Fraction(1)]
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    return [xs[0] - 1, *xs, *mids, xs[-1] + 1]


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_canonicalize_matches_chord_oracle(p):
    assert canonicalize(p) == canonical_by_chords(p)


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_expand_factorize_round_trip_and_idempotence(p):
    canon = canonicalize(p)
    assert expand(factorize(canon)) == canon
    assert factorize(p) == factorize(canon)
    assert canonicalize(canon) == canon


@settings(max_examples=200, deadline=None)
@given(polynomials(monic=False), SMALL)
def test_evaluate_matches_literal_definition(p, extra):
    for x in [*probe_points(p), extra, EPSILON]:
        assert evaluate(p, x) == evaluate_literal(p, MinPlusValue(x))


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_breakpoint_slopes_match_factorization(p):
    f = factorize(p)
    points = breakpoints(p)
    assert [MinPlusValue(x) for x, _, _, _ in points] == [root for root, _ in f.factors]
    assert [left - right for _, _, left, right in points] == [mult for _, mult in f.factors]
    slopes = [p.degree] + [right for _, _, _, right in points]
    assert slopes[-1] == f.xpower
    assert all(left == slope for (_, _, left, _), slope in zip(points, slopes))
    for x, y, _, _ in points:
        assert evaluate(p, x) == MinPlusValue(y)
    # the constructor takes factorize's factors back as they are
    assert f == Factorization(factors=f.factors, xpower=f.xpower)
    # the least root is min over the finite c_j, j >= 1, of c_j / j
    quotients = [c.rational / j for j, c in enumerate(p.coeffs) if j and not c.is_epsilon]
    assert eigenvalue_from_charpoly(p) == MinPlusValue(min(quotients, default=None))


def test_degree_50000_all_corners():
    # distinct roots: every point of the expanded sequence is a hull corner
    rng = random.Random(50000)
    distinct = set()
    while len(distinct) < 50000:
        distinct.add(Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 13)))
    roots = sorted(distinct)
    coeffs = [Fraction(0)]
    for r in roots:
        coeffs.append(coeffs[-1] + r)
    f = factorize(MinPlusPolynomial(coeffs))
    assert f.xpower == 0
    assert f.factors == tuple((MinPlusValue(r), 1) for r in roots)
