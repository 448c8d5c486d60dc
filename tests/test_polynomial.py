import json
import random
from fractions import Fraction

import pytest

from minplus import (
    EPSILON,
    E,
    Factorization,
    MinPlusPolynomial,
    MinPlusValue,
    ParseError,
    breakpoints,
    canonicalize,
    evaluate,
    expand,
    factorize,
    format_factorization,
    format_polynomial,
    is_equivalent,
    parse_polynomial,
)

EPS = None


def P(coeffs):
    return MinPlusPolynomial(coeffs)


# x^2 ⊕ 2⊗x ⊕ 6, the running factorization example
QUAD = P([0, 2, 6])


def test_evaluate():
    assert evaluate(QUAD, 3) == MinPlusValue(5)
    assert evaluate(QUAD, 2) == MinPlusValue(4)
    assert evaluate(QUAD, EPSILON) == MinPlusValue(6)
    assert evaluate(P([0, EPS, EPS]), EPSILON) == EPSILON
    assert evaluate(QUAD, Fraction(1, 2)) == MinPlusValue(1)


def test_canonicalize_hand_run_sparse():
    p = P([0, 3, 8, 6, 20, EPS, EPS, EPS])
    assert canonicalize(p).coeffs == P([0, 2, 4, 6, 20, EPS, EPS, EPS]).coeffs


def test_canonicalize_hand_run_tie_break():
    # slope 2 is attained at indices 3 and 6; taking the farthest keeps the
    # difference chain non-decreasing
    p = P([0, 3, 6, 6, 9, 12, 12, 15])
    assert canonicalize(p).coeffs == P([0, 2, 4, 6, 8, 10, 12, 15]).coeffs


def test_canonicalize_fixed_point():
    p = P([0, 1, 3, 6])
    assert canonicalize(p) == p
    assert canonicalize(canonicalize(QUAD)) == canonicalize(QUAD)


def test_canonicalize_interpolates_over_epsilon_gaps():
    p = P([0, EPS, 4])
    assert canonicalize(p).coeffs == P([0, 2, 4]).coeffs


def test_canonicalize_requires_monic():
    with pytest.raises(ValueError, match="monic"):
        canonicalize(P([1, 2, 3]))
    with pytest.raises(ValueError, match="monic"):
        canonicalize(P([EPS, 2, 3]))


def test_is_equivalent():
    assert is_equivalent(QUAD, expand(factorize(QUAD)))
    assert is_equivalent(QUAD, QUAD)
    assert is_equivalent(P([0, 0, 0]), P([0, 1, 0]))
    assert not is_equivalent(QUAD, P([0, 2, 7]))
    assert not is_equivalent(P([0, 1]), P([0, 1, 2]))


def test_factorize_examples():
    f = factorize(QUAD)
    assert f.factors == ((MinPlusValue(2), 1), (MinPlusValue(4), 1))
    assert f.xpower == 0

    f = factorize(P([0, 3, 8, 6, 20, EPS, EPS, EPS]))
    assert f.factors == ((MinPlusValue(2), 3), (MinPlusValue(14), 1))
    assert f.xpower == 3

    f = factorize(P([0, 3, 6, 6, 9, 12, 12, 15]))
    assert f.factors == ((MinPlusValue(2), 6), (MinPlusValue(3), 1))
    assert f.xpower == 0


def test_factorize_pure_power_of_x():
    f = factorize(P([0, EPS, EPS, EPS]))
    assert f.factors == ()
    assert f.xpower == 3


def test_expand_examples():
    f = Factorization(factors=((MinPlusValue(2), 1), (MinPlusValue(4), 1)), xpower=0)
    assert expand(f) == QUAD

    f = Factorization(factors=(), xpower=4)
    assert expand(f).coeffs == P([0, EPS, EPS, EPS, EPS]).coeffs

    f = Factorization(factors=((MinPlusValue(2), 3), (MinPlusValue(14), 1)), xpower=3)
    assert expand(f).coeffs == P([0, 2, 4, 6, 20, EPS, EPS, EPS]).coeffs

    # roots of mixed denominators, against the sums of the j least roots on Fractions
    for factors, xpower in [
        (((Fraction(-5, 4), 5), (Fraction(1, 2), 2), (Fraction(2, 3), 3)), 2),
        (((Fraction(-7, 3), 1), (Fraction(-5, 4), 4), (Fraction(2, 3), 5), (Fraction(9, 10), 2)), 0),
        (((Fraction(1, 2), 5), (Fraction(3, 2), 5)), 4),
    ]:
        roots = [root for root, mult in factors for _ in range(mult)]
        reference = [sum(roots[:j], Fraction(0)) for j in range(len(roots) + 1)] + [EPS] * xpower
        f = Factorization(factors=tuple((MinPlusValue(root), mult) for root, mult in factors), xpower=xpower)
        assert expand(f) == P(reference)
        assert expand(f).coeffs == P(reference).coeffs
        assert factorize(expand(f)) == f


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(factors=((MinPlusValue(4), 1), (MinPlusValue(2), 1)), xpower=0)
    with pytest.raises(ValueError):
        Factorization(factors=((MinPlusValue(2), 0),), xpower=0)
    with pytest.raises(ValueError):
        Factorization(factors=((EPSILON, 1),), xpower=0)
    with pytest.raises(ValueError):
        Factorization(factors=(), xpower=-1)
    # a multiplicity and the x-power are counts: ints, never bools
    for mult in (1.5, 1.0, True, Fraction(1), "1"):
        with pytest.raises(TypeError, match="multiplicities"):
            Factorization(factors=((MinPlusValue(1), mult),), xpower=0)
    for xpower in (0.0, True, False, Fraction(1, 2), None):
        with pytest.raises(TypeError, match="x-power"):
            Factorization(factors=(), xpower=xpower)
    # equal roots, in any of their forms, a negative multiplicity and a float root
    for roots in ((MinPlusValue(2), MinPlusValue(2)), (2, "2"), ("1/2", Fraction(1, 2))):
        with pytest.raises(ValueError, match="strictly increasing"):
            Factorization(factors=tuple((root, 1) for root in roots), xpower=0)
    with pytest.raises(ValueError, match="positive"):
        Factorization(factors=((MinPlusValue(1), -2),), xpower=0)
    with pytest.raises(TypeError, match="floats"):
        Factorization(factors=((1.5, 1),), xpower=0)
    # int and "p/q" roots are coerced to min-plus values
    f = Factorization(factors=((-3, 2), ("1/2", 1), ("7/3", 1)), xpower=1)
    assert all(root.__class__ is MinPlusValue for root, _ in f.factors)
    assert f.factors == ((MinPlusValue(-3), 2), (MinPlusValue(Fraction(1, 2)), 1), (MinPlusValue(Fraction(7, 3)), 1))


def test_breakpoints():
    assert breakpoints(QUAD) == [
        (Fraction(2), Fraction(4), 2, 1),
        (Fraction(4), Fraction(6), 1, 0),
    ]
    assert breakpoints(P([0, EPS, EPS, EPS])) == []
    got = breakpoints(P([0, 3, 6, 6, 9, 12, 12, 15]))
    assert [(x, sl, sr) for x, _, sl, sr in got] == [(2, 7, 1), (3, 1, 0)]


def test_parse_polynomial():
    p = parse_polynomial('{"degree": 2, "coeffs": [0, "inf", "7/2"]}')
    assert p.coeffs == P([0, EPS, Fraction(7, 2)]).coeffs
    assert parse_polynomial(json.dumps(p.to_json())) == p
    with pytest.raises(ParseError):
        parse_polynomial('{"degree": 3, "coeffs": [0, 1]}')
    with pytest.raises(ParseError):
        parse_polynomial('{"coeffs": []}')
    # "degree" is a count: a bool, float or string is refused, even when it matches
    for degree in ("true", "1.0", '"1"', "null"):
        with pytest.raises(ParseError, match='"degree" must be an integer'):
            parse_polynomial(f'{{"degree": {degree}, "coeffs": [0, 1]}}')


def test_formatting():
    assert format_polynomial(QUAD) == "x^2 ⊕ 2⊗x ⊕ 6"
    assert format_polynomial(P([0, EPS, EPS, EPS])) == "x^3"
    assert format_factorization(factorize(P([0, 3, 8, 6, 20, EPS, EPS, EPS]))) == (
        "(x ⊕ 2)^3 ⊗ (x ⊕ 14) ⊗ x^3"
    )
    assert format_factorization(Factorization(factors=(), xpower=1)) == "x"


def _random_polynomial(rng, max_degree=8):
    n = rng.randint(1, max_degree)
    coeffs = [E]
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            coeffs.append(EPSILON)
        elif roll < 0.45:
            coeffs.append(MinPlusValue(Fraction(rng.randint(-20, 35), rng.randint(2, 6))))
        else:
            coeffs.append(MinPlusValue(rng.randint(-15, 25)))
    return MinPlusPolynomial(tuple(coeffs))


def _sample_grid(p, q):
    """Breakpoint x-coordinates of both, midpoints, and outer ray probes."""
    xs = sorted({pt[0] for pt in breakpoints(p)} | {pt[0] for pt in breakpoints(q)})
    if not xs:
        return [Fraction(-1), Fraction(0), Fraction(1)]
    grid = set(xs)
    for left, right in zip(xs, xs[1:]):
        grid.add((left + right) / 2)
    grid.add(xs[0] - 1)
    grid.add(xs[-1] + 1)
    return sorted(grid)


def test_canonicalize_properties_random():
    rng = random.Random(20240818)
    for _ in range(250):
        p = _random_polynomial(rng)
        canon = canonicalize(p)
        assert canon.degree == p.degree

        # same piecewise-linear function on a grid covering every breakpoint
        for x in _sample_grid(p, canon):
            assert evaluate(p, MinPlusValue(x)) == evaluate(canon, MinPlusValue(x))
        assert evaluate(p, EPSILON) == evaluate(canon, EPSILON)

        # non-decreasing difference chain over the finite prefix
        finite = [c.rational for c in canon.coeffs if not c.is_epsilon]
        diffs = [b - a for a, b in zip(finite, finite[1:])]
        assert all(d1 <= d2 for d1, d2 in zip(diffs, diffs[1:]))

        # ε only as a trailing block in canonical form
        tail = [c.is_epsilon for c in canon.coeffs]
        if True in tail:
            assert all(tail[tail.index(True):])

        # round trip and idempotence
        f = factorize(p)
        assert sum(m for _, m in f.factors) + f.xpower == p.degree
        assert expand(f) == canon
        assert canonicalize(canon) == canon
