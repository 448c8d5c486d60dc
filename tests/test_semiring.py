import json
import random
import re
from fractions import Fraction

import pytest

from minplus import (
    E,
    EPSILON,
    MinPlusValue,
    ParseError,
    oplus,
    parse_matrix,
    parse_polynomial,
    otimes,
    otimes_inverse,
    parse_value,
    power,
)


def test_oplus_is_minimum():
    assert oplus(2, 3) == MinPlusValue(2)
    assert oplus(5, 5) == MinPlusValue(5)
    assert oplus(Fraction(1, 3), Fraction(1, 2)) == MinPlusValue(Fraction(1, 3))


def test_oplus_epsilon_is_identity():
    for a in (MinPlusValue(-4), MinPlusValue(Fraction(7, 2)), EPSILON):
        assert oplus(a, EPSILON) == a
        assert oplus(EPSILON, a) == a


def test_otimes_is_addition():
    assert otimes(2, 3) == MinPlusValue(5)
    assert otimes(Fraction(1, 2), Fraction(1, 3)) == MinPlusValue(Fraction(5, 6))


def test_otimes_identity_and_absorbing():
    for a in (MinPlusValue(9), MinPlusValue(Fraction(-3, 4))):
        assert otimes(a, E) == a
        assert otimes(a, EPSILON) == EPSILON
    assert otimes(EPSILON, EPSILON) == EPSILON


def test_otimes_inverse():
    assert otimes_inverse(3) == MinPlusValue(-3)
    assert otimes_inverse(0) == E
    assert otimes_inverse(Fraction(-7, 2)) == MinPlusValue(Fraction(7, 2))
    assert otimes(MinPlusValue(5), otimes_inverse(5)) == E


def test_otimes_inverse_rejects_epsilon():
    with pytest.raises(ValueError, match="inverse"):
        otimes_inverse(EPSILON)


def test_power():
    assert power(2, 3) == MinPlusValue(6)
    assert power(MinPlusValue(Fraction(1, 2)), 4) == MinPlusValue(2)
    assert power(7, 0) == E
    assert power(EPSILON, 0) == E
    assert power(EPSILON, 2) == EPSILON


def test_power_rejects_negative_exponent():
    with pytest.raises(ValueError, match="exponent must be nonnegative, got -1"):
        power(2, -1)
    # a bool is not an exponent, as it is not a value
    for k in (True, False, 1.0, Fraction(2)):
        with pytest.raises(TypeError, match=f"exponent must be an int, not {re.escape(repr(k))}"):
            power(3, k)


def test_ordering_epsilon_on_top():
    assert MinPlusValue(100) < EPSILON
    assert not EPSILON < MinPlusValue(100)
    assert EPSILON <= EPSILON
    assert sorted([EPSILON, MinPlusValue(3), MinPlusValue(-1)]) == [
        MinPlusValue(-1),
        MinPlusValue(3),
        EPSILON,
    ]


def test_parse_and_str_round_trip():
    assert parse_value("7/2").rational == Fraction(7, 2)
    assert parse_value("1.25").rational == Fraction(5, 4)
    assert parse_value("-3").rational == -3
    for token in ("inf", "eps", "epsilon", "ε", "INF"):
        assert parse_value(token).is_epsilon
    assert str(EPSILON) == "inf"
    assert str(MinPlusValue(Fraction(7, 2))) == "7/2"
    assert str(MinPlusValue(-5)) == "-5"
    assert EPSILON.to_json() == "inf"
    assert MinPlusValue(4).to_json() == 4
    assert MinPlusValue(Fraction(1, 3)).to_json() == "1/3"


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_value("1/0")
    with pytest.raises(ParseError):
        parse_value("abc")


@pytest.mark.parametrize("token", ["1_000", "1_0/3", "2/1_0", "2_5/2", "1e1_0", "-1_5.5", "_1", "1_"])
def test_digit_separators_are_not_min_plus_values(token):
    # Fraction reads "_" separators on Python 3.11 and later only; the token language has none on any version
    with pytest.raises(ParseError, match="not a min-plus value"):
        parse_value(token)
    with pytest.raises(ParseError) as err:
        parse_matrix(f"0 inf\ninf {token}\n")
    assert str(err.value) == f"bad matrix entry {token!r} (line 2, column 2)"
    assert (err.value.line, err.value.column) == (2, 2)
    with pytest.raises(ParseError) as err:
        parse_matrix(json.dumps({"rows": [[0, "inf"], ["inf", token]]}))
    assert str(err.value) == f"bad matrix entry {token!r}: not a min-plus value: {token!r} (line 2, column 2)"
    with pytest.raises(ParseError) as err:
        parse_polynomial(json.dumps({"coeffs": [0, token]}))
    assert str(err.value) == f"bad coefficient {token!r} at index 1: not a min-plus value: {token!r}"


def test_float_inputs_rejected():
    with pytest.raises(TypeError):
        MinPlusValue(0.1)


def test_equality_with_unparsable_string_is_false():
    assert not (MinPlusValue(1) == "abc")
    assert MinPlusValue(1) != "abc"
    assert EPSILON != "1/0"
    assert MinPlusValue(1) == "1"


def test_rational_accessor_on_epsilon():
    with pytest.raises(ValueError):
        EPSILON.rational


def _random_value(rng):
    if rng.random() < 0.2:
        return EPSILON
    if rng.random() < 0.3:
        return MinPlusValue(Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
    return MinPlusValue(rng.randint(-20, 20))


def test_semiring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert oplus(a, b) == oplus(b, a)
        assert otimes(a, b) == otimes(b, a)
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))
        assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))
        assert oplus(a, a) == a
        assert oplus(a, EPSILON) == a
        assert otimes(a, E) == a
        assert otimes(a, EPSILON) == EPSILON
