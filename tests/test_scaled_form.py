"""The stored scaled-int form: every way of building an object gives one form.

A matrix or polynomial is held as its values times D as ints (None for ε)
and D, the least common multiple of the reduced denominators. The parsers
read each distinct token once and fill the rows with ints; the public
constructors coerce each value. These tests build the same matrix from its
text form, its JSON form (int, "p/q", decimal and null cells) and its
values, and the same polynomial from its JSON form and its values, on
ε-heavy inputs with denominators up to 13, and check that every kernel
sees one object.
"""

import json
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    EPSILON,
    MinPlusMatrix,
    MinPlusPolynomial,
    MinPlusValue,
    ParseError,
    breakpoints,
    canonical_charpoly_tropdet,
    canonicalize,
    charpoly_flv,
    evaluate,
    factorize,
    min_cycle_mean,
    network_from_matrix,
    parse_matrix,
    parse_polynomial,
    tropdet_assignment,
)

VALUES = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13))


def _decimal(q: Fraction) -> str | None:
    """q as an exact decimal string, when its denominator divides 10**6."""
    if 10**6 % q.denominator:
        return None
    return str(Decimal(q.numerator) / Decimal(q.denominator))


def _text_cell(draw, q):
    if q is None:
        return draw(st.sampled_from(["inf", "eps", "INF", "ε", "+inf"]))
    m = draw(st.integers(2, 4))
    forms = [f"{q.numerator}/{q.denominator}", f"{q.numerator * m}/{q.denominator * m}"]
    if q.denominator == 1:
        forms.append(str(q.numerator))
    if _decimal(q) is not None:
        forms.append(_decimal(q))
    return draw(st.sampled_from(forms))


def _json_cell(draw, q):
    if q is None:
        return draw(st.sampled_from([None, "inf", "eps"]))
    forms = [f"{q.numerator}/{q.denominator}"]
    if q.denominator == 1:
        forms.append(q.numerator)
    if _decimal(q) is not None:
        forms.append(_decimal(q))
    return draw(st.sampled_from(forms))


@st.composite
def matrix_forms(draw):
    """(values, text form, JSON form) of one matrix of order 1-9, whose
    share of ε entries is itself drawn, from none to all."""
    n = draw(st.integers(1, 9))
    finite_tenths = draw(st.integers(0, 10))
    rows = [
        [draw(VALUES) if draw(st.integers(0, 9)) < finite_tenths else None for _ in range(n)]
        for _ in range(n)
    ]
    text = "\n".join(" ".join(_text_cell(draw, q) for q in row) for row in rows) + "\n"
    obj = {"rows": [[_json_cell(draw, q) for q in row] for row in rows]}
    if draw(st.booleans()):
        obj["n"] = n
    return rows, text, json.dumps(obj)


@st.composite
def polynomial_forms(draw):
    """(values, JSON form) of one polynomial of degree 0-16 with ε runs,
    monic in most draws."""
    degree = draw(st.integers(0, 16))
    coeffs = [Fraction(0) if draw(st.integers(0, 4)) else draw(st.none() | VALUES)]
    coeffs += [draw(st.none() | VALUES) for _ in range(degree)]
    obj = {"coeffs": [_json_cell(draw, q) for q in coeffs]}
    if draw(st.booleans()):
        obj["degree"] = degree
    return coeffs, json.dumps(obj)


def _common_denominator(values):
    return lcm(*(q.denominator for q in values if q is not None))


@settings(max_examples=150, deadline=None)
@given(matrix_forms())
def test_text_json_and_values_build_one_matrix(forms):
    rows, text, json_text = forms
    from_values = MinPlusMatrix(rows)
    built = [parse_matrix(text), parse_matrix(json_text), from_values]
    expected_rows = tuple(tuple(EPSILON if q is None else MinPlusValue(q) for q in row) for row in rows)
    for a in built:
        assert a == from_values
        assert hash(a) == hash(from_values)
        assert a._d == _common_denominator(q for row in rows for q in row)
        assert a.rows == expected_rows
        assert all(x is EPSILON for row in a.rows for x in row if x.is_epsilon)
        assert MinPlusMatrix(a.rows) == a
    answers = [
        (
            tropdet_assignment(a),
            charpoly_flv(a),
            canonical_charpoly_tropdet(a),
            min_cycle_mean(network_from_matrix(a)),
        )
        for a in built
    ]
    assert answers[0] == answers[1] == answers[2]


@settings(max_examples=150, deadline=None)
@given(polynomial_forms())
def test_json_and_values_build_one_polynomial(forms):
    coeffs, json_text = forms
    from_values = MinPlusPolynomial(coeffs)
    parsed = parse_polynomial(json_text)
    assert parsed == from_values
    assert hash(parsed) == hash(from_values)
    assert parsed._d == _common_denominator(coeffs)
    assert parsed.coeffs == tuple(EPSILON if q is None else MinPlusValue(q) for q in coeffs)
    assert MinPlusPolynomial(parsed.coeffs) == parsed
    assert parsed.is_monic == (coeffs[0] == 0)
    for x in (EPSILON, MinPlusValue(0), MinPlusValue(Fraction(-7, 3))):
        assert evaluate(parsed, x) == evaluate(from_values, x)
    if parsed.is_monic:
        assert canonicalize(parsed) == canonicalize(from_values)
        assert factorize(parsed) == factorize(from_values)
        assert breakpoints(parsed) == breakpoints(from_values)


def test_bad_token_far_along_a_wide_line_keeps_its_line_and_column():
    width = 1200
    good = " ".join(str(c % 7) for c in range(width))
    bad = ["inf"] * width
    bad[999] = "1/0"  # column 1000; a second bad token and a repeat of it follow
    bad[1100] = "zz"
    bad[1150] = "1/0"
    text = "\n".join([good, good, " ".join(bad)] + [good] * (width - 3)) + "\n"
    with pytest.raises(ParseError) as err:
        parse_matrix(text)
    assert str(err.value) == "bad matrix entry '1/0' (line 3, column 1000)"
    assert (err.value.line, err.value.column) == (3, 1000)


def test_json_cells_are_typed_before_they_are_shared():
    # 1, 1.0 and true compare equal in Python; only the int is a value
    with pytest.raises(ParseError) as err:
        parse_matrix('{"rows": [[1, 1.0], [1, 1]]}')
    assert (err.value.line, err.value.column) == (1, 2)
    assert str(err.value).startswith("bad matrix entry 1.0: floats are rejected")
    with pytest.raises(ParseError) as err:
        parse_polynomial('{"coeffs": [0, 1, true]}')
    assert str(err.value) == "bad coefficient True at index 2: booleans are not min-plus values"
    assert parse_matrix('{"rows": [[1, "1"], ["1.0", null]]}') == MinPlusMatrix([[1, 1], [1, None]])
