"""Every file decoder reads a token as Fraction(token) does, except that
a "_" digit separator is refused on every Python version.

The text-matrix, JSON-matrix and polynomial decoders take ASCII
[-]digits and [-]digits/digits tokens straight to ints and every other
token through the general parse. These tests put the same tokens (signs,
leading zeros, unreduced and zero denominators, decimals, exponents on
both sides of the limit, digit strings past Python's int digit limit,
underscores, non-ASCII digits, every ε spelling, spaces around "/")
through all three and check that each gives the scaled ints and D of an
in-test reference built on Fraction, or the same ParseError at the same
place.
"""

import json
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import ParseError, parse_matrix, parse_polynomial

EPSILON_SPELLINGS = ("inf", "+inf", "infinity", "eps", "epsilon", "ε")
EXPONENT_LIMIT = 4300


def reference(token):
    """The value of a token as a Fraction, None for ε; ValueError or
    ZeroDivisionError when it is not a min-plus value."""
    if token.__class__ is int:
        return Fraction(token)
    text = token.strip()
    if text.lower() in EPSILON_SPELLINGS:
        return None
    if "_" in text:
        raise ValueError("digit separator")
    _, marker, exponent = text.lower().partition("e")
    if marker and abs(int(exponent)) > EXPONENT_LIMIT:
        raise ValueError("exponent too large")
    return Fraction(text)


def _signed(draw, magnitude: str) -> str:
    return draw(st.sampled_from(["", "-", "+"])) + "0" * draw(st.integers(0, 2)) + magnitude


def _token(draw, wild: bool):
    """One cell: a JSON int or a string token, of the common forms (ints,
    p/q, decimals) or, when wild, of any form."""
    kind = draw(st.integers(0, 9 if wild else 3))
    if kind == 0:
        return draw(st.integers(-(10**30), 10**30))
    if kind == 1:
        return _signed(draw, str(draw(st.integers(0, 10**20))))
    if kind == 2:
        p, q = draw(st.integers(0, 400)), draw(st.integers(0, 60))
        return _signed(draw, f"{p}/{'0' * draw(st.integers(0, 1))}{q}")
    if kind == 3:
        return _signed(draw, f"{draw(st.integers(0, 999))}.{draw(st.integers(0, 9999))}")
    if kind == 4:
        exponent = draw(st.sampled_from([0, 1, 7, EXPONENT_LIMIT - 1, EXPONENT_LIMIT, EXPONENT_LIMIT + 1]))
        return _signed(draw, f"{draw(st.integers(1, 99))}{draw(st.sampled_from('eE'))}{draw(st.sampled_from(['', '-', '+']))}{exponent}")
    if kind == 5:
        digits = "7" * draw(st.sampled_from([4299, 4300, 4301, 5000]))
        return _signed(draw, draw(st.sampled_from([digits, f"{digits}/3", f"3/{digits}"])))
    if kind == 6:
        spelling = draw(st.sampled_from(EPSILON_SPELLINGS + ("-inf", "-eps", "infinite", "nan")))
        return "".join(c.upper() if draw(st.booleans()) else c for c in spelling)
    if kind == 7:
        return draw(
            st.sampled_from(
                ["1_000", "1__0", "_1", "1_", "2/1_0", "١٢", "-٣/٤", "１２", "²", "3/²", "0/0", "-0", "-0/5", "x/0", "9/0"]
            )
        )
    if kind == 8:
        return draw(st.sampled_from([" 1/2", "1 /2", "1/ 2", " -3/4 ", "", " ", "1/2/3", "1/-2", "1/+2", "-1/-2", "--1", "1-", "-", "/2", "2/"]))
    return draw(st.text(alphabet="0123456789-+/._eE٣ε", min_size=1, max_size=6))


def _expected(cells):
    """(ints, D) of the cells by reference, or the index of the first bad cell."""
    values = []
    for index, cell in enumerate(cells):
        try:
            values.append(reference(cell))
        except (ValueError, ZeroDivisionError):
            return index
    d = lcm(*(q.denominator for q in values if q is not None))
    return tuple(None if q is None else int(q * d) for q in values), d


@st.composite
def grids(draw):
    """An order n of 1-3 and n*n cells, of which a drawn share is wild."""
    n = draw(st.integers(1, 3))
    wild_tenths = draw(st.integers(0, 10))
    return n, [_token(draw, draw(st.integers(0, 9)) < wild_tenths) for _ in range(n * n)]


@settings(max_examples=300, deadline=None)
@given(grids())
def test_every_decoder_reads_a_token_as_fraction_does(drawn):
    n, cells = drawn
    expected = _expected(cells)
    grid = [cells[i * n : (i + 1) * n] for i in range(n)]
    forms = [("json", json.dumps({"rows": grid}))]
    if all(str(c).split() == [str(c)] for c in cells):
        forms.append(("text", "\n".join(" ".join(map(str, row)) for row in grid) + "\n"))
    for form, text in forms:
        if isinstance(expected, tuple):
            ints, d = expected
            matrix = parse_matrix(text)
            assert (matrix._ints, matrix._d) == (tuple(tuple(ints[i * n : (i + 1) * n]) for i in range(n)), d)
            continue
        # the first bad cell in row order is the leftmost one of the first row that has one
        line, column = divmod(expected, n)
        cell = cells[expected]
        message = f"bad matrix entry {cell!r}: not a min-plus value: {cell!r}" if form == "json" else f"bad matrix entry {cell!r}"
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        assert str(err.value) == f"{message} (line {line + 1}, column {column + 1})"
        assert (err.value.line, err.value.column) == (line + 1, column + 1)

    coeffs = json.dumps({"coeffs": cells})
    if isinstance(expected, tuple):
        poly = parse_polynomial(coeffs)
        assert (poly._ints, poly._d) == expected
    else:
        with pytest.raises(ParseError) as err:
            parse_polynomial(coeffs)
        cell = cells[expected]
        assert str(err.value) == f"bad coefficient {cell!r} at index {expected}: not a min-plus value: {cell!r}"
