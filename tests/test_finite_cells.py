"""The finite-cell view of a matrix, and the network built from it.

``MinPlusMatrix._cells`` holds, per row, the (column, weight times D)
pairs of the finite entries in column order. The text parser finds them
as it reads each row and hands them to the matrix; every other
constructor leaves the view to be built from the ints on first use. These
tests check that every way of building a matrix gives the view that the
plain comprehension over its ints gives, and that ``network_from_matrix``,
which holds that view itself, builds the network that ``Network(m, edges)``
builds by coercing, scaling and sorting its edges.
"""

import json
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    MinPlusMatrix,
    Network,
    epsilon_matrix,
    identity,
    mat_oplus,
    mat_otimes,
    mat_power,
    matrix_from_network,
    network_from_matrix,
    parse_matrix,
    scalar_otimes,
)

VALUES = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13)) | st.just(Fraction(0))
EPSILON_SPELLINGS = ["inf", "eps", "INF", "ε", "+inf", "infinity", "epsilon"]
BLANK_LINES = ["", "   ", "\t", " \t "]


def comprehension(a: MinPlusMatrix):
    return tuple(tuple((j, w) for j, w in enumerate(row) if w is not None) for row in a._ints)


def canonical_d(rows) -> int:
    return lcm(*(q.denominator for row in rows for q in row if q is not None))


@st.composite
def rows_of_every_kind(draw):
    """Square rows of Fractions and None, of order 1-12 or 33-48: each row
    all ε, one or two finite cells, one finite value repeated, or mostly
    distinct values, this last only below order 13 (the text parser
    locates the finite cells of a wide row with few distinct finite values
    before it scales them, and keeps any other row whole)."""
    n = draw(st.integers(1, 12) | st.integers(33, 48))
    columns = st.integers(0, n - 1)
    kinds = ["all ε", "sparse", "repeated", "distinct"][: 4 if n < 13 else 3]
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "all ε":
            finite = {}
        elif kind == "sparse":
            finite = draw(st.dictionaries(columns, VALUES, min_size=1, max_size=2))
        elif kind == "repeated":
            finite = dict.fromkeys(draw(st.sets(columns, min_size=1)), draw(VALUES))
        else:
            finite = draw(st.dictionaries(columns, VALUES, min_size=n // 2))
        rows.append([finite.get(j) for j in range(n)])
    return rows


@st.composite
def text_forms(draw):
    """(values, text): blank and whitespace-only lines anywhere, several ε
    spellings in one row, zero weights, and p/q cells written unreduced,
    most with one factor common to the whole text, so that D and the ints
    share a factor that must be divided out."""
    rows = draw(rows_of_every_kind())
    common = draw(st.integers(1, 6))

    def line(row):
        spellings = draw(st.lists(st.sampled_from(EPSILON_SPELLINGS), min_size=1, max_size=3))
        m = common if draw(st.integers(0, 4)) else draw(st.integers(1, 4))
        plain = draw(st.booleans())  # integers written as such when m is 1

        def cell(j, q):
            if q is None:
                return spellings[j % len(spellings)]
            if q.denominator == 1 and m == 1 and plain:
                return str(q.numerator)
            return f"{q.numerator * m}/{q.denominator * m}"

        return draw(st.sampled_from([" ", "  ", "\t"])).join(cell(j, q) for j, q in enumerate(row))

    lines = []
    for row in rows:
        lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
        lines.append(line(row))
    lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
    return rows, draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def json_text(draw, rows) -> str:
    def row_cells(row):
        blank = draw(st.sampled_from([None, "inf", "eps"]))
        as_int = draw(st.booleans())
        return [
            blank if q is None else q.numerator if q.denominator == 1 and as_int else f"{q.numerator}/{q.denominator}"
            for q in row
        ]

    return json.dumps({"rows": [row_cells(row) for row in rows]})


@settings(max_examples=100, deadline=None)
@given(text_forms())
def test_parsed_text_hands_over_the_cell_view(forms):
    rows, text = forms
    a = parse_matrix(text)
    assert a._cell_rows is not None  # given by the parser, not built from the ints
    assert a._cells == comprehension(a)
    assert a == MinPlusMatrix(rows)
    assert a._d == canonical_d(rows)


@settings(max_examples=100, deadline=None)
@given(rows_of_every_kind(), rows_of_every_kind(), VALUES, st.data())
def test_every_constructor_gives_the_comprehension_view(rows, other, shift, data):
    a = MinPlusMatrix(rows)
    from_json = parse_matrix(json_text(data.draw, rows))
    for built in (a, from_json):
        assert built._cell_rows is None  # built on first use
        assert built._cells == comprehension(built)
        assert built._cells is built._cells
    n = len(rows)
    b_rows = [[other[i % len(other)][j % len(other)] for j in range(n)] for i in range(n)]
    b = MinPlusMatrix(b_rows)
    kernel_built = [
        mat_otimes(a, b),  # b's cells rescaled to the product's D
        mat_otimes(b, a),
        mat_oplus(a, b),
        mat_power(a, 3),
        scalar_otimes(shift, a),
        a.principal_submatrix(range(0, n, 2)),
        identity(n),
        epsilon_matrix(n),
        matrix_from_network(network_from_matrix(a)),
    ]
    for built in kernel_built:
        assert built._cells == comprehension(built)
    # the product, which relaxes b's cells, against one on Fractions
    product = [
        [min((x + y for x, y in zip(row, col) if x is not None and y is not None), default=None) for col in zip(*b_rows)]
        for row in rows
    ]
    assert mat_otimes(a, b) == MinPlusMatrix(product)


@settings(max_examples=100, deadline=None)
@given(text_forms(), st.data())
def test_network_from_matrix_is_the_coerced_network(forms, data):
    rows, text = forms
    n = len(rows)
    edges = tuple((i, j, q) for i, row in enumerate(rows, start=1) for j, q in enumerate(row, start=1) if q is not None)
    coerced = Network(m=n, edges=edges)
    for a in (parse_matrix(text), parse_matrix(json_text(data.draw, rows)), MinPlusMatrix(rows)):
        net = network_from_matrix(a)
        assert net == coerced
        assert hash(net) == hash(coerced)
        assert repr(net) == repr(coerced)
        assert net._cells is a._cells
        assert net._cells == coerced._cells
        assert net._d == coerced._d
        assert net._components == coerced._components
        assert all(type(w) is Fraction for _, _, w in net.edges)
