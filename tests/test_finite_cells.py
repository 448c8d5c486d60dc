"""The finite cells of a matrix, and the network built from it.

``MinPlusMatrix._cells``, the one int form a matrix holds, is per row the
(column, weight times D) pairs of the finite entries in column order. The
parsers find them as they read each row, and every other constructor and
kernel builds them directly. These tests check that every way of building
a matrix gives the cells that the plain comprehension over its entries
gives, that its entries, rows and trace read off the cells are those of
the same matrix worked out on Fractions, and that ``network_from_matrix``,
which holds the cells themselves, builds the network that
``Network(m, edges)`` builds by coercing, scaling and sorting its edges.
"""

import json
import re
from fractions import Fraction
from math import lcm

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus import (
    MinPlusMatrix,
    MinPlusValue,
    Network,
    ParseError,
    epsilon_matrix,
    identity,
    mat_oplus,
    mat_otimes,
    mat_power,
    matrix_from_network,
    network_from_matrix,
    parse_matrix,
    parse_value,
    scalar_otimes,
    trace,
)

from conftest import dense_ints

VALUES = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13)) | st.just(Fraction(0))
EPSILON_SPELLINGS = ["inf", "eps", "INF", "ε", "+inf", "infinity", "epsilon"]
BLANK_LINES = ["", "   ", "\t", " \t "]
# between tokens: tabs, runs of spaces, and whitespace that is no line end
SEPARATORS = [" ", "  ", "\t", " \t ", "\t\t"]
ODD_SEPARATORS = ["   ", "\f", "\v", "\x1c", "\x85", "\u2028"]
BAD_TOKENS = ["3inf", "infinf", "\0", "inf\0", "x", "1/0"]


def comprehension(a: MinPlusMatrix):
    return tuple(tuple((j, w) for j, w in enumerate(row) if w is not None) for row in dense_ints(a))


def product(x, y):
    """The min-plus product of two square lists of Fractions and None."""
    return [[min((p + q for p, q in zip(row, col) if p is not None and q is not None), default=None) for col in zip(*y)] for row in x]


def canonical_d(rows) -> int:
    return lcm(*(q.denominator for row in rows for q in row if q is not None))


@st.composite
def rows_of_every_kind(draw):
    """Square rows of Fractions and None, of order 1-12, 33-48, 64 or 65:
    each row all ε, one or two finite cells, the most finite cells under
    n/32 or one more, one finite value repeated, or mostly distinct
    values, this last only below order 13. In a text of order over 32,
    the parser reads a row after the first by C-level str methods when
    fewer than n/32 of its tokens are other than one ε spelling, and any
    other row token by token, so those orders put rows on both sides of
    that bound (at order 64, two cells are exactly n/32)."""
    n = draw(st.integers(1, 12) | st.sampled_from([*range(33, 49), 64, 65]))
    columns = st.integers(0, n - 1)
    kinds = ["all ε", "sparse", "near n/32", "repeated", "distinct"][: 5 if n < 13 else 4]
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "all ε":
            finite = {}
        elif kind == "sparse":
            finite = draw(st.dictionaries(columns, VALUES, min_size=1, max_size=2))
        elif kind == "near n/32":
            size = (n - 1) // 32 + draw(st.integers(0, 1))  # the most cells under n/32, or one more
            finite = draw(st.dictionaries(columns, VALUES, min_size=size, max_size=size))
        elif kind == "repeated":
            finite = dict.fromkeys(draw(st.sets(columns, min_size=1)), draw(VALUES))
        else:
            finite = draw(st.dictionaries(columns, VALUES, min_size=n // 2))
        rows.append([finite.get(j) for j in range(n)])
    return rows


@st.composite
def text_forms(draw, malformed=False):
    r"""(values, text): blank and whitespace-only lines anywhere, a main ε
    spelling per row with a few others next to it (a spelling may be
    first seen in the middle of the text), tabs, runs of spaces and
    other non-line-end whitespace between tokens, \n, \r\n or \r line
    ends, zero weights, and p/q cells written unreduced, most with one
    factor common to the whole text, so that D and the ints share a
    factor that must be divided out. With malformed, one row may also
    hold a bad token, and be one token short or long."""
    rows = draw(rows_of_every_kind())
    n = len(rows)
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    common = draw(st.integers(1, 6))
    mains = draw(st.lists(st.sampled_from(EPSILON_SPELLINGS), min_size=1, max_size=2))
    odd = draw(st.dictionaries(cells, st.sampled_from(EPSILON_SPELLINGS), max_size=8))  # other ε spellings
    gaps = draw(st.dictionaries(cells, st.sampled_from(ODD_SEPARATORS), max_size=8))
    broken = draw(st.integers(0, n - 1)) if malformed else None

    def line(i, row):
        main = draw(st.sampled_from(mains))
        m = common if draw(st.integers(0, 4)) else draw(st.integers(1, 4))
        plain = draw(st.booleans())  # integers written as such when m is 1

        def cell(j, q):
            if q is None:
                return odd.get((i, j), main)
            if q.denominator == 1 and m == 1 and plain:
                return str(q.numerator)
            return f"{q.numerator * m}/{q.denominator * m}"

        tokens = [cell(j, q) for j, q in enumerate(row)]
        if i == broken:
            if draw(st.booleans()):
                tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_TOKENS))
            tokens = tokens[: n + draw(st.integers(-1, 1))] + [main] * draw(st.integers(0, 1))
        sep = draw(st.sampled_from(SEPARATORS))
        text = "".join(token + gaps.get((i, j), sep) for j, token in enumerate(tokens))
        return draw(st.sampled_from(["", " ", "\t"])) + text

    lines = []
    for i, row in enumerate(rows):
        lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
        lines.append(line(i, row))
    lines += draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
    return rows, draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


def read_by_line_split(text: str) -> MinPlusMatrix:
    r"""The reference reader: lines ended at \n, \r\n or \r, each split()
    into tokens, and each token parsed on its own, left to right."""
    rows, n = [], 0
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if not n:
            n = len(tokens)
        elif len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        row = []
        for column, token in enumerate(tokens, start=1):
            try:
                row.append(parse_value(token))
            except ParseError as exc:
                raise ParseError(f"bad matrix entry {token!r}", line=lineno, column=column) from exc
        rows.append(row)
    if not n:
        raise ParseError("empty matrix input")
    if len(rows) != n:
        raise ParseError(f"{len(rows)} rows of {n} entries each do not form a square matrix")
    return MinPlusMatrix(rows)


def outcome(read, text):
    """What a reader makes of text: the matrix's scaled forms, or its ParseError."""
    try:
        a = read(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return dense_ints(a), a._cells, a._d


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
    assert a._cells == comprehension(a)
    held = MinPlusMatrix(rows)
    assert (a._cells, a._d) == (held._cells, held._d)
    assert a == held and hash(a) == hash(held)
    assert a._d == canonical_d(rows)


@settings(max_examples=200, deadline=None)
@given(text_forms(malformed=True))
def test_text_rows_read_as_line_split_reads_them(forms):
    rows, text = forms
    assert outcome(parse_matrix, text) == outcome(read_by_line_split, text)


def epsilon_text(n: int, tokens: dict, blank: str = "inf") -> str:
    """An order-n text of blank tokens but for tokens[i, j] at row i, column j."""
    return "".join(" ".join(tokens.get((i, j), blank) for j in range(n)) + "\n" for i in range(n))


@pytest.mark.parametrize(
    "text",
    [
        # three other cells, under n/32 = 3.125, at the first, a middle and the last column
        epsilon_text(100, {**{(i, i): "1" for i in range(100)}, (5, 0): "-2/4", (5, 99): "3", (7, 0): "ε", (7, 99): "eps"}),
        # the ε spelling inside other tokens: only whole tokens are ε
        epsilon_text(40, {(1, 3): "+inf", (2, 0): "infinity", (3, 39): "infinity", (4, 4): "INF"}),
        # a NUL token, and a token that reads as a number once its ε spelling is blanked
        epsilon_text(40, {(0, 0): "7", (2, 1): "\0", (2, 5): "inf1"}),
        epsilon_text(40, {(3, 8): "3inf", (3, 9): "infinf"}),
        # a row one token short, whose ε spelling count and other tokens still add up to n
        epsilon_text(40, {(2, 38): "infinf", (2, 39): ""}),
        epsilon_text(40, {(2, 38): "inf5", (2, 39): ""}),
        epsilon_text(40, {(2, 38): "5inf", (2, 39): ""}),
        # a row one token short or long, holding a bad token or not
        epsilon_text(40, {(2, 39): ""}),
        epsilon_text(40, {(2, 39): "inf 1"}),
        epsilon_text(40, {(2, 4): "x", (2, 39): ""}),
        epsilon_text(40, {(2, 4): "x", (2, 39): "inf inf"}),
        epsilon_text(40, {(0, 1): "2"}, blank="ε").replace("ε ε ε", "ε\tε\fε   ε"),
    ],
    ids=["several-others", "spelling-inside-tokens", "nul", "bad-tokens", "glued", "glued-after", "glued-before", "short", "long", "short-bad", "long-bad", "whitespace"],
)
def test_crafted_rows_read_as_line_split_reads_them(text):
    assert outcome(parse_matrix, text) == outcome(read_by_line_split, text)


@settings(max_examples=100, deadline=None)
@given(rows_of_every_kind(), rows_of_every_kind(), VALUES, st.data())
def test_every_constructor_gives_the_comprehension_view(rows, other, shift, data):
    a = MinPlusMatrix(rows)
    n = len(rows)
    b_rows = [[other[i % len(other)][j % len(other)] for j in range(n)] for i in range(n)]
    b = MinPlusMatrix(b_rows)
    # in a text of order over 32, its ε-heavy rows are read by str methods
    text = "".join(" ".join("inf" if q is None else str(q) for q in row) + "\n" for row in rows)
    kept = range(0, n, 2)
    # each matrix, with its entries worked out on Fractions
    built = [
        (a, rows),
        (parse_matrix(json_text(data.draw, rows)), rows),
        (parse_matrix(text), rows),
        (mat_otimes(a, b), product(rows, b_rows)),  # b's cells rescaled to the product's D
        (mat_otimes(b, a), product(b_rows, rows)),
        (mat_oplus(a, b), [[y if x is None else x if y is None else min(x, y) for x, y in zip(r, s)] for r, s in zip(rows, b_rows)]),
        (mat_power(a, 3), product(product(rows, rows), rows)),
        (scalar_otimes(shift, a), [[None if x is None else x + shift for x in row] for row in rows]),
        (a.principal_submatrix(kept), [[rows[i][j] for j in kept] for i in kept]),
        (identity(n), [[0 if i == j else None for j in range(n)] for i in range(n)]),
        (epsilon_matrix(n), [[None] * n for _ in range(n)]),
        (matrix_from_network(network_from_matrix(a)), rows),
    ]
    for matrix, entries in built:
        m = len(entries)
        assert matrix._cells == comprehension(matrix)
        assert matrix == MinPlusMatrix(entries) and hash(matrix) == hash(MinPlusMatrix(entries))
        values = [[MinPlusValue(q) for q in row] for row in entries]
        assert matrix.rows == tuple(map(tuple, values))
        # every index in -m..m-1, and none outside it
        assert [[matrix[i, j] for j in range(-m, m)] for i in range(-m, m)] == [row + row for row in values + values]
        for index in ((m, 0), (0, m), (-m - 1, 0), (0, -m - 1)):
            with pytest.raises(IndexError):
                matrix[index]
        assert trace(matrix) == MinPlusValue(min((row[i] for i, row in enumerate(entries) if row[i] is not None), default=None))


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
