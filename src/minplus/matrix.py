r"""Square matrices over the min-plus semiring.

Matrices are immutable: every operation returns a new matrix. A matrix
doubles as the weighted adjacency matrix of a directed weighted graph,
with ε entries standing for absent edges.

A matrix is stored in the scaled int form that every kernel reads: each
entry times D as a Python int, None for ε, where D is the least common
multiple of the reduced denominators of the finite entries (1 when there
are none). D is canonical, so equal matrices have equal forms. The
parsers build that form straight from the distinct tokens of the input;
the entries as min-plus values (``rows``) are built only when asked for.

The int form has two views, each the mirror image of the other: the
dense rows (``_ints``), and the finite cells (``_cells``): per row, the
(column, weight times D) pairs of its finite entries in column order,
columns from 0. A matrix holds at least one of them and builds the other
from it on first use.

The text parser reads a line, ended by "\n", "\r\n" or "\r" only, in
one of two ways. In a matrix of order n over 32, a row after the first
in which fewer than n/32 tokens are other than one ε spelling already
decoded is read by C-level str methods, with no string made per ε:
only its other tokens are decoded, and their columns counted. Any
other row, or one that fails a check of that reading, is split into
all its tokens, so its errors are reported as before. Either way its finite cells are kept in C-level passes, and
the parser hands over the cells alone. So an ε-heavy matrix reaches its
graph (``network_from_matrix``), its circuits and its cycle mean with
Python work in its finite cells, and its n² dense form is built only if
a dense kernel, ``==`` or ``hash`` reads it.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter

from .errors import ParseError, decode_json
from .semiring import (
    MinPlusValue,
    _common_denominator,
    _decode_cell,
    _decode_token,
    _is_int,
    _ratio,
    _rational,
    _scaled,
    _unscaled,
)

__all__ = [
    "MinPlusMatrix",
    "identity",
    "epsilon_matrix",
    "mat_oplus",
    "mat_otimes",
    "scalar_otimes",
    "mat_power",
    "trace",
    "parse_matrix",
    "load_matrix",
]


class MinPlusMatrix:
    """An n-by-n matrix of min-plus values, held as (ints, D)."""

    __slots__ = ("_int_rows", "_d", "_rows", "_cell_rows")

    def __init__(self, rows):
        values = tuple(tuple(_ratio(_rational(x)) for x in row) for row in rows)
        n = len(values)
        if n == 0:
            raise ValueError("matrix order must be at least 1")
        for row in values:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got a row of length {len(row)} in an order-{n} matrix")
        d = _common_denominator(chain.from_iterable(values))
        self._int_rows = tuple(tuple(_scaled(pair, d) for pair in row) for row in values)
        self._d = d
        self._rows = self._cell_rows = None

    @classmethod
    def _from_scaled(cls, ints, d: int, cells=None) -> "MinPlusMatrix":
        """The matrix ints / d from a square tuple of int-or-None tuples,
        with nothing coerced; cells, when given, is its ``_cells`` view,
        and ints may then be None, to be built from it on first use.
        d and the entries are divided by their common factor, taken over
        the finite cells, so D is canonical."""
        if d > 1:
            if cells is None:
                g = gcd(d, *filter(None, chain.from_iterable(ints)))
            else:
                g = gcd(d, *map(itemgetter(1), chain.from_iterable(cells)))
            if g > 1:
                if ints is not None:
                    ints = tuple(tuple(None if w is None else w // g for w in row) for row in ints)
                if cells is not None:
                    cells = tuple(tuple((j, w // g) for j, w in row) for row in cells)
                d //= g
        matrix = object.__new__(cls)
        matrix._int_rows, matrix._d, matrix._rows, matrix._cell_rows = ints, d, None, cells
        return matrix

    @property
    def _ints(self) -> tuple[tuple[int | None, ...], ...]:
        """Per row, every entry times D as an int, None for ε; built from
        the finite cells on first use unless given at construction."""
        if self._int_rows is None:
            n = len(self._cell_rows)
            ints = []
            for cells in self._cell_rows:
                row = [None] * n
                for j, w in cells:
                    row[j] = w
                ints.append(tuple(row))
            self._int_rows = tuple(ints)
        return self._int_rows

    @property
    def _cells(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the (column, weight times D) pairs of its finite
        entries, in column order; built from the ints on first use unless
        given at construction."""
        if self._cell_rows is None:
            self._cell_rows = tuple(
                tuple((j, w) for j, w in enumerate(row) if w is not None) for row in self._int_rows
            )
        return self._cell_rows

    @property
    def n(self) -> int:
        return len(self._cell_rows if self._int_rows is None else self._int_rows)

    @property
    def rows(self) -> tuple[tuple[MinPlusValue, ...], ...]:
        if self._rows is None:
            d = self._d
            self._rows = tuple(tuple(_unscaled(w, d) for w in row) for row in self._ints)
        return self._rows

    def __getitem__(self, index) -> MinPlusValue:
        i, j = index
        return _unscaled(self._ints[i][j], self._d)

    def __eq__(self, other):
        if not isinstance(other, MinPlusMatrix):
            return NotImplemented
        return self._d == other._d and self._ints == other._ints

    def __hash__(self):
        return hash((self._d, self._ints))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"MinPlusMatrix({self.n}x{self.n}: {body})"

    def principal_submatrix(self, indices) -> "MinPlusMatrix":
        """Restriction to the given (0-based) rows and columns."""
        idx = tuple(indices)
        if not idx:
            raise ValueError("matrix order must be at least 1")
        return MinPlusMatrix._from_scaled(tuple(tuple(self._ints[i][j] for j in idx) for i in idx), self._d)

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[x.to_json() for x in row] for row in self.rows]}


def identity(n: int) -> MinPlusMatrix:
    """The ⊗-identity: 0 on the diagonal, ε elsewhere."""
    if n < 1:
        raise ValueError("matrix order must be at least 1")
    return MinPlusMatrix._from_scaled(tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n)), 1)


def epsilon_matrix(n: int) -> MinPlusMatrix:
    """The ⊕-identity: every entry ε."""
    if n < 1:
        raise ValueError("matrix order must be at least 1")
    return MinPlusMatrix._from_scaled(tuple((None,) * n for _ in range(n)), 1)


def _check_same_order(a: MinPlusMatrix, b: MinPlusMatrix):
    if a.n != b.n:
        raise ValueError(f"matrix order mismatch: {a.n} vs {b.n}")


def _rescaled(a: MinPlusMatrix, d: int):
    """a's int entries in units of 1/d, for a multiple d of a's D."""
    f = d // a._d
    if f == 1:
        return a._ints
    return tuple(tuple(None if w is None else w * f for w in row) for row in a._ints)


def mat_oplus(a: MinPlusMatrix, b: MinPlusMatrix) -> MinPlusMatrix:
    """Entrywise minimum."""
    _check_same_order(a, b)
    d = lcm(a._d, b._d)
    return MinPlusMatrix._from_scaled(
        tuple(
            tuple(y if x is None else x if y is None or x <= y else y for x, y in zip(ra, rb))
            for ra, rb in zip(_rescaled(a, d), _rescaled(b, d))
        ),
        d,
    )


def mat_otimes(a: MinPlusMatrix, b: MinPlusMatrix) -> MinPlusMatrix:
    """Min-plus matrix product: [ab]_ij = min_l (a_il + b_lj)."""
    _check_same_order(a, b)
    d = lcm(a._d, b._d)
    f = d // b._d
    succ = b._cells if f == 1 else [[(j, w * f) for j, w in row] for row in b._cells]
    return MinPlusMatrix._from_scaled(tuple(map(tuple, _int_product(_rescaled(a, d), succ))), d)


def _int_product(rows, succ) -> list[list[int | None]]:
    """The min-plus product of scaled int rows (None for ε) with a matrix B
    in the same units, given as succ[l] = the (j, B_lj) pairs of the finite
    entries of row l; only those are relaxed."""
    n = len(succ)
    product = []
    for row in rows:
        out: list[int | None] = [None] * n
        for l, x in enumerate(row):
            if x is None:
                continue
            for j, w in succ[l]:
                s = x + w
                cur = out[j]
                if cur is None or s < cur:
                    out[j] = s
        product.append(out)
    return product


def scalar_otimes(alpha, a: MinPlusMatrix) -> MinPlusMatrix:
    """Add a scalar to every entry (ε entries stay ε)."""
    alpha = _ratio(_rational(alpha))
    if alpha is None:
        return epsilon_matrix(a.n)
    d = lcm(a._d, alpha[1])
    shift = _scaled(alpha, d)
    return MinPlusMatrix._from_scaled(
        tuple(tuple(None if w is None else w + shift for w in row) for row in _rescaled(a, d)), d
    )


def mat_power(a: MinPlusMatrix, k: int) -> MinPlusMatrix:
    """k-fold ⊗-product; k = 0 yields the identity."""
    if not _is_int(k) or k < 0:
        raise ValueError(f"matrix exponent must be a nonnegative integer, got {k!r}")
    if k == 0:
        return identity(a.n)
    result = a
    for _ in range(k - 1):
        result = mat_otimes(result, a)
    return result


def trace(a: MinPlusMatrix) -> MinPlusValue:
    """⊕-sum of the diagonal, i.e. the minimum diagonal entry."""
    diagonal = [a._ints[i][i] for i in range(a.n) if a._ints[i][i] is not None]
    return _unscaled(min(diagonal, default=None), a._d)


def parse_matrix(text: str) -> MinPlusMatrix:
    r"""Parse a matrix from JSON ({"n": ..., "rows": [[...], ...]}) or plain text.

    The plain-text form is n lines of n whitespace-separated tokens; each
    token is an integer, exact decimal, "p/q", or an ε token ("inf", "eps").
    A line ends at "\n", "\r\n" or "\r"; other whitespace separates tokens.
    Blank lines are skipped, and counted in the line numbers of errors.
    Each distinct token is decoded once to a (numerator, denominator) pair;
    D comes from the distinct finite values, and the finite cells (see the
    module docstring) are filled with the scaled ints.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _matrix_from_json(decode_json(text))
    return _parse_matrix_text(text)


def _matrix_from_json(obj) -> MinPlusMatrix:
    """Validate a decoded matrix JSON object and build the matrix."""
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ParseError('matrix JSON must be an object with a "rows" field')
    rows = obj["rows"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError('"rows" must be a non-empty list of lists')
    n = obj.get("n", len(rows))
    if not _is_int(n):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    if n != len(rows):
        raise ParseError(f'"n" is {n} but {len(rows)} rows were given')
    pairs: dict = {}
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", line=i)
        for j, cell in enumerate(row, start=1):
            try:
                _decode_cell(cell, pairs)
            except (ParseError, TypeError) as exc:
                raise ParseError(f"bad matrix entry {cell!r}: {exc}", line=i, column=j) from exc
    d = _common_denominator(pairs.values())
    scaled = {cell: _scaled(pair, d) for cell, pair in pairs.items()}
    return MinPlusMatrix._from_scaled(tuple(tuple(map(scaled.__getitem__, row)) for row in rows), d)


def _parse_matrix_text(text: str) -> MinPlusMatrix:
    pairs: dict = {}  # each distinct token's pair, None for ε
    blanks: list = []  # the ε tokens among them, in the order first seen
    found = []  # per row: the columns and tokens of its finite cells
    n = 0
    for lineno, line in enumerate(_lines(text), start=1):
        kept = _sparse_row(line, n, blanks) if n > 32 and blanks else None
        if kept is not None:
            try:
                _decode_new(kept[1], pairs, blanks)
            except ParseError:
                kept = None  # read whole below, which reports the leftmost bad entry
        if kept is None:
            tokens = line.split()
            if not tokens:
                continue
            if not n:
                n, columns = len(tokens), range(len(tokens))
            elif len(tokens) != n:
                raise ParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
            try:
                _decode_new(tokens, pairs, blanks)
            except ParseError:
                _raise_leftmost_bad_entry(tokens, lineno)
            kept = columns, tokens
        # keep the finite cells in C-level passes: ε's None is falsy, a pair is not
        cols, tokens = kept
        finite = tuple(map(pairs.__getitem__, tokens))
        found.append((tuple(compress(cols, finite)), tuple(compress(tokens, finite))))
    if not n:
        raise ParseError("empty matrix input")
    if len(found) != n:
        raise ParseError(f"{len(found)} rows of {n} entries each do not form a square matrix")
    d = _common_denominator(pairs.values())
    scaled = {token: None if pair is None else pair[0] * (d // pair[1]) for token, pair in pairs.items()}
    cells = []
    for i, (cols, kept) in enumerate(found):
        found[i] = None  # the row's tokens go as its cells come
        cells.append(tuple(zip(cols, map(scaled.__getitem__, kept))))
    return MinPlusMatrix._from_scaled(None, d, tuple(cells))


def _decode_new(tokens, pairs: dict, blanks: list):
    """Decode into pairs each distinct token not there yet, and add the ε
    tokens among them to blanks."""
    for token in set(tokens).difference(pairs):
        if pairs.setdefault(token, _decode_token(token)) is None:
            blanks.append(token)


def _lines(text: str):
    r"""The lines of text, one at a time and without their ends. A line
    ends at "\n", "\r\n" or "\r" only: str.splitlines also ends one at
    "\v", "\f", "\x1c"-"\x1e", "\x85", "\u2028" and "\u2029", which
    split() reads as whitespace between tokens."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        line = text[start:stop]
        start = stop + 1
        if "\r" in line:
            yield from line.removesuffix("\r").split("\r")
        else:
            yield line


def _sparse_row(line: str, n: int, blanks: list):
    r"""The (columns, tokens) of the cells of an order-n row that are not
    its most frequent known ε token, found by C-level str methods with
    no string made per ε; None unless fewer than n/32 cells are others.

    Each occurrence of the ε token is blanked with as many spaces, so one
    split() makes strings of the other tokens alone. Every occurrence is
    a whole token, and the row has n tokens, when no two occurrences
    touch, no other token touches an occurrence (each is bounded by
    whitespace in the line), and the occurrences and the other tokens
    number n. A token's column is the number of occurrences before it
    plus its rank among the others."""
    count, _, blank = max((line.count(token), len(token), token) for token in blanks)
    if 32 * (n - count) >= n:
        return None
    blanked = line.replace(blank, " " * len(blank))
    others = blanked.split()
    if count + len(others) != n or blank + blank in line:
        return None
    cols = []
    occurrences = pos = 0
    for rank, token in enumerate(others):
        start = blanked.find(token, pos)
        end = start + len(token)
        if line[start - 1 : start].strip() or line[end : end + 1].strip():
            return None  # glued to an occurrence
        occurrences += line.count(blank, pos, start)
        cols.append(occurrences + rank)
        pos = end
    return cols, others


def _raise_leftmost_bad_entry(tokens, lineno: int):
    """Raise the ParseError of the row's first token that does not decode."""
    for column, token in enumerate(tokens, start=1):
        try:
            _decode_token(token)
        except ParseError as exc:
            raise ParseError(f"bad matrix entry {token!r}", line=lineno, column=column) from exc


def load_matrix(path) -> MinPlusMatrix:
    """Read a matrix file in either supported format."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())
