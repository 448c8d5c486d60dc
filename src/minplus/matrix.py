"""Square matrices over the min-plus semiring.

Matrices are immutable: every operation returns a new matrix. A matrix
doubles as the weighted adjacency matrix of a directed weighted graph,
with ε entries standing for absent edges.

A matrix is stored once, at construction, in the scaled int form that
every kernel reads: each entry times D as a Python int, None for ε, where
D is the least common multiple of the reduced denominators of the finite
entries (1 when there are none). D is canonical, so equal matrices have
equal forms. The parsers build that form straight from the distinct
tokens of the input; the entries as min-plus values (``rows``) are built
only when asked for.

The finite cells have one view of their own, ``_cells``: per row, the
(column, weight times D) pairs of its finite entries in column order,
columns from 0. The text parser hands the view over with the ints. A wide
row with few distinct finite values has its finite columns found as it is
read, in one C-level pass, and its int row is filled from its cells; any
other row is mapped whole, and its cells are read off its ints. So an
ε-heavy matrix reaches its graph (``network_from_matrix``) and the product
kernels with Python work in its finite cells, not in all n² entries. Every
other matrix builds the view from its ints on first use.
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

    __slots__ = ("_ints", "_d", "_rows", "_cell_rows")

    def __init__(self, rows):
        values = tuple(tuple(_ratio(_rational(x)) for x in row) for row in rows)
        n = len(values)
        if n == 0:
            raise ValueError("matrix order must be at least 1")
        for row in values:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got a row of length {len(row)} in an order-{n} matrix")
        d = _common_denominator(chain.from_iterable(values))
        self._ints = tuple(tuple(_scaled(pair, d) for pair in row) for row in values)
        self._d = d
        self._rows = self._cell_rows = None

    @classmethod
    def _from_scaled(cls, ints, d: int, cells=None) -> "MinPlusMatrix":
        """The matrix ints / d from a square tuple of int-or-None tuples,
        with nothing coerced; cells, when given, is its ``_cells`` view.
        d and the entries are divided by their common factor, taken over
        the finite cells, so D is canonical."""
        if d > 1:
            if cells is None:
                g = gcd(d, *filter(None, chain.from_iterable(ints)))
            else:
                g = gcd(d, *map(itemgetter(1), chain.from_iterable(cells)))
            if g > 1:
                ints = tuple(tuple(None if w is None else w // g for w in row) for row in ints)
                if cells is not None:
                    cells = tuple(tuple((j, w // g) for j, w in row) for row in cells)
                d //= g
        matrix = object.__new__(cls)
        matrix._ints, matrix._d, matrix._rows, matrix._cell_rows = ints, d, None, cells
        return matrix

    @property
    def _cells(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per row, the (column, weight times D) pairs of its finite
        entries, in column order; built from the ints on first use unless
        the parser handed them over."""
        if self._cell_rows is None:
            self._cell_rows = tuple(
                tuple((j, w) for j, w in enumerate(row) if w is not None) for row in self._ints
            )
        return self._cell_rows

    @property
    def n(self) -> int:
        return len(self._ints)

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
    """Parse a matrix from JSON ({"n": ..., "rows": [[...], ...]}) or plain text.

    The plain-text form is n lines of n whitespace-separated tokens; each
    token is an integer, exact decimal, "p/q", or an ε token ("inf", "eps").
    Blank lines are skipped, and counted in the line numbers of errors.
    Each distinct token is decoded once to a (numerator, denominator) pair;
    D comes from the distinct finite values, and the rows and their finite
    cells (see the module docstring) are filled with the scaled ints.
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
    blanks = set()  # the ε tokens among them
    found = []  # per row: its finite columns and their tokens, or None and all its tokens
    n = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if not n:
            n, columns = len(tokens), range(len(tokens))
        elif len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        distinct = set(tokens)
        for token in distinct.difference(pairs):
            try:
                if pairs.setdefault(token, _decode_token(token)) is None:
                    blanks.add(token)
            except ParseError:
                _raise_leftmost_bad_entry(tokens, lineno)
        if 32 * (len(distinct) - len(blanks)) < n:
            # under one distinct finite value per 32 columns: find the finite columns in
            # one C-level pass over the tokens set() has hashed (ε's None is falsy, a pair
            # is not), and keep only their tokens; a narrower or denser row costs less
            # kept whole and mapped in one pass once D is known
            cols = tuple(compress(columns, map(pairs.__getitem__, tokens)))
            found.append((cols, tuple(map(tokens.__getitem__, cols))))
        else:
            found.append((None, tokens))
    if not n:
        raise ParseError("empty matrix input")
    if len(found) != n:
        raise ParseError(f"{len(found)} rows of {n} entries each do not form a square matrix")
    d = _common_denominator(pairs.values())
    scaled = {token: None if pair is None else pair[0] * (d // pair[1]) for token, pair in pairs.items()}
    ints, cells = [], []
    for i, (cols, kept) in enumerate(found):
        found[i] = None  # the row's tokens go as its ints come
        weights = tuple(map(scaled.__getitem__, kept))
        if cols is None:
            cells.append(tuple([(j, w) for j, w in enumerate(weights) if w is not None]))
        else:
            cells.append(tuple(zip(cols, weights)))
            row = [None] * n
            for j, w in zip(cols, weights):
                row[j] = w
            weights = tuple(row)
        ints.append(weights)
    return MinPlusMatrix._from_scaled(tuple(ints), d, tuple(cells))


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
