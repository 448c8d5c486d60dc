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
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .errors import ParseError, decode_json
from .semiring import (
    MinPlusValue,
    _common_denominator,
    _decode_cell,
    _decode_token,
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

    __slots__ = ("_ints", "_d", "_rows")

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
        self._rows = None

    @classmethod
    def _from_scaled(cls, ints, d: int) -> "MinPlusMatrix":
        """The matrix ints / d from a square tuple of int-or-None tuples,
        with nothing coerced; d and the entries are divided by their common
        factor, so D is canonical."""
        g = gcd(d, *filter(None, chain.from_iterable(ints))) if d > 1 else 1
        if g > 1:
            ints = tuple(tuple(None if w is None else w // g for w in row) for row in ints)
        matrix = object.__new__(cls)
        matrix._ints, matrix._d, matrix._rows = ints, d // g, None
        return matrix

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
    succ = [[(j, w) for j, w in enumerate(row) if w is not None] for row in _rescaled(b, d)]
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
    if not isinstance(k, int) or k < 0:
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
    Each distinct token is decoded once to a (numerator, denominator) pair;
    D comes from the distinct finite values, and the rows are filled with
    their scaled ints.
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
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty matrix input")
    n = len(lines[0].split())
    pairs: dict = {}
    # each distinct token as one shared string: a row holds these, not its split() list
    canonical: dict = {}
    rows = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"expected {n} entries, found {len(tokens)}", line=lineno)
        bad = {}
        for token in set(tokens).difference(pairs):
            try:
                pairs[token] = _decode_token(token)
                canonical[token] = token
            except ParseError as exc:
                bad[token] = exc
        if bad:
            token = min(bad, key=tokens.index)  # the leftmost bad entry
            raise ParseError(
                f"bad matrix entry {token!r}", line=lineno, column=tokens.index(token) + 1
            ) from bad[token]
        rows.append(tuple(map(canonical.__getitem__, tokens)))
    if len(lines) != n:
        raise ParseError(f"{len(lines)} rows of {n} entries each do not form a square matrix")
    d = _common_denominator(pairs.values())
    scaled = {token: _scaled(pair, d) for token, pair in pairs.items()}
    for i, row in enumerate(rows):
        rows[i] = tuple(map(scaled.__getitem__, row))
    return MinPlusMatrix._from_scaled(tuple(rows), d)


def load_matrix(path) -> MinPlusMatrix:
    """Read a matrix file in either supported format."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_matrix(handle.read())
