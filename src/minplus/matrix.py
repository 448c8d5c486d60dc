r"""Square matrices over the min-plus semiring.

Matrices are immutable: every operation returns a new matrix. A matrix
doubles as the weighted adjacency matrix of a directed weighted graph,
with ε entries standing for absent edges.

A matrix holds one int form, its finite cells (``_cells``): per row, the
(column, weight times D) pairs of its finite entries in column order,
columns from 0, where D is the least common multiple of the reduced
denominators of the finite entries (1 when there are none). D is
canonical, so equal matrices have equal cells. The parsers build the
cells straight from the distinct tokens of the input; the entries as
min-plus values (``rows``) are built only when asked for, and a kernel
that reads dense rows builds its own (``_dense``).

The finite cells also give the strongly connected classes of the
matrix's graph (``_classes``): one Tarjan pass, made on first use and
kept with the matrix, which the tropdet kernels and the graph kernels of
``network`` share.

The text parser reads a line, ended by "\n", "\r\n" or "\r" only, in
one of two ways. In a matrix of order n over 32, a row after the first
in which fewer than n/32 tokens are other than one ε spelling already
decoded is read by C-level str methods, with no string made per ε:
only its other tokens are decoded, and their columns counted. Any
other row, or one that fails a check of that reading, is split into
all its tokens, so its errors are reported as before. Either way its
finite cells are kept in C-level passes. So an ε-heavy matrix reaches
its graph (``network_from_matrix``), its circuits and its cycle mean
with Python work in its finite cells alone.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter

from .errors import ParseError, decode_json
from .semiring import (
    MinPlusValue,
    _check_int,
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

# a strongly connected class: each vertex's (head, weight times D) pairs inside it
_Component = dict[int, tuple[tuple[int, int], ...]]


class MinPlusMatrix:
    """An n-by-n matrix of min-plus values, held as (cells, D)."""

    __slots__ = ("_cells", "_d", "_rows", "_class_list")

    def __init__(self, rows):
        values = tuple(tuple(_ratio(_rational(x)) for x in row) for row in rows)
        n = len(values)
        if n == 0:
            raise ValueError("matrix order must be at least 1")
        for row in values:
            if len(row) != n:
                raise ValueError(f"matrix must be square, got a row of length {len(row)} in an order-{n} matrix")
        d = _common_denominator(chain.from_iterable(values))
        self._cells = tuple(tuple((j, _scaled(pair, d)) for j, pair in enumerate(row) if pair is not None) for row in values)
        self._d = d
        self._rows = self._class_list = None

    @classmethod
    def _from_scaled(cls, cells, d: int) -> "MinPlusMatrix":
        """The matrix held as its finite cells over d, with nothing
        coerced: cells is per row a tuple of its (column, weight times d)
        int pairs in column order. d and the weights are divided by their
        common factor, so D is canonical."""
        if d > 1:
            g = gcd(d, *map(itemgetter(1), chain.from_iterable(cells)))
            if g > 1:
                cells = tuple(tuple((j, w // g) for j, w in row) for row in cells)
                d //= g
        matrix = object.__new__(cls)
        matrix._cells, matrix._d, matrix._rows, matrix._class_list = cells, d, None, None
        return matrix

    @property
    def _classes(self) -> list[_Component]:
        """Each strongly connected class of the matrix's graph that holds a
        circuit, as its vertices' internal (column, weight times D) pairs
        (``_strongly_connected_components``): one Tarjan pass over the
        finite cells on first use, which every kernel that reads the
        classes shares."""
        if self._class_list is None:
            self._class_list = _strongly_connected_components(self._cells)
        return self._class_list

    @property
    def n(self) -> int:
        return len(self._cells)

    @property
    def rows(self) -> tuple[tuple[MinPlusValue, ...], ...]:
        if self._rows is None:
            d = self._d
            self._rows = tuple(tuple(_unscaled(w, d) for w in row) for row in _dense(self._cells))
        return self._rows

    def __getitem__(self, index) -> MinPlusValue:
        i, j = index
        # indexed as a tuple is: j < 0 counts from the end, and j outside -n..n-1 raises IndexError
        return _unscaled(dict(self._cells[i]).get(range(self.n)[j]), self._d)

    def __eq__(self, other):
        if not isinstance(other, MinPlusMatrix):
            return NotImplemented
        return self._d == other._d and self._cells == other._cells

    def __hash__(self):
        return hash((self._d, self._cells))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"MinPlusMatrix({self.n}x{self.n}: {body})"

    def principal_submatrix(self, indices) -> "MinPlusMatrix":
        """Restriction to the given (0-based) rows and columns: distinct
        ints in 0..n-1, in any order."""
        pos: dict[int, int] = {}  # each index's place in the submatrix
        for i in indices:
            if not _is_int(i) or not 0 <= i < self.n or i in pos:
                raise ValueError(f"bad principal submatrix index {i!r}: need distinct ints in 0..{self.n - 1}")
            pos[i] = len(pos)
        if not pos:
            raise ValueError("matrix order must be at least 1")
        cells = self._cells
        return MinPlusMatrix._from_scaled(
            tuple(tuple(sorted((pos[j], w) for j, w in cells[i] if j in pos)) for i in pos), self._d
        )

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [[x.to_json() for x in row] for row in self.rows]}


def _dense(cells) -> list[list[int | None]]:
    """The dense rows of finite cells: per row, every entry as its int,
    None for ε."""
    rows = []
    for row_cells in cells:
        row: list[int | None] = [None] * len(cells)
        for j, w in row_cells:
            row[j] = w
        rows.append(row)
    return rows


def identity(n: int) -> MinPlusMatrix:
    """The ⊗-identity: 0 on the diagonal, ε elsewhere."""
    _check_order(n)
    return MinPlusMatrix._from_scaled(tuple(((i, 0),) for i in range(n)), 1)


def epsilon_matrix(n: int) -> MinPlusMatrix:
    """The ⊕-identity: every entry ε."""
    _check_order(n)
    return MinPlusMatrix._from_scaled(((),) * n, 1)


def _check_order(n) -> None:
    _check_int(n, "matrix order")
    if n < 1:
        raise ValueError("matrix order must be at least 1")


def _check_same_order(a: MinPlusMatrix, b: MinPlusMatrix):
    if a.n != b.n:
        raise ValueError(f"matrix order mismatch: {a.n} vs {b.n}")


def _rescaled(a: MinPlusMatrix, d: int):
    """a's finite cells in units of 1/d, for a multiple d of a's D."""
    f = d // a._d
    if f == 1:
        return a._cells
    return tuple(tuple((j, w * f) for j, w in row) for row in a._cells)


def mat_oplus(a: MinPlusMatrix, b: MinPlusMatrix) -> MinPlusMatrix:
    """Entrywise minimum."""
    _check_same_order(a, b)
    d = lcm(a._d, b._d)
    cells = []
    for ra, rb in zip(_rescaled(a, d), _rescaled(b, d)):
        row = dict(ra)
        for j, w in rb:
            if j not in row or w < row[j]:
                row[j] = w
        cells.append(tuple(sorted(row.items())))
    return MinPlusMatrix._from_scaled(tuple(cells), d)


def mat_otimes(a: MinPlusMatrix, b: MinPlusMatrix) -> MinPlusMatrix:
    """Min-plus matrix product: [ab]_ij = min_l (a_il + b_lj)."""
    _check_same_order(a, b)
    d = lcm(a._d, b._d)
    product = _int_product(_dense(_rescaled(a, d)), _rescaled(b, d))
    return MinPlusMatrix._from_scaled(
        tuple(tuple((j, w) for j, w in enumerate(row) if w is not None) for row in product), d
    )


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


def _strongly_connected_components(succ) -> list[_Component]:
    """Tarjan's algorithm, iterative, on a graph given as succ[v], the
    (head, w) pairs of each vertex v: a dict, or a sequence over vertices
    0..len - 1, every head a vertex. Each component that holds a circuit
    comes out as {v: the pairs of v whose head is in the component}."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[_Component] = []
    for root in succ if isinstance(succ, dict) else range(len(succ)):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, edge_iter = work[-1]
            for head, _ in edge_iter:
                if head not in index:
                    index[head] = low[head] = len(index)
                    stack.append(head)
                    on_stack.add(head)
                    work.append((head, iter(succ[head])))
                    break
                if head in on_stack and index[head] < low[v]:
                    low[v] = index[head]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    members = {v}
                    while (w := stack.pop()) != v:
                        members.add(w)
                    on_stack -= members
                    if len(members) == len(succ):  # the whole graph: every pair is inside
                        component = {u: tuple(succ[u]) for u in members}
                    else:
                        component = {u: tuple([p for p in succ[u] if p[0] in members]) for u in members}
                    if len(members) > 1 or component[v]:
                        components.append(component)
    return components


def _single_circuit(component: _Component) -> tuple[int, int] | None:
    """(length, weight) of a strongly connected class that is one circuit,
    None for any other class that holds a circuit.

    A class is one circuit iff it has as many internal edges as vertices,
    i.e. every vertex has one internal out-edge: k vertices and k internal
    edges make one circuit, and a vertex with two internal out-edges
    (v, u) and (v, u') lies on two circuits, each closed by a path back to
    v inside the class.
    """
    if all(len(pairs) == 1 for pairs in component.values()):
        return len(component), sum(w for [(_, w)] in component.values())
    return None


def scalar_otimes(alpha, a: MinPlusMatrix) -> MinPlusMatrix:
    """Add a scalar to every entry (ε entries stay ε)."""
    alpha = _ratio(_rational(alpha))
    if alpha is None:
        return epsilon_matrix(a.n)
    d = lcm(a._d, alpha[1])
    shift = _scaled(alpha, d)
    return MinPlusMatrix._from_scaled(tuple(tuple((j, w + shift) for j, w in row) for row in _rescaled(a, d)), d)


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
    diagonal = [w for i, row in enumerate(a._cells) for j, w in row if j == i]
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
    cells = tuple(tuple((j, w) for j, w in enumerate(map(scaled.__getitem__, row)) if w is not None) for row in rows)
    return MinPlusMatrix._from_scaled(cells, d)


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
    return MinPlusMatrix._from_scaled(tuple(cells), d)


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
