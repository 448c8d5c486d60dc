"""Min-plus polynomials and their linear factorization.

A degree-n polynomial with coefficients c_0..c_n (c_j attached to x^{n-j})
is the piecewise-linear function

    p(x) = min_j ( c_j + (n-j)*x ).

Its roots are the x-coordinates of the breakpoints of that function, with
multiplicity equal to the slope drop. Canonicalization replaces the
coefficient sequence by its lower convex hull over the points (j, c_j),
which preserves the function exactly and makes the successive coefficient
differences non-decreasing, the precise condition under which the
polynomial splits into linear factors (x ⊕ root) times a power of x.

Like a matrix, a polynomial is stored once in the scaled int form: each
coefficient times D as an int, None for ε, with D the least common
multiple of the reduced denominators of the finite coefficients. The
lower hull runs on those ints; the coefficients as min-plus values
(``coeffs``) are built only when asked for. The roots come from that hull
once: ``factorize`` turns each segment's ints into its root, and
``eigenvalue_from_charpoly`` takes the least of them. ``Factorization(...)``
checks its roots as Fractions, whoever builds it. ``expand`` sums the roots
as ints, in units of the lcm of their denominators, and returns the product
in the scaled form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import ParseError, decode_json
from .semiring import (
    E,
    MinPlusValue,
    _check_int,
    _common_denominator,
    _decode_cell,
    _is_int,
    _ratio,
    _rational,
    _scaled,
    _unscaled,
    as_value,
)

__all__ = [
    "MinPlusPolynomial",
    "Factorization",
    "evaluate",
    "canonicalize",
    "is_equivalent",
    "factorize",
    "expand",
    "breakpoints",
    "parse_polynomial",
    "format_polynomial",
    "format_factorization",
]


class MinPlusPolynomial:
    """Coefficient sequence c_0..c_n of a degree-n min-plus polynomial,
    held as (ints, D)."""

    __slots__ = ("_ints", "_d", "_coeffs")

    def __init__(self, coeffs):
        values = tuple(_ratio(_rational(c)) for c in coeffs)
        if not values:
            raise ValueError("a polynomial needs at least one coefficient")
        d = _common_denominator(values)
        self._ints = tuple(_scaled(pair, d) for pair in values)
        self._d = d
        self._coeffs = None

    @classmethod
    def _from_scaled(cls, ints, d: int) -> "MinPlusPolynomial":
        """The polynomial with coefficients ints / d, from a non-empty
        tuple of ints and None, with nothing coerced; d and the ints are
        divided by their common factor, so D is canonical."""
        g = gcd(d, *filter(None, ints)) if d > 1 else 1
        if g > 1:
            ints = tuple(None if w is None else w // g for w in ints)
        poly = object.__new__(cls)
        poly._ints, poly._d, poly._coeffs = ints, d // g, None
        return poly

    @property
    def degree(self) -> int:
        return len(self._ints) - 1

    @property
    def coeffs(self) -> tuple[MinPlusValue, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(_unscaled(w, self._d) for w in self._ints)
        return self._coeffs

    @property
    def is_monic(self) -> bool:
        return self._ints[0] == 0

    def __eq__(self, other):
        if not isinstance(other, MinPlusPolynomial):
            return NotImplemented
        return self._d == other._d and self._ints == other._ints

    def __hash__(self):
        return hash((self._d, self._ints))

    def __repr__(self):
        return f"MinPlusPolynomial({[str(c) for c in self.coeffs]})"

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [c.to_json() for c in self.coeffs]}


@dataclass(frozen=True)
class Factorization:
    """Linear factors (x ⊕ root)^multiplicity, roots strictly increasing,
    together with a trailing x^xpower factor."""

    factors: tuple[tuple[MinPlusValue, int], ...]
    xpower: int

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple((as_value(root), mult) for root, mult in self.factors)
        )
        for root, mult in self.factors:
            if not _is_int(mult):
                raise TypeError(f"multiplicities must be ints, not {mult!r}")
            if root.is_epsilon:
                raise ValueError("factor roots must be finite")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
        roots = [root._q for root, _ in self.factors]
        if any(not a < b for a, b in zip(roots, roots[1:])):
            raise ValueError("roots must be strictly increasing")
        _check_int(self.xpower, "x-power")
        if self.xpower < 0:
            raise ValueError("x-power must be nonnegative")

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.factors) + self.xpower

    def to_json(self) -> dict:
        return {
            "factors": [
                {"root": root.to_json(), "multiplicity": mult} for root, mult in self.factors
            ],
            "xpower": self.xpower,
        }


def evaluate(p: MinPlusPolynomial, x) -> MinPlusValue:
    """Value of the piecewise-linear function at x, ε-aware.

    One pass over the finite coefficients on ints, min of c_j + (n-j)·x
    with x = a/b, all scaled by b·D. At x = ε every term with a positive
    power of x is ε, so the value is the constant coefficient c_n (x^0 =
    0); with no finite coefficient the value is ε.
    """
    x = _rational(x)
    n, d = p.degree, p._d
    if x is None:
        return _unscaled(p._ints[n], d)
    a, b = x.numerator * d, x.denominator
    terms = [c * b + (n - j) * a for j, c in enumerate(p._ints) if c is not None]
    return _unscaled(min(terms, default=None), b * d)


def _require_monic(p: MinPlusPolynomial):
    if not p.is_monic:
        raise ValueError("polynomial must be monic (leading coefficient 0)")


def _hull_corners(p: MinPlusPolynomial) -> list[tuple[int, int]]:
    """Vertices of the lower convex hull of the finite points (j, c_j).

    Andrew's monotone chain over the finite points in index order, O(n),
    on the scaled ints of p: the last corner j (after i) is popped while
    the new point k does not lie strictly above the line through i and j,
    i.e. while (c_j - c_i)(k - j) >= (c_k - c_j)(j - i). Collinear middle
    points are dropped, so segment slopes strictly increase. ε coefficients
    are skipped; a trailing run of ε leaves the hull short of index n,
    which callers read as an x^r factor. Corners are (j, c_j·D).
    """
    hull: list[tuple[int, int]] = []
    for k, ck in enumerate(p._ints):
        if ck is None:
            continue
        while len(hull) > 1:
            (i, ci), (j, cj) = hull[-2], hull[-1]
            if (cj - ci) * (k - j) < (ck - cj) * (j - i):
                break
            hull.pop()
        hull.append((k, ck))
    return hull


def canonicalize(p: MinPlusPolynomial) -> MinPlusPolynomial:
    """Equivalent polynomial whose coefficients lie on the lower hull.

    The output represents the same function and satisfies the linear-
    factorization chain c'_1 <= c'_2 - c'_1 <= ... over its finite prefix;
    any trailing ε coefficients correspond to a factor x^r.
    """
    _require_monic(p)
    corners = _hull_corners(p)
    segments = list(zip(corners, corners[1:]))
    # c_l = c_i + (l - i)(c_k - c_i)/(k - i) on the segment from i to k: in units of 1/(span·D)
    span = lcm(*(k - i for (i, _), (k, _) in segments))
    out: list[int | None] = [None] * (p.degree + 1)
    out[0] = 0
    for (i, ci), (k, ck) in segments:
        f = span // (k - i)
        for ell in range(i + 1, k + 1):
            out[ell] = (ci * (k - i) + (ell - i) * (ck - ci)) * f
    return MinPlusPolynomial._from_scaled(tuple(out), span * p._d)


def is_equivalent(p: MinPlusPolynomial, q: MinPlusPolynomial) -> bool:
    """Whether p and q are the same piecewise-linear function."""
    if p.degree != q.degree:
        return False
    return canonicalize(p) == canonicalize(q)


def factorize(p: MinPlusPolynomial) -> Factorization:
    """Split into linear factors (x ⊕ root)^mult times x^r.

    Roots are the hull segment slopes (equivalently the breakpoint
    x-coordinates), multiplicities the segment lengths; trailing ε
    coefficients become the x^r factor.
    """
    _require_monic(p)
    corners = _hull_corners(p)
    factors = tuple(
        (MinPlusValue(Fraction(ck - ci, (k - i) * p._d)), k - i)
        for (i, ci), (k, ck) in zip(corners, corners[1:])
    )
    return Factorization(factors=factors, xpower=p.degree - corners[-1][0])


def expand(f: Factorization) -> MinPlusPolynomial:
    """Multiply the linear factors back out; the result is canonical.

    Coefficient c_j of the product is the minimum over j-subsets of the
    root multiset of their sum, which for sorted roots is the sum of the j
    smallest; coefficients past the root count are ε (the x^r factor).
    The sums run on the roots times D, the lcm of their denominators.
    """
    ratios = [(_ratio(root._q), mult) for root, mult in f.factors]
    d = _common_denominator(pair for pair, _ in ratios)
    steps = [_scaled(pair, d) for pair, mult in ratios for _ in range(mult)]
    return MinPlusPolynomial._from_scaled(tuple(accumulate(steps, initial=0)) + (None,) * f.xpower, d)


def breakpoints(p: MinPlusPolynomial) -> list[tuple[Fraction, Fraction, int, int]]:
    """Breakpoints of the function as (x, y, slope_left, slope_right).

    Sorted by increasing x. Slopes are the integer x-coefficients of the
    adjacent linear pieces; a polynomial describing a single line has no
    breakpoints.
    """
    n, d = p.degree, p._d
    corners = _hull_corners(p)
    points = []
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        # the lines of i and k meet at x = (c_k - c_i)/(k - i), y = c_i + (n - i)·x
        x = Fraction(ck - ci, (k - i) * d)
        y = Fraction(ci * (k - i) + (n - i) * (ck - ci), (k - i) * d)
        points.append((x, y, n - i, n - k))
    return points


def parse_polynomial(text: str) -> MinPlusPolynomial:
    """Parse the JSON form {"degree": n, "coeffs": [c_0, ..., c_n]}."""
    return _polynomial_from_json(decode_json(text))


def _polynomial_from_json(obj) -> MinPlusPolynomial:
    """Validate a decoded polynomial JSON object and build the polynomial,
    decoding each distinct coefficient cell once to a (numerator,
    denominator) pair."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError('polynomial JSON must be an object with a "coeffs" field')
    raw = obj["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise ParseError('"coeffs" must be a non-empty list')
    pairs: dict = {}
    for idx, cell in enumerate(raw):
        try:
            _decode_cell(cell, pairs)
        except (ParseError, TypeError) as exc:
            raise ParseError(f"bad coefficient {cell!r} at index {idx}: {exc}") from exc
    degree = obj.get("degree", len(raw) - 1)
    if not _is_int(degree):
        raise ParseError(f'"degree" must be an integer, got {degree!r}')
    if degree != len(raw) - 1:
        raise ParseError(f'"degree" is {degree} but {len(raw)} coefficients were given')
    d = _common_denominator(pairs.values())
    scaled = {cell: _scaled(pair, d) for cell, pair in pairs.items()}
    return MinPlusPolynomial._from_scaled(tuple(map(scaled.__getitem__, raw)), d)


def format_polynomial(p: MinPlusPolynomial) -> str:
    """Human-readable form such as "x^7 ⊕ 3⊗x^6 ⊕ 20⊗x^3" (ε terms omitted)."""
    n = p.degree
    terms = []
    for j, c in enumerate(p.coeffs):
        if c.is_epsilon:
            continue
        k = n - j
        if k == 0:
            terms.append(str(c))
        else:
            xpart = "x" if k == 1 else f"x^{k}"
            if c == E and j == 0:
                terms.append(xpart)
            else:
                terms.append(f"{c}⊗{xpart}")
    if not terms:
        return "inf"
    return " ⊕ ".join(terms)


def format_factorization(f: Factorization) -> str:
    """Human-readable product form such as "(x ⊕ 2)^3 ⊗ (x ⊕ 14) ⊗ x^3"."""
    parts = []
    for root, mult in f.factors:
        base = f"(x ⊕ {root})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if f.xpower == 1:
        parts.append("x")
    elif f.xpower > 1:
        parts.append(f"x^{f.xpower}")
    if not parts:
        return "e"
    return " ⊗ ".join(parts)
