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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ParseError
from .semiring import (
    EPSILON,
    E,
    MinPlusValue,
    as_value,
    parse_value,
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
    """Coefficient sequence c_0..c_n of a degree-n min-plus polynomial."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        converted = tuple(as_value(c) for c in coeffs)
        if not converted:
            raise ValueError("a polynomial needs at least one coefficient")
        self._coeffs = converted

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[MinPlusValue, ...]:
        return self._coeffs

    @property
    def is_monic(self) -> bool:
        return self._coeffs[0] == E

    def __eq__(self, other):
        if not isinstance(other, MinPlusPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"MinPlusPolynomial({[str(c) for c in self._coeffs]})"

    def to_json(self) -> dict:
        return {"degree": self.degree, "coeffs": [c.to_json() for c in self._coeffs]}


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
            if root.is_epsilon:
                raise ValueError("factor roots must be finite")
            if mult < 1:
                raise ValueError("multiplicities must be positive")
        roots = [root for root, _ in self.factors]
        if any(not a < b for a, b in zip(roots, roots[1:])):
            raise ValueError("roots must be strictly increasing")
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

    One pass over the finite coefficients on Fractions, min of
    c_j + (n-j)·x. At x = ε every term with a positive power of x is ε, so
    the value is the constant coefficient c_n (x^0 = 0); with no finite
    coefficient the value is ε.
    """
    x = as_value(x)
    n = p.degree
    if x.is_epsilon:
        return p.coeffs[n]
    q = x.rational
    terms = [c.rational + (n - j) * q for j, c in enumerate(p.coeffs) if not c.is_epsilon]
    return MinPlusValue(min(terms)) if terms else EPSILON


def _require_monic(p: MinPlusPolynomial):
    if not p.is_monic:
        raise ValueError("polynomial must be monic (leading coefficient 0)")


def _hull_corners(coeffs) -> list[tuple[int, Fraction]]:
    """Vertices of the lower convex hull of the finite points (j, c_j).

    Andrew's monotone chain over the finite points in index order, O(n):
    the coefficients are scaled once by the LCM D of their denominators,
    so the chain runs on ints, and the last corner j (after i) is popped
    while the new point k does not lie strictly above the line through i
    and j, i.e. while (c_j - c_i)(k - j) >= (c_k - c_j)(j - i). Collinear
    middle points are dropped, so segment slopes strictly increase. ε
    coefficients are skipped; a trailing run of ε leaves the hull short of
    index n, which callers read as an x^r factor. Corners are returned as
    (j, c_j) with c_j divided back exactly by D.
    """
    finite = [(j, c.rational) for j, c in enumerate(coeffs) if not c.is_epsilon]
    scale = lcm(*(c.denominator for _, c in finite))
    hull: list[tuple[int, int]] = []
    for k, c in finite:
        ck = c.numerator * (scale // c.denominator)
        while len(hull) > 1:
            (i, ci), (j, cj) = hull[-2], hull[-1]
            if (cj - ci) * (k - j) < (ck - cj) * (j - i):
                break
            hull.pop()
        hull.append((k, ck))
    return [(j, Fraction(c, scale)) for j, c in hull]


def canonicalize(p: MinPlusPolynomial) -> MinPlusPolynomial:
    """Equivalent polynomial whose coefficients lie on the lower hull.

    The output represents the same function and satisfies the linear-
    factorization chain c'_1 <= c'_2 - c'_1 <= ... over its finite prefix;
    any trailing ε coefficients correspond to a factor x^r.
    """
    _require_monic(p)
    n = p.degree
    corners = _hull_corners(p.coeffs)
    out: list[MinPlusValue] = [EPSILON] * (n + 1)
    out[0] = E
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        slope = Fraction(ck - ci, k - i)
        for ell in range(i + 1, k + 1):
            out[ell] = MinPlusValue(ci + (ell - i) * slope)
    return MinPlusPolynomial(tuple(out))


def is_equivalent(p: MinPlusPolynomial, q: MinPlusPolynomial) -> bool:
    """Whether p and q are the same piecewise-linear function."""
    if p.degree != q.degree:
        return False
    return canonicalize(p).coeffs == canonicalize(q).coeffs


def factorize(p: MinPlusPolynomial) -> Factorization:
    """Split into linear factors (x ⊕ root)^mult times x^r.

    Roots are the hull segment slopes (equivalently the breakpoint
    x-coordinates), multiplicities the segment lengths; trailing ε
    coefficients become the x^r factor.
    """
    _require_monic(p)
    n = p.degree
    corners = _hull_corners(p.coeffs)
    factors = []
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        slope = Fraction(ck - ci, k - i)
        factors.append((MinPlusValue(slope), k - i))
    last_index = corners[-1][0]
    return Factorization(factors=tuple(factors), xpower=n - last_index)


def expand(f: Factorization) -> MinPlusPolynomial:
    """Multiply the linear factors back out; the result is canonical.

    Coefficient c_j of the product is the minimum over j-subsets of the
    root multiset of their sum, which for sorted roots is the sum of the j
    smallest; coefficients past the root count are ε (the x^r factor).
    """
    roots: list[Fraction] = []
    for root, mult in f.factors:
        roots.extend([root.rational] * mult)
    n = f.degree
    coeffs: list[MinPlusValue] = [E]
    total = Fraction(0)
    for r in roots:
        total += r
        coeffs.append(MinPlusValue(total))
    coeffs.extend([EPSILON] * (n - len(roots)))
    return MinPlusPolynomial(tuple(coeffs))


def breakpoints(p: MinPlusPolynomial) -> list[tuple[Fraction, Fraction, int, int]]:
    """Breakpoints of the function as (x, y, slope_left, slope_right).

    Sorted by increasing x. Slopes are the integer x-coefficients of the
    adjacent linear pieces; a polynomial describing a single line has no
    breakpoints.
    """
    n = p.degree
    corners = _hull_corners(p.coeffs)
    points = []
    for (i, ci), (k, ck) in zip(corners, corners[1:]):
        x = Fraction(ck - ci, k - i)
        y = ci + (n - i) * x
        points.append((x, y, n - i, n - k))
    return points


def parse_polynomial(text: str) -> MinPlusPolynomial:
    """Parse the JSON form {"degree": n, "coeffs": [c_0, ..., c_n]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    return _polynomial_from_json(obj)


def _polynomial_from_json(obj) -> MinPlusPolynomial:
    """Validate a decoded polynomial JSON object and build the polynomial."""
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError('polynomial JSON must be an object with a "coeffs" field')
    raw = obj["coeffs"]
    if not isinstance(raw, list) or not raw:
        raise ParseError('"coeffs" must be a non-empty list')
    coeffs = []
    for idx, cell in enumerate(raw):
        try:
            if isinstance(cell, str):
                coeffs.append(parse_value(cell))
            else:
                coeffs.append(as_value(cell))
        except (ParseError, TypeError) as exc:
            raise ParseError(f"bad coefficient {cell!r} at index {idx}: {exc}") from exc
    degree = obj.get("degree", len(coeffs) - 1)
    if degree != len(coeffs) - 1:
        raise ParseError(f'"degree" is {degree} but {len(coeffs)} coefficients were given')
    return MinPlusPolynomial(tuple(coeffs))


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
