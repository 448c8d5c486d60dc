"""Exact scalar arithmetic over the min-plus semiring (R ∪ {inf}, min, +).

Finite values are stored as exact rationals so that averages and slopes
compare without rounding. The additive identity ``inf`` (written ε in the
tropical-algebra literature) is a dedicated singleton, never a numeric
sentinel, because sentinel arithmetic breaks the absorbing law a ⊗ ε = ε.

Matrices and polynomials store their values in a scaled int form instead
(each value times a common D as an int, None for ε); the private helpers
here build that form and read values back out of it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from numbers import Rational

from .errors import ParseError

__all__ = [
    "MinPlusValue",
    "EPSILON",
    "E",
    "as_value",
    "oplus",
    "otimes",
    "otimes_inverse",
    "power",
    "parse_value",
    "format_rational",
]

_EPSILON_TOKENS = {"inf", "+inf", "infinity", "eps", "epsilon", "ε"}
_EXPONENT_LIMIT = 4300
# Python applies its int-to-string digit limit, at least 640, only past 640 digits;
# 1920 bits make at most 578 digits
_ALWAYS_PRINTABLE_BITS = 1920


class MinPlusValue:
    """An element of R_min: an exact rational, or the top element ``inf``.

    Instances are immutable and hashable. Ordering is total, with ``inf``
    greater than every finite value (it is the identity for ``min``).
    """

    __slots__ = ("_q",)

    def __init__(self, value):
        self._q = _rational(value)

    @property
    def is_epsilon(self) -> bool:
        return self._q is None

    @property
    def rational(self) -> Fraction:
        """The finite value as a Fraction; raises on ``inf``."""
        if self._q is None:
            raise ValueError("inf has no finite rational value")
        return self._q

    def __eq__(self, other):
        try:
            other = as_value(other)
        except (TypeError, ParseError):
            return NotImplemented
        return self._q == other._q

    def __lt__(self, other):
        other = as_value(other)
        if self._q is None:
            return False
        if other._q is None:
            return True
        return self._q < other._q

    def __le__(self, other):
        other = as_value(other)
        return self == other or self < other

    def __gt__(self, other):
        return as_value(other) < self

    def __ge__(self, other):
        return as_value(other) <= self

    def __hash__(self):
        return hash(self._q)

    def __repr__(self):
        return f"MinPlusValue({str(self)!r})"

    def __str__(self):
        if self._q is None:
            return "inf"
        return format_rational(self._q)

    def to_json(self):
        """JSON-ready form: int for integers, "p/q" string otherwise, "inf" for ε."""
        if self._q is None:
            return "inf"
        if self._q.denominator == 1:
            n = self._q.numerator
            if n.bit_length() > _ALWAYS_PRINTABLE_BITS:
                format_rational(self._q)  # json.dumps converts n later: raise the named error here
            return n
        return format_rational(self._q)


def _parse_token(token: str) -> Fraction | None:
    text = token.strip()
    lowered = text.lower()
    if lowered in _EPSILON_TOKENS:
        return None
    try:
        # Fraction reads "_" digit separators from Python 3.11 on only: they
        # are refused on every version, so the token language is one
        if "_" in text:
            raise ValueError("digit separator")
        # Fraction builds 10**exponent whatever its size: an exponent past
        # Python's default int-to-string digit limit is refused, as a longer
        # mantissa already is
        _, marker, exponent = lowered.partition("e")
        if marker and abs(int(exponent)) > _EXPONENT_LIMIT:
            raise ValueError("exponent too large")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a min-plus value: {token!r}") from exc


def _rational(value) -> Fraction | None:
    """The exact value of an int, Fraction, string, None or MinPlusValue:
    a Fraction, or None for ε. Raises TypeError or ParseError otherwise."""
    # exact classes first: a bool's class is bool, so it still meets its TypeError below
    if value.__class__ is Fraction:
        return value
    if value.__class__ is int:
        return Fraction(value)
    if isinstance(value, MinPlusValue):
        return value._q
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("booleans are not min-plus values")
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_token(value)
    if isinstance(value, float):
        raise TypeError(
            "floats are rejected to keep arithmetic exact; "
            "pass an int, Fraction, or a decimal/rational string"
        )
    raise TypeError(f"cannot interpret {value!r} as a min-plus value")


EPSILON = MinPlusValue(None)
E = MinPlusValue(0)


def _is_int(x) -> bool:
    """Whether x is an int and not a bool: a count, exponent or vertex label."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int(x, name: str) -> None:
    """Raise a TypeError that names the argument unless x is an int and not a bool."""
    if not _is_int(x):
        raise TypeError(f"{name} must be an int, not {x!r}")


def _ratio(q: Fraction | None) -> tuple[int, int] | None:
    """q as a (numerator, denominator) pair, None for ε."""
    return None if q is None else (q.numerator, q.denominator)


def _decode_token(token: str) -> tuple[int, int] | None:
    """A textual value as a (numerator, denominator) pair, None for ε.
    ASCII [-]digits and [-]digits/digits go through int() alone, with no
    Fraction built, and "p/q" keeps any common factor: the parsers'
    _from_scaled divides D and the ints by theirs. Every other token, and
    one of those forms with a zero denominator or past the int digit
    limit, takes _parse_token's route, so the accepted forms and the
    errors are _parse_token's."""
    if token.isascii():
        num, slash, den = token.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past the int digit limit
                pass
            else:
                if q:
                    return p, q
    return _ratio(_parse_token(token))


def _decode_cell(cell, pairs: dict) -> None:
    """Record in pairs, keyed by the cell, the pair of a decoded JSON cell:
    (cell, 1) for an int, _decode_token's for a string (once per distinct
    string), None for null. Every other cell type raises _rational's
    TypeError."""
    cls = cell.__class__
    if cls is int:
        pairs[cell] = (cell, 1)
    elif cls is str:
        if cell not in pairs:
            pairs[cell] = _decode_token(cell)
    elif cell is None:
        pairs[None] = None
    else:
        pairs[cell] = _ratio(_rational(cell))  # raises for JSON's floats, booleans, lists and objects


def _common_denominator(pairs) -> int:
    """D of the scaled int form: the least common multiple of the
    denominators of the finite values ((numerator, denominator) pairs,
    None for ε), 1 with none. From reduced pairs D is canonical, so equal
    value sequences have equal scaled forms; from unreduced ones it is a
    multiple of that, which _from_scaled divides out."""
    return lcm(*{pair[1] for pair in pairs if pair is not None})


def _scaled(pair: tuple[int, int] | None, d: int) -> int | None:
    """A pair's value times D as an int (D a multiple of its denominator),
    None for ε."""
    return None if pair is None else pair[0] * (d // pair[1])


def _unscaled(w: int | None, d: int) -> MinPlusValue:
    """A value of the scaled int form as a min-plus value: w / d, or ε for None."""
    return EPSILON if w is None else MinPlusValue(Fraction(w, d))


def as_value(x) -> MinPlusValue:
    """Coerce an int, Fraction, string, or None to a MinPlusValue."""
    if isinstance(x, MinPlusValue):
        return x
    return MinPlusValue(x)


def parse_value(text: str) -> MinPlusValue:
    """Parse a textual value: integer, exact decimal, "p/q", or an ε token."""
    return MinPlusValue(_parse_token(text))


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or plain integer when the denominator is 1.

    Raises ValueError naming the limit when a part has more digits than
    Python converts to text (sys.get_int_max_str_digits()).
    """
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            "Python's int-to-string digit limit, and cannot be printed"
        ) from None


def oplus(a, b) -> MinPlusValue:
    """Min-plus addition: the minimum of the two operands."""
    a, b = as_value(a), as_value(b)
    return a if a <= b else b


def otimes(a, b) -> MinPlusValue:
    """Min-plus multiplication: ordinary addition, with ε absorbing."""
    a, b = as_value(a), as_value(b)
    if a._q is None or b._q is None:
        return EPSILON
    return MinPlusValue(a._q + b._q)


def otimes_inverse(a) -> MinPlusValue:
    """The ⊗-inverse (negation) of a finite value."""
    a = as_value(a)
    if a._q is None:
        raise ValueError("epsilon has no ⊗-inverse")
    return MinPlusValue(-a._q)


def power(a, k: int) -> MinPlusValue:
    """k-fold ⊗-product of a with itself: k·a, with a^0 = 0 for every a."""
    a = as_value(a)
    if not _is_int(k) or k < 0:
        raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
    if k == 0:
        return E
    if a._q is None:
        return EPSILON
    return MinPlusValue(a._q * k)
