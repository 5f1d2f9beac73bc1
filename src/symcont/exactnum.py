"""Exact arithmetic in the quadratic field Q(sqrt 2).

Every number handled by the package is either a rational (``fractions.Fraction``)
or a ``QuadExt``: integers ``a, b, d`` denoting ``(a + b*sqrt(2))/d`` with
``d > 0`` and ``gcd(a, b, d) == 1``, so equal numbers have equal coordinates.
All arithmetic, comparison, and rendering is exact; no floats enter any decision.

The sign of ``a + b*sqrt(2)`` (integers) is decided without approximation:

* ``b == 0``: sign of ``a``.
* ``a == 0``: sign of ``b``.
* same signs: that common sign.
* opposite signs: compare ``a**2`` with ``2*b**2``; equality is impossible for
  nonzero integers because sqrt(2) is irrational.

``x < y`` is that sign for ``(a1*d2 - a2*d1) + (b1*d2 - b2*d1)*sqrt(2)``.
``_cmp`` computes it in one frame: it coerces the other operand (a QuadExt,
an int or a Fraction) and takes the sign inline, so each of the four
ordering operators costs one call. ``_sign`` serves ``sign()`` and ``abs``.

``order_key(x)`` is ``(floor(x * 2**64), x)``: the floor is taken on integers
as ``domains.exact_floor`` does (with ``isqrt``), never decreases as x grows,
and so orders any two numbers whose floors differ by integer comparison
alone; the rare equal floors fall back to the exact comparison of x.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from math import gcd

from .errors import ExactnessError, ParseError, SymcontError

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (optional sign, surrounding whitespace allowed)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    return str(q)


class _Coords:
    """Storage of a QuadExt, written only by ``_make`` before the retyping."""

    __slots__ = ("a", "b", "d")


_new = object.__new__


def _make(a: int, b: int, d: int) -> QuadExt:
    """``(a + b*sqrt2)/d`` with ``d > 0`` and ``gcd(a, b, d) == 1`` already."""
    x = _new(_Coords)
    x.a = a
    x.b = b
    x.d = d
    # QuadExt refuses attribute writes; retyping after the plain writes keeps
    # construction as cheap as for a mutable class
    x.__class__ = QuadExt
    return x


def _reduced(a: int, b: int, d: int) -> QuadExt:
    """``(a + b*sqrt2)/d`` for any ``d > 0``, brought to lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


def _sign(a: int, b: int) -> int:
    """Sign of ``a + b*sqrt(2)`` for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    aa = a * a
    bb = 2 * b * b
    if aa == bb:
        raise ExactnessError(f"{a}**2 == 2*{b}**2 would make sqrt(2) rational")
    return -sb if aa > bb else sb


def _cmp(x: QuadExt, other: object) -> int | None:
    """Sign of ``x - other``, without building the difference; None when
    other is not an exact number."""
    t = type(other)
    if t is QuadExt:
        oa, ob, od = other.a, other.b, other.d
    elif t is int:
        oa, ob, od = other, 0, 1
    elif isinstance(other, (int, Fraction)):
        oa, ob, od = int(other.numerator), 0, int(other.denominator)
    else:
        return None
    d = x.d
    if od == d:
        a, b = x.a - oa, x.b - ob
    else:
        a, b = x.a * od - oa * d, x.b * od - ob * d
    # the sign of a + b*sqrt2, as in _sign
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    aa = a * a
    bb = 2 * b * b
    if aa == bb:
        raise ExactnessError(f"{a}**2 == 2*{b}**2 would make sqrt(2) rational")
    return -sb if aa > bb else sb


def _ratio(value: object) -> tuple[int, int]:
    """Numerator and denominator in lowest terms of an int, a Fraction, or
    anything ``Fraction`` accepts (a string, a float)."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return int(value.numerator), int(value.denominator)


class QuadExt(_Coords):
    """The number ``(a + b*sqrt(2))/d``, built from rationals ``rat + irr*sqrt(2)``."""

    __slots__ = ()

    def __new__(cls, rat: Fraction | int = 0, irr: Fraction | int = 0) -> QuadExt:
        if type(rat) is int and type(irr) is int:
            return _make(rat, irr, 1)
        p, q = _ratio(rat)
        r, s = _ratio(irr)
        if q == s:
            return _make(p, r, q)
        d = math.lcm(q, s)
        return _make(p * (d // q), r * (d // s), d)

    @staticmethod
    def of(rat: Fraction | int | str, irr: Fraction | int | str = 0) -> QuadExt:
        return QuadExt(rat, irr)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("QuadExt is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return (_make, (self.a, self.b, self.d))

    @property
    def rat(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def irr(self) -> Fraction:
        return Fraction(self.b, self.d)

    def sign(self) -> int:
        return _sign(self.a, self.b)

    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: object) -> QuadExt:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = self.d
        if o.d == d:
            return _reduced(self.a + o.a, self.b + o.b, d)
        return _reduced(self.a * o.d + o.a * d, self.b * o.d + o.b * d, d * o.d)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadExt:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d = self.d
        if o.d == d:
            return _reduced(self.a - o.a, self.b - o.b, d)
        return _reduced(self.a * o.d - o.a * d, self.b * o.d - o.b * d, d * o.d)

    def __rsub__(self, other: object) -> QuadExt:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QuadExt:
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> QuadExt:
        if type(other) is int:
            return _reduced(self.a * other, self.b * other, self.d)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.a, self.b
        return _reduced(a * o.a + 2 * b * o.b, a * o.b + b * o.a, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> QuadExt:
        if type(other) is int and other:
            if other < 0:
                return _reduced(-self.a, -self.b, -other * self.d)
            return _reduced(self.a, self.b, other * self.d)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        p, q = o.a, o.b
        norm = p * p - 2 * q * q
        if norm == 0:
            if q == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt 2)")
            raise ExactnessError(f"{p}**2 == 2*{q}**2 would make sqrt(2) rational")
        # x/o = x * o.d * (p - q*sqrt2) / norm
        a, b = self.a * o.d, self.b * o.d
        if norm < 0:
            a, b, norm = -a, -b, -norm
        return _reduced(a * p - 2 * b * q, b * p - a * q, self.d * norm)

    def __rtruediv__(self, other: object) -> QuadExt:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __abs__(self) -> QuadExt:
        return -self if _sign(self.a, self.b) < 0 else self

    # -- comparison ---------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other: object) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other: object) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other: object) -> bool:
        c = _cmp(self, other)
        return NotImplemented if c is None else c >= 0

    def __eq__(self, other: object) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self) -> int:
        # a rational equals the int or Fraction of its value, so it hashes as
        # that; an irrational equals only a QuadExt, and its coordinates are
        # canonical. No output iterates a set or dict of QuadExt in hash order.
        if self.b == 0:
            return hash(self.a) if self.d == 1 else _rational_hash(self.a, self.d)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return self.a / self.d + self.b / self.d * math.sqrt(2.0)

    def __str__(self) -> str:
        return format_quadext(self)

    def __repr__(self) -> str:
        return f"QuadExt({self.rat!r}, {self.irr!r})"


_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _rational_hash(a: int, d: int) -> int:
    """``hash(Fraction(a, d))`` for ``a/d`` in lowest terms with ``d > 0``."""
    try:
        dinv = pow(d, -1, _HASH_MODULUS)
    except ValueError:
        # d is a multiple of the modulus: Fraction hashes such values as inf
        h = _HASH_INF
    else:
        h = hash(hash(abs(a)) * dinv)
    h = h if a >= 0 else -h
    return -2 if h == -1 else h


ZERO = QuadExt()
ONE = QuadExt(1)
SQRT2 = QuadExt(0, 1)


def _coerce(value: object) -> QuadExt | None:
    if type(value) is QuadExt:
        return value
    if type(value) is int:
        return _make(value, 0, 1)
    if isinstance(value, (int, Fraction)):
        return _make(int(value.numerator), 0, int(value.denominator))
    return None


def as_quadext(value: object) -> QuadExt:
    out = _coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as an exact number")
    return out


def compare(x: QuadExt, y: QuadExt) -> int:
    """-1, 0, or 1 according to the exact order of x and y."""
    return _cmp(as_quadext(x), as_quadext(y))


_KEY_SHIFT = 64


def order_key(x: QuadExt) -> tuple[int, QuadExt]:
    """``(floor(x * 2**64), x)``, a sort key that orders as x does.

    The floor is ``(a*2**64 + floor(b*2**64*sqrt2)) // d`` on integers, so
    keys whose floors differ compare without a QuadExt operation."""
    a, b = x.a << _KEY_SHIFT, x.b
    if b:
        # |B|*sqrt2 for B = b*2**64 is isqrt(2*B*B) plus a fraction in (0, 1)
        m = math.isqrt(2 * b * b << 2 * _KEY_SHIFT)
        a += m if b > 0 else -m - 1
    return (a // x.d, x)


def midpoint(x: QuadExt, y: QuadExt) -> QuadExt:
    return (x + y) / 2


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def format_quadext(x: QuadExt) -> str:
    """Render exactly: ``p/q`` when rational, else ``a + b*sqrt2`` / ``a - b*sqrt2``.

    A coordinate of more digits than the interpreter converts from int to
    str is a SymcontError, not a ValueError."""
    a, b, d = x.a, x.b, x.d
    try:
        if b == 0:
            # the coordinates are in lowest terms with d > 0, as str(Fraction) wants
            return str(a) if d == 1 else f"{a}/{d}"
        op = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)} {op} {_ratio_text(abs(b), d)}*sqrt2"
    except ValueError:
        bits = max(abs(a), abs(b), d).bit_length()
        raise SymcontError(
            f"cannot render a number with a coordinate of about "
            f"{math.ceil(bits * math.log10(2))} digits: the limit is "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


# The accepted forms, after surrounding whitespace is stripped, with p, q, r,
# s unsigned digit strings:
#   [+-]p[/q]                        a rational
#   [+-]p[/q] * sqrt2                a multiple of sqrt2
#   [+-]p[/q] (+|-) r[/s] * sqrt2    both parts; the coefficient is required
#                                    and the operator carries its sign
#   [+-] sqrt2                       sqrt2 itself, optionally signed
# Whitespace may stand around the operator and the "*" and after a sign
# before sqrt2, nowhere else.
_NUMBER = re.compile(
    r"(?:(?P<p>[+-]?\d+)(?:/(?P<q>\d+))?"
    r"(?:\s*(?P<op>[+-])\s*(?P<r>\d+)(?:/(?P<s>\d+))?\s*\*\s*sqrt2"
    r"|\s*(?P<times>\*)\s*sqrt2)?"
    r"|(?P<sign>[+-]?)\s*sqrt2)"
)


def _parse_int(digits: str) -> int:
    """``int(digits)``, with a ParseError where the interpreter's limit on
    int/str conversion refuses a number of too many digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"a number of {len(digits)} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def parse_quadext(text: str) -> QuadExt:
    """Inverse of :func:`format_quadext`, tolerant of extra whitespace."""
    m = _NUMBER.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"not an exact number: {text!r}")
    p, q, op, r, s, times, sign = m.groups()
    if p is None:
        return _make(0, -1 if sign == "-" else 1, 1)
    a = _parse_int(p)
    q = _parse_int(q) if q is not None else 1
    if r is None:
        if q == 0:
            raise ParseError(f"zero denominator in {text!r}")
        if times is None:
            return _reduced(a, 0, q)
        return _reduced(0, a, q)
    b = _parse_int(r)
    s = _parse_int(s) if s is not None else 1
    if q == 0 or s == 0:
        raise ParseError(f"zero denominator in {text!r}")
    if op == "-":
        b = -b
    d = math.lcm(q, s)
    return _reduced(a * (d // q), b * (d // s), d)
