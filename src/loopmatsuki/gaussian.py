"""Exact arithmetic in the field Q(i) of Gaussian rationals.

A scalar is a pair of ``fractions.Fraction`` values (real and imaginary
part).  All arithmetic is exact; there is no floating point anywhere in
this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

_FracLike = Union[int, Fraction]


class QI:
    """A Gaussian rational ``re + im*i`` with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: _FracLike = 0, im: _FracLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QI is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def of(x: "QI | _FracLike") -> "QI":
        if isinstance(x, QI):
            return x
        return QI(x)

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other) -> "QI":
        o = QI.of(other)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def __sub__(self, other) -> "QI":
        o = QI.of(other)
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "QI":
        return QI.of(other) - self

    def __mul__(self, other) -> "QI":
        o = QI.of(other)
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def inv(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return QI(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "QI":
        return self * QI.of(other).inv()

    def __rtruediv__(self, other) -> "QI":
        return QI.of(other) * self.inv()

    def conj(self) -> "QI":
        return QI(self.re, -self.im)

    def __pow__(self, k: int) -> "QI":
        if k < 0:
            return self.inv() ** (-k)
        out = QI(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QI(other)
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- formatting -------------------------------------------------------
    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        return qi_to_str(self)


ZERO = QI(0)
ONE = QI(1)
MINUS_ONE = QI(-1)
I = QI(0, 1)
MINUS_I = QI(0, -1)

#: the four allowed central twists, i.e. fourth roots of unity
FOURTH_ROOTS = (ONE, I, MINUS_ONE, MINUS_I)


def _ratio_str(p: int, q: int) -> str:
    return str(p) if q == 1 else f"{p}/{q}"


def _wire_str(a: int, b: int, c: int, d: int) -> str:
    """The wire format of a/b + (c/d)*i, each part in lowest terms, b, d > 0."""
    if not a and not c:
        return "0"
    parts = []
    if a:
        parts.append(_ratio_str(a, b))
    if c:
        s = _ratio_str(c, d)
        if parts and not s.startswith("-"):
            parts.append("+")
        parts.append(f"{s}*i" if s not in ("1", "-1") else ("i" if s == "1" else "-i"))
    return "".join(parts)


def qi_to_str(z: QI) -> str:
    """Canonical wire format ``a/b+c/d*i`` (parts omitted when zero)."""
    return _wire_str(z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)


def int_parts_to_str(re: int, im: int, d: int) -> str:
    """The wire format of qi_to_str for (re + im*i) / d, d > 0, read off the
    integers: one gcd per part and no Fraction."""
    g, h = gcd(re, d), gcd(im, d)
    return _wire_str(re // g, d // g, im // h, d // h)


def qi_from_str(s: str) -> QI:
    """Parse the wire format produced by :func:`qi_to_str`."""
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational literal")
    # split into real and imaginary summands on +/- not inside a fraction
    terms = []
    cur = ""
    for idx, ch in enumerate(s):
        if ch in "+-" and idx > 0 and s[idx - 1] not in "+-/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    re = Fraction(0)
    im = Fraction(0)
    for t in terms:
        if not t or t in "+-":
            raise ValueError(f"bad Gaussian rational literal: {s!r}")
        if t.endswith("i"):
            body = t[:-1].rstrip("*")
            if body in ("", "+"):
                im += 1
            elif body == "-":
                im -= 1
            else:
                im += Fraction(body)
        else:
            re += Fraction(t)
    return QI(re, im)
