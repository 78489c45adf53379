"""Exact Laurent-polynomial matrices and truncated power-series matrices.

A matrix entry is an :class:`Entry`, an element of Q(i)[t, t^-1] stored as

    t^v * sum_k (re[k] + i * im[k]) * t^k / d

with ``re`` and ``im`` integer lists of one length and ``d`` one positive
common denominator.  Entries are kept in a normal form: the first and last
terms are nonzero and gcd(d, re, im) = 1, so equal entries have equal
fields.  ``QI`` (and so ``Fraction``) is built only where a coefficient
leaves the kernel: ``coeff``, ``constant_matrix`` and the entry's
read-only mapping view ``exponent -> QI``.  Serialization reads the
integer terms (``Entry.int_terms``) and builds neither.
An entry product is an integer schoolbook loop over the two lists; its
outer loop runs over the operand with more zero terms and skips them, so
a series like 1 + O(t^k) costs as much as its nonzero terms.

``LaurentMatrix`` is exact; ``SeriesMatrix`` carries an explicit precision
``N`` meaning the entry coefficients are known for all exponents ``< N``
(and are zero below the recorded support).  Precision bookkeeping is
pessimistic: an operation never claims more precision than it can
certify, and raises ``PrecisionError`` rather than guessing.
"""

from __future__ import annotations

from collections.abc import ItemsView, KeysView, Mapping, ValuesView
from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import List, Sequence

from .errors import InvalidInputError, PrecisionError
from .gaussian import QI, ZERO, ONE, MINUS_ONE


class Entry:
    """An element of Q(i)[t, t^-1] in integer normal form (see the module doc).

    Immutable.  Reads like a mapping ``exponent -> QI`` over the nonzero
    terms; arithmetic is ``+``, ``-``, ``*`` and the methods below.
    """

    __slots__ = ("_v", "_re", "_im", "_d")

    def __init__(self, v: int, re: List[int], im: List[int], d: int):
        # raw parts, already in normal form; use Entry.term / Entry.of
        self._v = v
        self._re = re
        self._im = im
        self._d = d

    # -- constructors -------------------------------------------------------
    @staticmethod
    def term(k: int, c: QI | int | Fraction) -> "Entry":
        """The monomial c * t^k."""
        r, i, d = _qi_parts(QI.of(c))
        return _make(int(k), [r], [i], d)

    @staticmethod
    def of(x) -> "Entry":
        """An Entry from an Entry or a mapping ``exponent -> QI | int | Fraction``."""
        if type(x) is Entry:
            return x
        if not isinstance(x, Mapping):
            raise InvalidInputError(f"matrix entry must be a mapping, got {type(x).__name__}")
        terms = {}
        for k, c in x.items():
            q = QI.of(c)
            if not q.is_zero():
                terms[int(k)] = _qi_parts(q)
        if not terms:
            return ZERO_ENTRY
        lo, hi = min(terms), max(terms)
        d = lcm(*(p[2] for p in terms.values()))
        re = [0] * (hi - lo + 1)
        im = [0] * (hi - lo + 1)
        for k, (r, i, dk) in terms.items():
            re[k - lo] = r * (d // dk)
            im[k - lo] = i * (d // dk)
        return _make(lo, re, im, d)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Entry") -> "Entry":
        if not self._re:
            return other
        if not other._re:
            return self
        da, db = self._d, other._d
        if da == db:
            d = da
            ar, ai, br, bi = self._re, self._im, other._re, other._im
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            d = da * fa
            ar = [x * fa for x in self._re]
            ai = [x * fa for x in self._im]
            br = [x * fb for x in other._re]
            bi = [x * fb for x in other._im]
        va, vb = self._v, other._v
        v = min(va, vb)
        size = max(va + len(ar), vb + len(br)) - v
        re = [0] * size
        im = [0] * size
        oa = va - v
        re[oa:oa + len(ar)] = ar
        im[oa:oa + len(ai)] = ai
        for k, (x, y) in enumerate(zip(br, bi), vb - v):
            re[k] += x
            im[k] += y
        return _make(v, re, im, d)

    def __neg__(self) -> "Entry":
        return Entry(self._v, [-x for x in self._re], [-x for x in self._im], self._d)

    def __sub__(self, other: "Entry") -> "Entry":
        return self + (-other)

    def __mul__(self, other: "Entry") -> "Entry":
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        m, n = len(ar), len(br)
        if not m or not n:
            return ZERO_ENTRY
        # the outer loop skips zero terms, so it runs over the operand with
        # more of them (x | y is 0 exactly when both integers are); a zero
        # term has a zero real part, and the nonzero end terms leave an
        # entry of two terms or fewer none, so most products count nothing
        if n > 2 and 0 in br:
            zb = list(map(or_, br, bi)).count(0)
            if zb and (m <= 2 or 0 not in ar or list(map(or_, ar, ai)).count(0) < zb):
                ar, ai, br, bi = br, bi, ar, ai
        re = [0] * (m + n - 1)
        im = [0] * (m + n - 1)
        for i, (xr, xi) in enumerate(zip(ar, ai)):
            if not (xr or xi):
                continue
            for j, (yr, yi) in enumerate(zip(br, bi), i):
                re[j] += xr * yr - xi * yi
                im[j] += xr * yi + xi * yr
        return _make(self._v + other._v, re, im, self._d * other._d)

    def scale(self, c: QI | int | Fraction) -> "Entry":
        """c times the entry."""
        return self * Entry.term(0, c)

    def shift(self, k: int) -> "Entry":
        """t^k times the entry."""
        if not self._re or not k:
            return self
        return Entry(self._v + k, self._re, self._im, self._d)

    def truncate(self, n: int) -> "Entry":
        """The terms of exponent below n."""
        v = self._v
        if v + len(self._re) <= n:
            return self
        if v >= n:
            return ZERO_ENTRY
        return _make(v, self._re[:n - v], self._im[:n - v], self._d)

    def val(self) -> int | None:
        """The least exponent present, or None for zero."""
        return self._v if self._re else None

    def deg(self) -> int | None:
        """The largest exponent present, or None for zero."""
        return self._v + len(self._re) - 1 if self._re else None

    def reciprocal(self, precision: int) -> "Entry":
        """1/u modulo t^precision for a power series u with a unit constant term.

        Newton iteration x <- x * (2 - u * x) doubles the known terms each step.
        """
        if not self._re or self._v != 0:
            raise InvalidInputError("series reciprocal requires a unit constant term")
        p, q, d = self._re[0], self._im[0], self._d
        x = _make(0, [d * p], [-d * q], p * p + q * q)
        known = 1
        while known < precision:
            known = min(2 * known, precision)
            ux = (self.truncate(known) * x).truncate(known)
            x = (x * (_TWO - ux)).truncate(known)
        return x

    def int_terms(self):
        """(k, re, im, d) for each nonzero term (re + i*im) / d * t^k, in
        increasing k; d is the entry's common denominator."""
        v, d = self._v, self._d
        return ((v + i, r, m, d) for i, (r, m) in enumerate(zip(self._re, self._im)) if r or m)

    # -- read-only mapping view exponent -> QI -------------------------------
    def coeff(self, k: int) -> QI:
        """The coefficient of t^k (the shared ZERO when absent)."""
        i = k - self._v
        if 0 <= i < len(self._re):
            r, m = self._re[i], self._im[i]
            if r or m:
                return QI(Fraction(r, self._d), Fraction(m, self._d))
        return ZERO

    def __getitem__(self, k: int) -> QI:
        c = self.coeff(k)
        if c is ZERO:
            raise KeyError(k)
        return c

    def get(self, k: int, default=None):
        c = self.coeff(k)
        return default if c is ZERO else c

    def __iter__(self):
        v = self._v
        return (v + i for i, (r, m) in enumerate(zip(self._re, self._im)) if r or m)

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return sum(1 for r, m in zip(self._re, self._im) if r or m)

    def __bool__(self) -> bool:
        return bool(self._re)

    def keys(self):
        return KeysView(self)

    def items(self):
        return ItemsView(self)

    def values(self):
        return ValuesView(self)

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is not Entry:
            if not isinstance(other, Mapping):
                return NotImplemented
            other = Entry.of(other)
        return (self._v == other._v and self._d == other._d
                and self._re == other._re and self._im == other._im)

    def __hash__(self):
        return hash((self._v, self._d, tuple(self._re), tuple(self._im)))

    def __repr__(self):
        return f"Entry({dict(self.items())!r})"


Mapping.register(Entry)


def _make(v: int, re: List[int], im: List[int], d: int) -> Entry:
    """Normal form of t^v * (re + i*im) / d, d > 0: trim zero terms, reduce the content."""
    n = len(re)
    lo = 0
    while lo < n and not re[lo] and not im[lo]:
        lo += 1
    if lo == n:
        return ZERO_ENTRY
    hi = n
    while not re[hi - 1] and not im[hi - 1]:
        hi -= 1
    if lo or hi < n:
        re = re[lo:hi]
        im = im[lo:hi]
        v += lo
    if d != 1:
        g = gcd(d, *re, *im)
        if g != 1:
            re = [x // g for x in re]
            im = [x // g for x in im]
            d //= g
    return Entry(v, re, im, d)


def _qi_parts(c: QI) -> tuple:
    """(re, im, d) integers with c = (re + i*im) / d, d > 0."""
    a, b = c.re, c.im
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


ZERO_ENTRY = Entry(0, [], [], 1)
ONE_ENTRY = Entry(0, [1], [0], 1)
_TWO = Entry(0, [2], [0], 1)


def _subst(a: Entry, unit: QI, invert: bool, conj: bool) -> Entry:
    """t -> unit * t^{+-1}, optionally conjugating the coefficients."""
    if not a._re:
        return a
    if unit != ONE and unit != MINUS_ONE:
        return Entry.of({(-k if invert else k): (c.conj() if conj else c) * unit ** k
                         for k, c in a.items()})
    v, re, im = a._v, a._re, a._im
    if conj:
        im = [-x for x in im]
    if invert:
        re, im = re[::-1], im[::-1]
        v = -(v + len(re) - 1)
    if unit == MINUS_ONE:
        # the sign (-1)^k depends only on the parity of the exponent
        re = [-x if (v + i) & 1 else x for i, x in enumerate(re)]
        im = [-x if (v + i) & 1 else x for i, x in enumerate(im)]
    return Entry(v, re, im, a._d)


def _matmul(a: Sequence[Sequence[Entry]], b: Sequence[Sequence[Entry]]) -> List[List[Entry]]:
    cols = list(zip(*b))
    out = []
    for r in a:
        row = []
        for c in cols:
            acc = ZERO_ENTRY
            for x, y in zip(r, c):
                if x._re and y._re:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def det_minor(rows: Sequence[Sequence[Entry]], ridx: List[int], cidx: List[int]) -> Entry:
    """Cofactor-expansion determinant of the submatrix rows[ridx][cidx]."""
    if not ridx:
        return ONE_ENTRY
    if len(ridx) == 1:
        return rows[ridx[0]][cidx[0]]
    out = ZERO_ENTRY
    r0 = ridx[0]
    rest = ridx[1:]
    for pos, c in enumerate(cidx):
        e = rows[r0][c]
        if not e._re:
            continue
        term = e * det_minor(rows, rest, [x for x in cidx if x != c])
        out = out - term if pos % 2 else out + term
    return out


def _adjugate_times(rows: Sequence[Sequence[Entry]], unit: Entry, k: int) -> List[List[Entry]]:
    """adj(rows) * unit * t^-k, by cofactors: the inverse when det(rows) =
    t^k / unit."""
    n = len(rows)
    idx = list(range(n))
    out = [[ZERO_ENTRY] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            e = det_minor(rows, [r for r in idx if r != j], [c for c in idx if c != i]) * unit
            out[i][j] = (-e if (i + j) % 2 else e).shift(-k)
    return out


def _monomial_inverse(rows: Sequence[Sequence[Entry]]) -> List[List[Entry]] | None:
    """Rows of the inverse of a monomial matrix, or None for any other matrix."""
    n = len(rows)
    out = [[ZERO_ENTRY] * n for _ in range(n)]
    hit_cols = set()
    for i, r in enumerate(rows):
        hits = [j for j, e in enumerate(r) if e._re]
        if len(hits) != 1 or hits[0] in hit_cols or len(r[hits[0]]._re) != 1:
            return None
        j = hits[0]
        hit_cols.add(j)
        k = r[j]._v
        out[j][i] = r[j].shift(-k).reciprocal(1).shift(-k)
    return out


# ---------------------------------------------------------------------------


class LaurentMatrix:
    """An exact n-by-n matrix over Q(i)[t, t^-1]."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.n = len(rows)
        self.rows: List[List[Entry]] = [list(map(Entry.of, r)) for r in rows]
        if any(len(r) != self.n for r in self.rows):
            raise InvalidInputError("matrix must be square")

    @staticmethod
    def _of(rows: Sequence[Sequence[Entry]]) -> "LaurentMatrix":
        """A matrix on entries already in normal form."""
        m = LaurentMatrix.__new__(LaurentMatrix)
        m.n = len(rows)
        m.rows = [list(r) for r in rows]
        return m

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zeros(n: int) -> "LaurentMatrix":
        return LaurentMatrix._of([[ZERO_ENTRY] * n for _ in range(n)])

    @staticmethod
    def identity(n: int) -> "LaurentMatrix":
        return LaurentMatrix._of(
            [[ONE_ENTRY if i == j else ZERO_ENTRY for j in range(n)] for i in range(n)])

    @staticmethod
    def monomial(n: int, i: int, j: int, k: int = 0,
                 c: QI | int | Fraction = ONE) -> "LaurentMatrix":
        """The n-by-n matrix with c * t^k at (i, j) and zeros elsewhere."""
        m = LaurentMatrix.zeros(n)
        m.rows[i][j] = Entry.term(k, c)
        return m

    @staticmethod
    def from_scalars(rows: Sequence[Sequence[QI | int | Fraction]]) -> "LaurentMatrix":
        return LaurentMatrix._of([[Entry.term(0, x) for x in r] for r in rows])

    @staticmethod
    def diag_scalars(vals: Sequence[QI | int | Fraction]) -> "LaurentMatrix":
        n = len(vals)
        return LaurentMatrix._of(
            [[Entry.term(0, v) if i == j else ZERO_ENTRY for j in range(n)]
             for i, v in enumerate(vals)])

    @staticmethod
    def t_power(lam: Sequence[int]) -> "LaurentMatrix":
        """diag(t^lam_1, ..., t^lam_n)."""
        n = len(lam)
        return LaurentMatrix._of(
            [[ONE_ENTRY.shift(int(k)) if i == j else ZERO_ENTRY for j in range(n)]
             for i, k in enumerate(lam)])

    # -- basic queries -------------------------------------------------------
    def entry(self, i: int, j: int) -> Entry:
        return self.rows[i][j]

    def coeff(self, i: int, j: int, k: int) -> QI:
        return self.rows[i][j].coeff(k)

    def is_zero(self) -> bool:
        return all(not e._re for r in self.rows for e in r)

    def is_constant(self) -> bool:
        return all(not e._re or (e._v == 0 and len(e._re) == 1)
                   for r in self.rows for e in r)

    def constant_matrix(self) -> List[List[QI]]:
        """Coefficient of t^0 in each entry."""
        return [[e.coeff(0) for e in r] for r in self.rows]

    def val(self) -> int | None:
        vals = [e._v for r in self.rows for e in r if e._re]
        return min(vals) if vals else None

    def maxdeg(self) -> int | None:
        degs = [e._v + len(e._re) - 1 for r in self.rows for e in r if e._re]
        return max(degs) if degs else None

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "LaurentMatrix":
        return LaurentMatrix._of([[-e for e in r] for r in self.rows])

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix._of(_matmul(self.rows, other.rows))

    def scale(self, c: QI | int | Fraction) -> "LaurentMatrix":
        q = Entry.term(0, c)
        return LaurentMatrix._of([[e * q for e in r] for r in self.rows])

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix._of([list(c) for c in zip(*self.rows)])

    def substitute(self, unit: QI, invert: bool = False, conj: bool = False) -> "LaurentMatrix":
        """Entrywise substitution t -> unit*t (or unit*t^-1), optional coefficient conjugation."""
        return LaurentMatrix._of([[_subst(e, unit, invert, conj) for e in r] for r in self.rows])

    def det(self) -> Entry:
        return det_minor(self.rows, list(range(self.n)), list(range(self.n)))

    def inverse(self) -> "LaurentMatrix":
        """Exact inverse; requires det to be a nonzero monomial c*t^k.

        A monomial matrix, one single-term entry c*t^k in every row and every
        column, is inverted directly: c^-1 * t^-k at the transposed place.
        Any other matrix goes through the cofactor adjugate.
        """
        rows = _monomial_inverse(self.rows)
        if rows is not None:
            return LaurentMatrix._of(rows)
        d = self.det()
        if len(d._re) != 1:
            raise InvalidInputError(
                "matrix is not invertible over the Laurent polynomial ring "
                f"(det has {len(d)} terms)"
            )
        k = d._v
        return LaurentMatrix._of(_adjugate_times(self.rows, d.shift(-k).reciprocal(1), k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self):
        raise TypeError("LaurentMatrix is not hashable")

    def __repr__(self):
        def fmt(e: Entry) -> str:
            if not e:
                return "0"
            return "+".join(
                f"({v})t^{k}" if k else f"({v})" for k, v in sorted(e.items())
            )

        body = "; ".join(", ".join(fmt(e) for e in r) for r in self.rows)
        return f"Laurent[{body}]"

    # -- conversions ------------------------------------------------------------
    def truncate(self, precision: int) -> "SeriesMatrix":
        v = self.val()
        if v is not None and v >= precision:
            raise PrecisionError("truncation precision below the matrix valuation")
        return SeriesMatrix._of(self.rows, precision)


# ---------------------------------------------------------------------------


class SeriesMatrix:
    """An n-by-n matrix over Q(i)((t)) known modulo t^precision.

    Supports are finite and bounded below; ``precision`` bounds the
    exponents stored (exclusive).
    """

    __slots__ = ("n", "rows", "precision")

    MIN_RESIDUAL = 2  # precision floor: below this, computations refuse to answer

    def __init__(self, rows: Sequence[Sequence], precision: int):
        self.n = len(rows)
        self.precision = int(precision)
        self.rows: List[List[Entry]] = [
            [Entry.of(e).truncate(self.precision) for e in r] for r in rows
        ]
        if any(len(r) != self.n for r in self.rows):
            raise InvalidInputError("matrix must be square")

    @staticmethod
    def _of(rows: Sequence[Sequence[Entry]], precision: int) -> "SeriesMatrix":
        """A matrix on entries already in normal form, truncated to precision."""
        m = SeriesMatrix.__new__(SeriesMatrix)
        m.n = len(rows)
        m.precision = precision
        m.rows = [[e.truncate(precision) for e in r] for r in rows]
        return m

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def identity(n: int, precision: int) -> "SeriesMatrix":
        return LaurentMatrix.identity(n).truncate(precision)

    @staticmethod
    def from_laurent(m: LaurentMatrix, precision: int) -> "SeriesMatrix":
        return m.truncate(precision)

    def to_laurent(self) -> LaurentMatrix:
        """Forget the truncation marker (the caller asserts exactness)."""
        return LaurentMatrix._of(self.rows)

    # -- queries ------------------------------------------------------------------
    def entry(self, i: int, j: int) -> Entry:
        return self.rows[i][j]

    def coeff(self, i: int, j: int, k: int) -> QI:
        if k >= self.precision:
            raise PrecisionError(f"coefficient of t^{k} beyond precision {self.precision}")
        return self.rows[i][j].coeff(k)

    def val(self) -> int:
        """A certified lower bound for the valuation (min stored exponent)."""
        vals = [e._v for r in self.rows for e in r if e._re]
        return min(vals) if vals else self.precision

    def constant_matrix(self) -> List[List[QI]]:
        if self.precision < 1:
            raise PrecisionError("constant term beyond recorded precision")
        return [[e.coeff(0) for e in r] for r in self.rows]

    # -- arithmetic ------------------------------------------------------------------
    def retruncate(self, precision: int) -> "SeriesMatrix":
        if precision > self.precision:
            raise PrecisionError(
                f"cannot raise precision from {self.precision} to {precision}"
            )
        return SeriesMatrix._of(self.rows, precision)

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        p = min(self.precision, other.precision)
        return SeriesMatrix._of(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)], p
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        p = min(self.precision, other.precision)
        return SeriesMatrix._of(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)], p
        )

    def scale(self, c: QI | int | Fraction) -> "SeriesMatrix":
        q = Entry.term(0, c)
        return SeriesMatrix._of([[e * q for e in r] for r in self.rows], self.precision)

    def __mul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        # product precision: pessimistic rule min(Na + v(B), Nb + v(A))
        va, vb = self.val(), other.val()
        p = min(self.precision + vb, other.precision + va)
        # terms of exponent >= p - v(B) in A (and >= p - v(A) in B) reach only
        # exponents >= p, so the operands are cut there first
        a = [[e.truncate(p - vb) for e in r] for r in self.rows]
        b = [[e.truncate(p - va) for e in r] for r in other.rows]
        return SeriesMatrix._of(_matmul(a, b), p)

    def transpose(self) -> "SeriesMatrix":
        return SeriesMatrix._of([list(c) for c in zip(*self.rows)], self.precision)

    def substitute(self, unit: QI, invert: bool = False, conj: bool = False) -> "SeriesMatrix":
        if invert:
            raise PrecisionError("t -> t^-1 substitution leaves the series model")
        return SeriesMatrix._of(
            [[_subst(e, unit, False, conj) for e in r] for r in self.rows], self.precision
        )

    def det_with_precision(self) -> tuple[Entry, int]:
        v = self.val()
        d = det_minor(self.rows, list(range(self.n)), list(range(self.n)))
        prec = self.precision + (self.n - 1) * min(v, 0) if self.n > 1 else self.precision
        return d.truncate(prec), prec

    def inverse(self) -> "SeriesMatrix":
        """Inverse of a matrix whose determinant is t^k * unit."""
        d, dprec = self.det_with_precision()
        if not d:
            raise InvalidInputError("matrix not invertible (determinant vanishes to precision)")
        k = d.val()
        uinv = d.shift(-k).reciprocal(dprec - k)  # unit power series, constant term nonzero
        n = self.n
        v = self.val()
        adj_prec = self.precision + max(0, n - 2) * min(v, 0) if n > 1 else self.precision
        # adjugate entries have valuation >= (n-1)*v; the reciprocal's error
        # O(t^{dprec-k}) is scaled by them and shifted by -k twice in total
        adj_val = (n - 1) * v
        out_prec = min(adj_prec - k, adj_val + dprec - 2 * k)
        if out_prec <= -10**6:
            raise PrecisionError("inverse precision collapsed")
        return SeriesMatrix._of(_adjugate_times(self.rows, uinv, k), out_prec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        p = min(self.precision, other.precision)
        a = [[e.truncate(p) for e in r] for r in self.rows]
        b = [[e.truncate(p) for e in r] for r in other.rows]
        return a == b

    def __repr__(self):
        return f"Series(prec={self.precision}, {LaurentMatrix._of(self.rows)!r})"


def series_exp(a: SeriesMatrix):
    """The pair (exp(a), exp(-a)) for a series matrix a with strictly
    positive valuation, both at a's precision: the terms of the two series
    differ only in sign, so the inverse costs additions only."""
    v = a.val()
    if v < 1:
        raise PrecisionError("series exp requires valuation >= 1")
    out = inv = term = SeriesMatrix.identity(a.n, a.precision)
    # terms of order m * v >= a.precision vanish at this precision
    for m in range(1, (a.precision - 1) // v + 1):
        term = (term * a).scale(Fraction(1, m))
        out = out + term
        inv = inv - term if m % 2 else inv + term
    return out, inv


def laurent_exp_nilpotent(a: LaurentMatrix) -> LaurentMatrix:
    """Exact exp of a nilpotent Laurent matrix; nilpotency is not checked
    here, as unipotent_sqrt, the one caller, certifies its result."""
    n = a.n
    out = LaurentMatrix.identity(n)
    term = LaurentMatrix.identity(n)
    for m in range(1, n + 1):
        term = (term * a).scale(Fraction(1, m))
        if term.is_zero():
            break
        out = out + term
    return out


def laurent_log_unipotent(u: LaurentMatrix) -> LaurentMatrix:
    """Exact log of a unipotent Laurent matrix; one sequence of powers of
    x = u - 1 serves the series and the nilpotency check x^n = 0."""
    n = u.n
    x = u - LaurentMatrix.identity(n)
    out = LaurentMatrix.zeros(n)
    p = x
    m = 1
    while not p.is_zero():
        if m == n:
            raise InvalidInputError("matrix is not unipotent (u-1 not nilpotent)")
        out = out + p.scale(Fraction((-1) ** (m + 1), m))
        p = p * x
        m += 1
    return out
