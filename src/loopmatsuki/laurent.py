"""Exact Laurent-polynomial matrices and truncated power-series matrices.

A matrix entry is an :class:`Entry`, an element of Q(i)[t, t^-1] stored as

    t^v * sum_k (re[k] + i * im[k]) * t^k / d

with ``re`` and ``im`` integer lists of one length and ``d`` one positive
common denominator.  Entries are kept in a normal form: the first and last
terms are nonzero and gcd(d, re, im) = 1, so equal entries have equal
fields.  An entry is a value, not a mapping: it is read through
``val``/``deg``, ``int_terms`` (each nonzero term as integers over the
common denominator) and ``coeff``, and compares equal only to an entry.
``QI`` (and so ``Fraction``) is built only where a coefficient leaves the
kernel: ``coeff``, ``values`` and ``constant_matrix``.  Serialization
reads ``int_terms`` and builds neither, nor do ``layer_ints`` (the
coefficients of t^k as Gaussian integers over one denominator),
``is_zero_between``, ``Entry.int_term`` and ``scale``.  Dicts
``exponent -> coefficient`` come in only through ``Entry.of``, which the
matrix constructors call on each entry.
An entry product is an integer schoolbook loop over the two lists; its
outer loop runs over the operand with more zero terms and skips them, so
a series like 1 + O(t^k) costs as much as its nonzero terms.  The same
kernel takes an exponent limit (``mul_below``) and then forms only the
terms below it: both loops stop there, a short product.  Every product
that is truncated (series matrix products, Smith row operations, the
Newton reciprocal and series inverse, cofactor minors of a series) is taken
this way, never formed in full and cut afterwards.

``LaurentMatrix`` is exact; ``SeriesMatrix`` carries an explicit precision
``N`` meaning the entry coefficients are known for all exponents ``< N``
(and are zero below the recorded support).  Both share one core: an exact
matrix is one with ``precision = None``, and every entrywise operation
(``+``, ``-``, ``scale``, ``transpose``, ``substitute``, the queries) is
written once and keeps the least precision of its operands.  Operands of
different sizes are refused.  One product rule serves every pair of kinds:
with a series factor it keeps min(Na + v(B), Nb + v(A)), an exact factor's
N infinite, so no caller lifts an exact factor by hand.  An exact inverse
expands cofactors; a series one, on G(O) only, Newton-lifts the constant
term's inverse and keeps the precision.  ``LaurentMatrix.permutation``
(optionally times a diagonal), ``diag_scalars`` and ``block_diag`` build
the monomial and block matrices, and ``series_exp`` is the one
exponential: it returns exp(a) and exp(-a) from a single chain of powers.
Precision bookkeeping is pessimistic: an operation never claims more
precision than it can certify, and raises ``PrecisionError`` rather than
guessing.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import List, Sequence

from .errors import InvalidInputError, PrecisionError
from .gaussian import QI, ZERO, ONE, MINUS_ONE
from .intlat import eliminate


class Entry:
    """An element of Q(i)[t, t^-1] in integer normal form (see the module doc).

    Immutable.  Read it through ``val``/``deg``, ``int_terms`` and
    ``coeff``; ``values`` (the nonzero coefficients as QI) and ``len`` (the
    number of nonzero terms) remain for the benchmark tracer, which reads a
    matrix's coefficient sizes and operand term counts through them.
    Arithmetic is ``+``, ``-``, ``*`` and the methods below.
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
    def int_term(k: int, re: int, im: int, d: int) -> "Entry":
        """The monomial (re + i*im) / d * t^k from its integer parts, d > 0."""
        return _make(k, [re], [im], d)

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

    def __mul__(self, other: "Entry", limit: int | None = None) -> "Entry":
        """The product, or with a limit its terms of exponent below the limit
        (``mul_below``).  This is the one entry product kernel: ``a * b`` is
        it with no limit."""
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        m, n = len(ar), len(br)
        if not m or not n:
            return ZERO_ENTRY
        v = self._v + other._v
        size = m + n - 1 if limit is None else min(m + n - 1, limit - v)
        if size <= 0:
            return ZERO_ENTRY
        # the outer loop skips zero terms, so it runs over the operand with
        # more of them (x | y is 0 exactly when both integers are); a zero
        # term has a zero real part, and the nonzero end terms leave an
        # entry of two terms or fewer none, so most products count nothing
        if n > 2 and 0 in br:
            zb = list(map(or_, br, bi)).count(0)
            if zb and (m <= 2 or 0 not in ar or list(map(or_, ar, ai)).count(0) < zb):
                ar, ai, br, bi = br, bi, ar, ai
        # both loops stop at size, so no term at or above the limit is formed
        re = [0] * size
        im = [0] * size
        for i, xr, xi in zip(range(size), ar, ai):
            if not (xr or xi):
                continue
            for j, yr, yi in zip(range(i, size), br, bi):
                re[j] += xr * yr - xi * yi
                im[j] += xr * yi + xi * yr
        return _make(v, re, im, self._d * other._d)

    def mul_below(self, other: "Entry", limit: int) -> "Entry":
        """The terms of self * other of exponent below limit, as a short
        product: no term at or above the limit is formed.  It runs through
        ``__mul__``, so every entry product reaches that one kernel."""
        return self.__mul__(other, limit)

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
            ux = self.mul_below(x, known)
            x = x.mul_below(_TWO - ux, known)
        return x

    def int_terms(self):
        """(k, re, im, d) for each nonzero term (re + i*im) / d * t^k, in
        increasing k; d is the entry's common denominator."""
        v, d = self._v, self._d
        return ((v + i, r, m, d) for i, (r, m) in enumerate(zip(self._re, self._im)) if r or m)

    def coeff(self, k: int) -> QI:
        """The coefficient of t^k (the shared ZERO when absent)."""
        i = k - self._v
        if 0 <= i < len(self._re):
            r, m = self._re[i], self._im[i]
            if r or m:
                return QI(Fraction(r, self._d), Fraction(m, self._d))
        return ZERO

    def values(self):
        """The nonzero coefficients as QI, in increasing exponent."""
        return (self.coeff(k) for k, *_ in self.int_terms())

    def __len__(self) -> int:
        """The number of nonzero terms."""
        return sum(1 for r, m in zip(self._re, self._im) if r or m)

    def __bool__(self) -> bool:
        return bool(self._re)

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if type(other) is not Entry:
            return NotImplemented
        return (self._v == other._v and self._d == other._d
                and self._re == other._re and self._im == other._im)

    def __hash__(self):
        return hash((self._v, self._d, tuple(self._re), tuple(self._im)))

    def __repr__(self):
        return f"Entry({ {k: self.coeff(k) for k, *_ in self.int_terms()}!r})"


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


def _subst(a: Entry, negate: bool, invert: bool, conj: bool) -> Entry:
    """t -> (-t if negate else t)^{+-1}, optionally conjugating the coefficients."""
    if not a._re:
        return a
    v, re, im = a._v, a._re, a._im
    if conj:
        im = [-x for x in im]
    if invert:
        re, im = re[::-1], im[::-1]
        v = -(v + len(re) - 1)
    if negate:
        # the sign (-1)^k depends only on the parity of the exponent
        re = [-x if (v + i) & 1 else x for i, x in enumerate(re)]
        im = [-x if (v + i) & 1 else x for i, x in enumerate(im)]
    return Entry(v, re, im, a._d)


def _matmul(a: Sequence[Sequence[Entry]], b: Sequence[Sequence[Entry]],
            limit: int | None = None) -> List[List[Entry]]:
    """The product's rows, each entry truncated below limit when one is given."""
    _check_sizes(len(a), len(b))
    cols = list(zip(*b))
    out = []
    for r in a:
        row = []
        for c in cols:
            acc = ZERO_ENTRY
            for x, y in zip(r, c):
                if x._re and y._re:
                    acc = acc + (x * y if limit is None else x.mul_below(y, limit))
            row.append(acc)
        out.append(row)
    return out


def _check_sizes(n: int, m: int) -> None:
    if n != m:
        raise InvalidInputError(f"matrix sizes differ: {n}x{n} against {m}x{m}")


def det_minor(rows: Sequence[Sequence[Entry]], ridx: List[int], cidx: List[int],
              limit: int | None = None) -> Entry:
    """Cofactor-expansion determinant of the submatrix rows[ridx][cidx],
    truncated below limit when one is given: the minor beside an entry e is
    then needed only below limit - val(e)."""
    if not ridx:
        return ONE_ENTRY if limit is None else ONE_ENTRY.truncate(limit)
    if len(ridx) == 1:
        e = rows[ridx[0]][cidx[0]]
        return e if limit is None else e.truncate(limit)
    out = ZERO_ENTRY
    r0 = ridx[0]
    rest = ridx[1:]
    for pos, c in enumerate(cidx):
        e = rows[r0][c]
        if not e._re:
            continue
        others = [x for x in cidx if x != c]
        if limit is None:
            term = e * det_minor(rows, rest, others)
        else:
            term = e.mul_below(det_minor(rows, rest, others, limit - e._v), limit)
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


def _matrix(rows: Sequence[Sequence[Entry]], precision: int | None):
    """A matrix on entries already in normal form: exact when precision is
    None, else a series truncated to precision."""
    if precision is None:
        return LaurentMatrix._of(rows)
    return SeriesMatrix._of(rows, precision)


def _series_product(a: "_Matrix", b: "_Matrix"):
    """a * b with a series factor: known below p = min(Na + v(B), Nb + v(A)),
    an exact factor's N infinite, as short products below p.  An exact zero
    factor (valuation None) gives the exact zero."""
    _check_sizes(a.n, b.n)
    va, vb = a.val(), b.val()
    if va is None or vb is None:
        return LaurentMatrix.zeros(a.n)
    p = min(q + v for q, v in ((a.precision, vb), (b.precision, va)) if q is not None)
    return _matrix(_matmul(a.rows, b.rows, p), p)


class _Matrix:
    """The core both matrix kinds share: n rows of n entries and a
    ``precision``, None on an exact matrix.  Each operation here works entry
    by entry, refuses operands of different sizes, and keeps the least
    precision of its operands, so its result is exact when they all are."""

    __slots__ = ("n", "rows")
    precision: int | None

    # -- queries -----------------------------------------------------------
    def entry(self, i: int, j: int) -> Entry:
        return self.rows[i][j]

    def coeff(self, i: int, j: int, k: int) -> QI:
        if self.precision is not None and k >= self.precision:
            raise PrecisionError(f"coefficient of t^{k} beyond precision {self.precision}")
        return self.rows[i][j].coeff(k)

    def val(self) -> int | None:
        """The least exponent present; on a zero matrix, None if exact, else
        the precision (so a series gets a certified lower bound)."""
        vals = [e._v for r in self.rows for e in r if e._re]
        return min(vals) if vals else self.precision

    def maxdeg(self) -> int | None:
        degs = [e._v + len(e._re) - 1 for r in self.rows for e in r if e._re]
        return max(degs) if degs else None

    def is_zero(self) -> bool:
        return all(not e._re for r in self.rows for e in r)

    def is_constant(self) -> bool:
        return all(not e._re or (e._v == 0 and len(e._re) == 1)
                   for r in self.rows for e in r)

    def layer_ints(self, k: int):
        """The coefficients of t^k, row by row, as (re, im, d): coefficient q
        is (re[q] + i*im[q]) / d over one common denominator d > 0."""
        if self.precision is not None and k >= self.precision:
            raise PrecisionError(f"coefficient of t^{k} beyond precision {self.precision}")
        cells = [(e._re[k - e._v], e._im[k - e._v], e._d) if 0 <= k - e._v < len(e._re)
                 else (0, 0, 1) for r in self.rows for e in r]
        d = lcm(*(c for x, y, c in cells if x or y))
        return [x * (d // c) for x, _, c in cells], [y * (d // c) for _, y, c in cells], d

    def is_zero_between(self, lo: int, hi: int) -> bool:
        """Whether no entry has a nonzero term of exponent lo <= k < hi."""
        if self.precision is not None and hi > self.precision:
            raise PrecisionError(f"coefficient of t^{hi - 1} beyond precision {self.precision}")
        for r in self.rows:
            for e in r:
                a, b = max(lo - e._v, 0), hi - e._v
                if b > 0 and (any(e._re[a:b]) or any(e._im[a:b])):
                    return False
        return True

    def constant_matrix(self) -> List[List[QI]]:
        """Coefficient of t^0 in each entry."""
        if self.precision is not None and self.precision < 1:
            raise PrecisionError("constant term beyond recorded precision")
        return [[e.coeff(0) for e in r] for r in self.rows]

    # -- entrywise arithmetic ----------------------------------------------
    def _zip(self, other: "_Matrix", op):
        _check_sizes(self.n, other.n)
        p, q = self.precision, other.precision
        return _matrix([list(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)],
                       p if q is None else q if p is None else min(p, q))

    def __add__(self, other: "_Matrix"):
        return self._zip(other, Entry.__add__)

    def __sub__(self, other: "_Matrix"):
        return self._zip(other, Entry.__sub__)

    def __neg__(self):
        return _matrix([[-e for e in r] for r in self.rows], self.precision)

    def scale(self, c: QI | int | Fraction, m: int = 1):
        """c / m times the matrix, m a positive integer: each entry's integers
        times c's numerator p + i*q and its denominator times c's denominator
        and m, in normal form."""
        p, q, d = _qi_parts(c) if isinstance(c, QI) else (c.numerator, 0, c.denominator)

        def times(e: Entry) -> Entry:
            if q:
                re = [x * p - y * q for x, y in zip(e._re, e._im)]
                im = [x * q + y * p for x, y in zip(e._re, e._im)]
            else:
                re, im = [x * p for x in e._re], [y * p for y in e._im]
            return _make(e._v, re, im, e._d * d * m) if e._re else e
        return _matrix([[times(e) for e in r] for r in self.rows], self.precision)

    def transpose(self):
        return _matrix([list(c) for c in zip(*self.rows)], self.precision)

    def substitute(self, unit: QI, invert: bool = False, conj: bool = False):
        """Entrywise substitution t -> unit*t, or t -> unit*t^-1 on an exact
        matrix only, with optional coefficient conjugation; unit is 1 or -1."""
        if unit != ONE and unit != MINUS_ONE:
            raise InvalidInputError(f"substitution unit must be 1 or -1, got {unit}")
        if invert and self.precision is not None:
            raise PrecisionError("t -> t^-1 substitution leaves the series model")
        negate = unit == MINUS_ONE
        return _matrix([[_subst(e, negate, invert, conj) for e in r] for r in self.rows],
                       self.precision)

    def __eq__(self, other) -> bool:
        """Exact matrices are equal entry for entry, series to the lesser
        precision; the two kinds never compare equal."""
        if type(other) is not type(self):
            return NotImplemented
        if self.precision is None:
            return self.rows == other.rows
        p = min(self.precision, other.precision)
        return ([[e.truncate(p) for e in r] for r in self.rows]
                == [[e.truncate(p) for e in r] for r in other.rows])

    def __repr__(self):
        def fmt(e: Entry) -> str:
            if not e:
                return "0"
            return "+".join(f"({e.coeff(k)})t^{k}" if k else f"({e.coeff(k)})"
                            for k, *_ in e.int_terms())

        body = "Laurent[" + "; ".join(", ".join(fmt(e) for e in r) for r in self.rows) + "]"
        return body if self.precision is None else f"Series(prec={self.precision}, {body})"


class LaurentMatrix(_Matrix):
    """An exact n-by-n matrix over Q(i)[t, t^-1]."""

    __slots__ = ()
    precision = None

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
        return LaurentMatrix.permutation(range(n))

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
    def permutation(w: Sequence[int],
                    scalars: Sequence[QI | int | Fraction] | None = None) -> "LaurentMatrix":
        """The permutation matrix of w (w[i] the image of i: a 1 at (w[i], i))
        times diag(scalars) when scalars are given."""
        m = LaurentMatrix.zeros(len(w))
        for i, wi in enumerate(w):
            m.rows[wi][i] = ONE_ENTRY if scalars is None else Entry.term(0, scalars[i])
        return m

    @staticmethod
    def diag_scalars(vals: Sequence[QI | int | Fraction]) -> "LaurentMatrix":
        return LaurentMatrix.permutation(range(len(vals)), vals)

    @staticmethod
    def block_diag(blocks: Sequence["LaurentMatrix"]) -> "LaurentMatrix":
        """The block-diagonal matrix of the square blocks, in order."""
        n = sum(b.n for b in blocks)
        rows, at = [], 0
        for b in blocks:
            rows += [[ZERO_ENTRY] * at + r + [ZERO_ENTRY] * (n - at - b.n) for r in b.rows]
            at += b.n
        return LaurentMatrix._of(rows)

    @staticmethod
    def t_power(lam: Sequence[int]) -> "LaurentMatrix":
        """diag(t^lam_1, ..., t^lam_n)."""
        n = len(lam)
        return LaurentMatrix._of(
            [[ONE_ENTRY.shift(int(k)) if i == j else ZERO_ENTRY for j in range(n)]
             for i, k in enumerate(lam)])

    # -- products and inverses ---------------------------------------------
    def __mul__(self, other: _Matrix) -> _Matrix:
        if other.precision is not None:
            return _series_product(self, other)
        return LaurentMatrix._of(_matmul(self.rows, other.rows))

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


# ---------------------------------------------------------------------------


class SeriesMatrix(_Matrix):
    """An n-by-n matrix over Q(i)((t)) known modulo t^precision.

    Supports are finite and bounded below; ``precision`` bounds the
    exponents stored (exclusive).
    """

    __slots__ = ("precision",)

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

    # -- constructors and conversions ----------------------------------------
    @staticmethod
    def identity(n: int, precision: int) -> "SeriesMatrix":
        return SeriesMatrix.from_laurent(LaurentMatrix.identity(n), precision)

    @staticmethod
    def from_laurent(m: LaurentMatrix, precision: int) -> "SeriesMatrix":
        v = m.val()
        if v is not None and v >= precision:
            raise PrecisionError("truncation precision below the matrix valuation")
        return SeriesMatrix._of(m.rows, precision)

    def to_laurent(self) -> LaurentMatrix:
        """Forget the truncation marker (the caller asserts exactness)."""
        return LaurentMatrix._of(self.rows)

    def retruncate(self, precision: int) -> "SeriesMatrix":
        if precision > self.precision:
            raise PrecisionError(
                f"cannot raise precision from {self.precision} to {precision}"
            )
        return SeriesMatrix._of(self.rows, precision)

    # -- products and inverses ---------------------------------------------
    def __mul__(self, other: _Matrix) -> _Matrix:
        return _series_product(self, other)

    def det_with_precision(self) -> tuple[Entry, int]:
        v = self.val()
        prec = self.precision + (self.n - 1) * min(v, 0) if self.n > 1 else self.precision
        return det_minor(self.rows, list(range(self.n)), list(range(self.n)), prec), prec

    def inverse(self) -> "SeriesMatrix":
        """The inverse modulo t^precision of a matrix in G(O): the exact
        inverse of the constant term, lifted by Newton-Schulz steps
        x <- x * (2 - a * x), short products that double the terms known
        (Schulz, ZAMM 13, 1933)."""
        n, p = self.n, self.precision
        eye = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rows, pivots, _ = eliminate([r + e for r, e in zip(self.constant_matrix(), eye)])
        if self.val() < 0 or pivots != list(range(n)):
            raise InvalidInputError("series matrix not invertible in G(O) (a negative "
                                    "exponent or a singular constant term)")
        x = [[Entry.term(0, c) for c in r[n:]] for r in rows]
        known = 1
        while known < p:
            known = min(2 * known, p)
            ax = _matmul(self.rows, x, known)
            x = _matmul(x, [[(_TWO if i == j else ZERO_ENTRY) - e for j, e in enumerate(r)]
                            for i, r in enumerate(ax)], known)
        return SeriesMatrix._of(x, p)


def series_exp(a: SeriesMatrix):
    """The pair (exp(a), exp(-a)) for a series matrix a with strictly
    positive valuation v, both at a's precision N: the sums of a^m / m!, the
    second with the odd terms negated, over m <= (N - 1) // v, since the
    terms of order m * v >= N vanish there.  One chain of products serves
    both, and it stops at the first zero term."""
    v = a.val()
    if v < 1:
        raise PrecisionError("series exp requires valuation >= 1")
    out = inv = term = SeriesMatrix.identity(a.n, a.precision)
    for m in range(1, (a.precision - 1) // v + 1):
        term = (term * a).scale(1, m)
        if term.is_zero():
            break
        out = out + term
        inv = inv - term if m % 2 else inv + term
    return out, inv
