"""Exact linear algebra: Gauss-Jordan over Q and Q(i), integer lattices.

Provides the one exact elimination kernel of the package (over
``fractions.Fraction`` or ``QI``) and the forward pass to a matrix's first
dependent row, both on one Z[i] row rule, integer Smith normal form with
its transforms, the integer left kernel and lattice bases.  Kernels over a
field are read off where they are needed: the Iwahori torus problem takes
its characters from the rows of the Smith transform U.  All matrices are
plain lists of lists (rows) of ``int``, ``Fraction`` or ``QI``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import certify
from .gaussian import QI

Mat = List[List[int]]


def identity_int(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a))]


def transpose(a: Sequence[Sequence]) -> list:
    return [list(col) for col in zip(*a)] if a else []


def as_fractions(m: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# exact Gauss-Jordan: fraction-free over Z[i], read over Q or Q(i)


def _row_rule(xr: List[int], xi: List[int], yr: List[int], yi: List[int],
              pr: int, pi: int, fr: int = 0, fi: int = 0) -> Tuple[List[int], List[int]]:
    """p * x - f * y for Z[i] rows x, y (real and imaginary parts) and p, f
    in Z[i], divided by its content (the gcd of its integers)."""
    vs = list(zip(xr, xi, yr, yi))
    nr = [pr * a - pi * b - fr * x + fi * y for a, b, x, y in vs]
    ni = [pr * b + pi * a - fr * y - fi * x for a, b, x, y in vs]
    g = gcd(*nr, *ni)
    return [v // g for v in nr], [v // g for v in ni]


class FractionFree:
    """Gauss-Jordan elimination of a matrix over Z[i] without fractions.

    The matrix is given as its real and its imaginary integer rows.  Against
    the pivot p = a[r][c], each other row with f = a[i][c] != 0 becomes
    p * row_i - f * row_r, divided by its content (``_row_rule``); at the
    end each pivot row is multiplied by conj(p), so its pivot is a positive
    integer.  Each row is thus a nonzero multiple of the same row of the
    reduced echelon form over Q(i), with the same pivot columns.  Unlike
    Bareiss (Math. Comp. 22, 1968), no row is divided by the last pivot, so a
    Gaussian factor such as 1 + i stays and dense Gaussian entries can grow
    exponentially with the size.  The
    identity rides along as the transform u, u * a = reduced, which
    ``solve`` applies to a right-hand side b: a pivot row's u * b over its
    pivot is one unknown, and a zero row's u * b must vanish.
    """

    __slots__ = ("pivots", "rows", "_cols", "_solution", "_checks")

    def __init__(self, re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]):
        m = len(re)
        cols = len(re[0]) if m else 0
        # row i of [a | e_i]: its real parts, then its imaginary parts
        ar = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(re)]
        ai = [list(r) + [0] * m for r in im]
        pivots: List[int] = []
        for c in range(cols):
            r = len(pivots)
            if r == m:
                break
            k = next((i for i in range(r, m) if ar[i][c] or ai[i][c]), None)
            if k is None:
                continue
            ar[r], ar[k], ai[r], ai[k] = ar[k], ar[r], ai[k], ai[r]
            for i in range(m):
                if i != r and (ar[i][c] or ai[i][c]):
                    ar[i], ai[i] = _row_rule(ar[i], ai[i], ar[r], ai[r],
                                             ar[r][c], ai[r][c], ar[i][c], ai[i][c])
            pivots.append(c)
        for r, c in enumerate(pivots):
            # times conj(p): the pivot is |p|^2
            ar[r], ai[r] = _row_rule(ar[r], ai[r], ar[r], ai[r], ar[r][c], -ai[r][c])
        rank = len(pivots)
        self.pivots, self._cols = pivots, cols
        #: (real, imaginary) parts of each reduced row; pivot row r is its
        #: positive pivot ar[r][pivots[r]] times the reduced echelon row
        self.rows = [(r[:cols], i[:cols]) for r, i in zip(ar, ai)]
        #: per pivot row: its column, its pivot, and u's nonzero (j, re, im)
        self._solution = [(c, ar[r][c], _support(ar[r][cols:], ai[r][cols:]))
                          for r, c in enumerate(pivots)]
        self._checks = [_support(r[cols:], i[cols:]) for r, i in zip(ar[rank:], ai[rank:])]

    def solve(self, re: Sequence[int], im: Sequence[int]):
        """The solution of a * x = b, b = re + i * im over Z[i], that is zero
        at the free columns, as (xr, xi, xd) with x_c = (xr[c] + i * xi[c]) /
        xd[c], xd[c] > 0; None if the system has no solution."""
        for u in self._checks:
            if (sum(a * re[j] - b * im[j] for j, a, b in u)
                    or sum(a * im[j] + b * re[j] for j, a, b in u)):
                return None
        xr, xi, xd = [0] * self._cols, [0] * self._cols, [1] * self._cols
        for c, p, u in self._solution:
            xr[c] = sum(a * re[j] - b * im[j] for j, a, b in u)
            xi[c] = sum(a * im[j] + b * re[j] for j, a, b in u)
            xd[c] = p
        return xr, xi, xd


def first_dependency(re: Sequence[Sequence[int]], im: Sequence[Sequence[int]]):
    """(f, tr, ti): the first row f of a Z[i] matrix a (its real and
    imaginary integer rows) that depends on the rows before it, and t = tr +
    i * ti with t * a = 0, support in rows 0..f and t_f != 0; None at full
    row rank.  Each row, the identity row riding along as its transform, is
    reduced by ``_row_rule`` against the echelon rows before it."""
    m = len(re)
    cols = len(re[0]) if m else 0
    echelon: List[Tuple[int, List[int], List[int]]] = []  # (pivot column, re, im)
    for f in range(m):
        xr = list(re[f]) + [int(f == j) for j in range(m)]
        xi = list(im[f]) + [0] * m
        for c, er, ei in echelon:
            if xr[c] or xi[c]:
                xr, xi = _row_rule(xr, xi, er, ei, er[c], ei[c], xr[c], xi[c])
        c = next((j for j in range(cols) if xr[j] or xi[j]), None)
        if c is None:
            return f, xr[cols:], xi[cols:]
        echelon.append((c, xr, xi))
    return None


def _support(re: Sequence[int], im: Sequence[int]) -> List[Tuple[int, int, int]]:
    return [(j, a, b) for j, (a, b) in enumerate(zip(re, im)) if a or b]


def _gaussian_parts(xs: Sequence) -> Tuple[List[int], List[int], int]:
    """(re, im, d) with xs[j] = (re[j] + i * im[j]) / d for int, Fraction or
    QI entries, d > 0 their common denominator."""
    pairs = [(x.re, x.im) if isinstance(x, QI) else (x, 0) for x in xs]
    d = lcm(*(f.denominator for p in pairs for f in p))
    return ([a.numerator * (d // a.denominator) for a, _ in pairs],
            [b.numerator * (d // b.denominator) for _, b in pairs], d)


def eliminate(a: Sequence[Sequence]) -> Tuple[list, List[int], Callable]:
    """Gauss-Jordan on a once: (reduced rows, pivot columns, solve).

    The entries are Fraction or QI (int allowed beside them); the rows and
    solutions are QI when any entry of a is, else Fraction.  Each row is
    cleared of its denominators and the Z[i] matrix is eliminated by
    ``FractionFree``; the reduced echelon form is unique, so its rows are
    those of Gauss-Jordan over the field.  ``solve(b)`` applies the
    recorded transform to b alone and returns the solution of a*x = b that
    is zero at the free columns, or None if the system is inconsistent.
    """
    kind = QI if any(isinstance(x, QI) for r in a for x in r) else Fraction
    parts = [_gaussian_parts(r) for r in a]
    ff = FractionFree([p[0] for p in parts], [p[1] for p in parts])
    scales = [p[2] for p in parts]

    def field(re: int, im: int, d: int):
        return QI(Fraction(re, d), Fraction(im, d)) if kind is QI else Fraction(re, d)

    # pivot row r over its pivot, a positive integer, is reduced echelon row r
    rows = [[field(x, y, re[c]) for x, y in zip(re, im)]
            for (re, im), c in zip(ff.rows, ff.pivots)]
    rows += [[kind(0)] * len(re) for re, _ in ff.rows[len(ff.pivots):]]

    def solve(b: Sequence) -> Optional[list]:
        re, im, d = _gaussian_parts(b)
        # row i of the integer system is scales[i] times row i of a
        x = ff.solve([v * s for v, s in zip(re, scales)], [v * s for v, s in zip(im, scales)])
        if x is None:
            return None
        return [field(u, v, w * d) for u, v, w in zip(*x)]

    return rows, ff.pivots, solve


def invert(a: Sequence[Sequence]) -> Optional[list]:
    """a^-1 over Q or Q(i), read off the reduced form of [a | I]; None if a is singular."""
    n = len(a)
    rows, pivots, _ = eliminate([list(r) + [int(i == j) for j in range(n)]
                                 for i, r in enumerate(a)])
    return [r[n:] for r in rows] if pivots == list(range(n)) else None


def snf_int(m: Sequence[Sequence[int]]) -> Tuple[Mat, Mat, Mat]:
    """Smith normal form.

    Returns (U, D, V) with U*M*V = D, U and V unimodular, and D diagonal
    with d_1 | d_2 | ... (nonnegative), trailing zeros allowed.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(map(int, r)) for r in m]
    u = identity_int(rows)
    v = identity_int(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):  # row dst += c * row src
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot: smallest nonzero absolute value in the submatrix
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # reduce column t below the pivot
            moved = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        moved = True
            if moved:
                continue
            # reduce row t to the right of the pivot
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # pivot must divide every remaining entry (divisibility chain)
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v


def snf_diagonal(d: Mat) -> List[int]:
    k = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(k)]


def integer_left_kernel_basis(m: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis of {x integer row vector : x M = 0}."""
    u, d, _ = snf_int(m)
    rank = sum(1 for x in snf_diagonal(d) if x) if d else 0
    rows = len(m)
    return [u[i] for i in range(rank, rows)]


def lattice_basis(gens: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the lattice in Q^n generated by the given vectors."""
    gens = [list(v) for v in gens if any(v)]
    if not gens:
        return []
    k = len(gens[0])
    flat, _, denom = _gaussian_parts([x for v in gens for x in v])
    # columns = generators
    m = transpose([flat[j:j + k] for j in range(0, len(flat), k)])
    u, d, _ = snf_int(m)
    solve = eliminate(as_fractions(u))[2]  # U x = e_i gives column i of U^-1
    n = len(m)
    basis = []
    for i, dd in enumerate(snf_diagonal(d)):
        if dd:
            col = solve([int(r == i) for r in range(n)])
            certify(col is not None and all(x.denominator == 1 for x in col),
                    "Smith transform U has no integral inverse")
            basis.append([x * dd / denom for x in col])
    return basis
