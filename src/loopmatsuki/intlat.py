"""Exact linear algebra: Gauss-Jordan over Q and Q(i), integer lattices.

Provides the one exact elimination kernel of the package (over
``fractions.Fraction`` or ``QI``), integer Smith normal form with its
transforms, the integer left kernel and lattice bases.  Kernels over a
field are read off where they are needed: the Iwahori torus problem takes
its characters from the rows of the Smith transform U.  All matrices are
plain lists of lists (rows) of ``int``, ``Fraction`` or ``QI``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
# exact Gauss-Jordan over a field (Fraction or QI entries)


def _reciprocal(x):
    # one QI.inv(), not 1 / x, which would also multiply by QI(1)
    return x.inv() if isinstance(x, QI) else 1 / x


def eliminate(a: Sequence[Sequence]) -> Tuple[list, List[int], Callable]:
    """Gauss-Jordan on a once: (reduced rows, pivot columns, solve).

    The entries need ``+ - *``, a reciprocal and a truthiness zero test.
    ``solve(b)`` replays the recorded row operations on b alone, so each
    right-hand side costs what carrying it as one more column would.  It
    returns the solution of a*x = b that is zero at the free columns, or
    None if the system is inconsistent.
    """
    m = len(a)
    cols = len(a[0]) if m else 0
    rows = [list(r) for r in a]
    # per pivot: (row, swapped-in row, reciprocal, [(row, factor)])
    ops: List[Tuple[int, int, object, List[Tuple[int, object]]]] = []
    pivots: List[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _reciprocal(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        fs = []
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                fs.append((i, f))
        ops.append((r, pr, inv, fs))
        pivots.append(c)
    rank = len(pivots)
    zero = type(a[0][0])(0) if cols else None

    def solve(b: Sequence) -> Optional[list]:
        b = list(b)
        for pr, swap, inv, fs in ops:
            b[pr], b[swap] = b[swap], b[pr]
            b[pr] = b[pr] * inv
            for i, f in fs:
                b[i] = b[i] - f * b[pr]
        if any(b[rank:]):
            return None
        x = [zero] * cols
        for i, c in enumerate(pivots):
            x[c] = b[i]
        return x

    return rows, pivots, solve


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


def _clear_denominators(vecs: Sequence[Sequence[Fraction]]) -> Tuple[List[List[int]], int]:
    denom = 1
    for v in vecs:
        for x in v:
            denom = lcm(denom, Fraction(x).denominator)
    ints = [[int(Fraction(x) * denom) for x in v] for v in vecs]
    return ints, denom


def lattice_basis(gens: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Basis of the lattice in Q^n generated by the given vectors."""
    gens = [list(v) for v in gens if any(v)]
    if not gens:
        return []
    ints, denom = _clear_denominators(gens)
    # columns = generators
    m = transpose(ints)
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
