"""Exact matrix algebra over Q(i)[t, t^-1] and Q(i)[[t]].

The operations here are the computational backbone: valuation coweights,
Smith positioning over the power-series DVR, Birkhoff factorization,
unipotent square roots, and exact Cayley unitaries.  Smith positioning and
Birkhoff factorization run row operations only; each returns the inverse of
its left factor as the product of those operations, certified against the
factor, so no caller inverts it by cofactors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Tuple

from .errors import InvalidInputError, PrecisionError, certify
from .gaussian import QI, ONE
from .intlat import first_dependency, invert
from .laurent import (
    ONE_ENTRY,
    ZERO_ENTRY,
    Entry,
    LaurentMatrix,
    SeriesMatrix,
    det_minor,
)

# ---------------------------------------------------------------------------
# valuation coweight


def valuation_coweight(s: SeriesMatrix) -> List[int]:
    """Dominant coweight of minor valuations.

    v_k = min valuation over all k x k minors; the elementary-divisor
    exponents are mu_k = v_k - v_{k-1} (ascending); returned sorted
    dominant, i.e. weakly decreasing.  Raises PrecisionError when the
    truncation cannot certify some minimal valuation.
    """
    n = s.n
    v_prev = 0
    mus: List[int] = []
    base_prec = s.precision
    vmat = s.val()
    for k in range(1, n + 1):
        best: int | None = None
        floors: List[int] = []
        for ridx in combinations(range(n), k):
            for cidx in combinations(range(n), k):
                # a k-fold product of entries known mod t^N with val >= vmat
                prec = base_prec + (k - 1) * min(vmat, 0)
                minor = det_minor(s.rows, list(ridx), list(cidx), prec)
                if minor:
                    mv = minor.val()
                    best = mv if best is None else min(best, mv)
                else:
                    floors.append(prec)
        if best is None:
            raise PrecisionError(
                f"all {k}x{k} minors vanish to the recorded precision; "
                "cannot certify the valuation coweight"
            )
        if any(f <= best for f in floors):
            raise PrecisionError(
                f"a {k}x{k} minor is known only above the candidate valuation {best}"
            )
        mus.append(best - v_prev)
        v_prev = best
    # elementary divisors ascend; dominant means weakly decreasing
    return sorted(mus, reverse=True)


# ---------------------------------------------------------------------------
# Smith positioning over the DVR Q(i)[[t]]


def smith_over_dvr(s: SeriesMatrix) -> Tuple[SeriesMatrix, List[int], SeriesMatrix]:
    """Position a series matrix as g1 * t^lam * g2 with g1, g2 in G(O).

    Returns (g1, lam, g1_inv), lam dominant, g1_inv * g1 = I certified, both
    modulo t^(s.precision - max(0, lam_0)) to pay for positive-valuation
    pivots.  g2 = t^-lam * g1_inv * s is not built.  Only row operations
    run: pivot k, t^a * u of least valuation in rows and columns >= k, is
    swapped to (k, k), row i > k loses (e_ik / t^a u) * row k, and row k is
    divided by u.  g1_inv is their product, g1 that of their inverses.  1/u
    is taken once, to precision s.precision - min(a, 0): 1/u mod t^p is
    unique and each eliminated e_ik has valuation >= a, so every factor is
    the one a division per entry gives.  No later step reads row k, or any
    column <= k of the rows below it, so no column operation clears them.
    """
    n = s.n
    prec = s.precision
    a_rows: List[List[Entry]] = [list(r) for r in s.rows]
    g1 = [[ONE_ENTRY if i == j else ZERO_ENTRY for j in range(n)] for i in range(n)]
    g1_inv = [list(r) for r in g1]

    pivots: List[int] = []
    for k in range(n):
        # minimal-valuation pivot in the remaining submatrix
        piv = None
        for i in range(k, n):
            for j in range(k, n):
                e = a_rows[i][j]
                if e and (piv is None or e.val() < piv[2]):
                    piv = (i, j, e.val())
        if piv is None:
            raise PrecisionError("matrix singular to recorded precision in Smith positioning")
        i0, j0, a = piv
        if i0 != k:
            for rows in (a_rows, g1_inv):
                rows[k], rows[i0] = rows[i0], rows[k]
            for r in g1:
                r[k], r[i0] = r[i0], r[k]
        if j0 != k:
            for r in a_rows[k:]:
                r[k], r[j0] = r[j0], r[k]
        unit = a_rows[k][k].shift(-a)
        rec = unit.reciprocal(prec - min(a, 0))
        for i in range(k + 1, n):
            if a_rows[i][k]:
                f = a_rows[i][k].mul_below(rec, prec).shift(-a)
                # row_i -= f * row_k; on g1 the inverse: col_k += f * col_i
                for j in range(k + 1, n):
                    a_rows[i][j] = a_rows[i][j] - f.mul_below(a_rows[k][j], prec)
                g1_inv[i] = [x - f.mul_below(y, prec) for x, y in zip(g1_inv[i], g1_inv[k])]
                for r in g1:
                    r[k] = r[k] + f.mul_below(r[i], prec)
        # row_k /= u; on g1 the inverse: col_k *= u
        g1_inv[k] = [x.mul_below(rec, prec) for x in g1_inv[k]]
        for r in g1:
            r[k] = r[k].mul_below(unit, prec)
        pivots.append(a)

    out_prec = prec - max(0, max(pivots))
    if out_prec < SeriesMatrix.MIN_RESIDUAL:
        raise PrecisionError(
            f"Smith positioning would leave precision {out_prec} < "
            f"{SeriesMatrix.MIN_RESIDUAL}; supply more input precision"
        )
    # sort exponents weakly decreasing: t^lam = P t^pivots P^-1, and P moves
    # the columns of g1 and the rows of g1_inv
    order = sorted(range(n), key=lambda i: -pivots[i])
    lam = [pivots[i] for i in order]
    g1 = SeriesMatrix([[r[i] for i in order] for r in g1], out_prec)
    g1_inv = SeriesMatrix([g1_inv[i] for i in order], out_prec)
    certify(g1_inv * g1 == SeriesMatrix.identity(n, out_prec),
            "Smith g1 inverse does not invert g1")
    return g1, lam, g1_inv


# ---------------------------------------------------------------------------
# Birkhoff factorization gamma = g_plus t^lam g_minus


NOT_INVERTIBLE = "Birkhoff factorization needs an invertible Laurent loop"


def _lead_dependency(p_rows: List[List[Entry]], degs: List[int]) -> List[Entry] | None:
    """c = t / t_f as constant entries, t * L = 0 from ``first_dependency``
    on the leading-coefficient matrix L (the t^0 layer of the rows shifted
    down by their degrees, as Gaussian integers); None when L is invertible."""
    n = len(p_rows)
    lead = LaurentMatrix([[e.shift(-dg) for e in r] for r, dg in zip(p_rows, degs)])
    re, im, _ = lead.layer_ints(0)
    dep = first_dependency([re[i:i + n] for i in range(0, n * n, n)],
                           [im[i:i + n] for i in range(0, n * n, n)])
    if dep is None:
        return None
    f, tr, ti = dep
    a, b = tr[f], ti[f]
    norm = a * a + b * b  # t_j / t_f = t_j * conj(t_f) / |t_f|^2
    return [Entry.int_term(0, x * a + y * b, y * a - x * b, norm) for x, y in zip(tr, ti)]


def birkhoff_factor(
    gamma: LaurentMatrix,
) -> Tuple[LaurentMatrix, List[int], LaurentMatrix, LaurentMatrix]:
    """Exact Birkhoff factorization by polynomial row reduction.

    Returns (g_plus, lam, g_minus, g_plus_inv) with g_plus in G[t], lam
    dominant, g_minus in G[t^-1], gamma == g_plus * t^lam * g_minus exactly
    and g_plus_inv * g_plus == 1.

    A step takes the first row f of the leading-coefficient matrix L that
    depends on the rows before it.  Rows 0..f-1 are independent, so the left
    null vector c of L with support in {0..f} and c_f = 1 is unique: the
    kernel vector of L^T at its first free column in reduced echelon form.
    Row i0, of largest degree where c is nonzero, becomes the lower-degree
    sum_j c_j t^(d_i0 - d_j) row_j (certified, so the loop ends); that row
    operation E on an identity-started matrix gives g_plus_inv = P * E_k ...
    E_1, and g_plus takes E^-1.

    Precondition: gamma is invertible over Q(i)[t, t^-1]; no determinant is
    taken.  The row operations are unimodular over Q(i)[t], so a singular
    gamma, and only one, ends in a zero row (InvalidInputError).  The
    reduction ends with L invertible, so deg det gamma = sum(lam) (the
    predictable-degree property: Kailath, Linear Systems, 1980, ch. 6;
    Beckermann-Labahn-Villard, J. Symb. Comput. 41, 2006).  An eta-anti-fixed
    gamma then has a unit det gamma on split_gl and quaternionic_gl
    (gamma * eta(gamma) = z), and on unitary, where gamma(t) =
    z * gamma(epsilon/t)^dagger gives val det = -deg det, a monomial one iff
    sum(lam) = 0; that is group_catalog.eta_anti_fixed_is_unit.
    """
    n = gamma.n
    m = gamma.val()
    if m is None:
        raise InvalidInputError(NOT_INVERTIBLE)
    p_rows: List[List[Entry]] = [[e.shift(-m) for e in r] for r in gamma.rows]
    gplus = [[ONE_ENTRY if i == j else ZERO_ENTRY for j in range(n)] for i in range(n)]
    ginv = [list(r) for r in gplus]

    def row_deg(i: int) -> int:
        degs = [e.deg() for e in p_rows[i] if e]
        return max(degs) if degs else -1

    while True:
        degs = [row_deg(i) for i in range(n)]
        if any(dd < 0 for dd in degs):
            raise InvalidInputError(NOT_INVERTIBLE)  # a zero row: det gamma = 0
        c = _lead_dependency(p_rows, degs)
        if c is None:
            break
        # pick the row of maximal degree among those with nonzero coefficient
        i0 = max((i for i in range(n) if c[i]), key=lambda i: degs[i])
        # row_i0 <- sum_j c_j t^{d_i0 - d_j} row_j  (degree of row i0 drops)
        shifts = [degs[i0] - dj for dj in degs]
        for rows in (p_rows, ginv):
            new_row = [ZERO_ENTRY] * n
            for r, x, k in zip(rows, c, shifts):
                if x:
                    new_row = [acc + (e * x).shift(k) for acc, e in zip(new_row, r)]
            rows[i0] = new_row
        certify(row_deg(i0) < degs[i0], "Birkhoff row reduction did not lower a row degree")
        # gplus <- gplus * E^{-1} = gplus + (column i0) * (row i0 of E^{-1} - e_i0)
        ci_inv = c[i0].reciprocal(1)
        einv = [(-(x * ci_inv)).shift(k) for x, k in zip(c, shifts)]
        einv[i0] = ci_inv - ONE_ENTRY
        for r in gplus:
            r[:] = [x + r[i0] * y for x, y in zip(r, einv)]

    degs = [row_deg(i) for i in range(n)]
    lam_unsorted = [m + dd for dd in degs]

    # sort lam weakly decreasing: gamma = (gplus P^-1) t^{sorted} (P gminus)
    order = sorted(range(n), key=lambda i: -lam_unsorted[i])
    lam = [lam_unsorted[i] for i in order]
    gplus = LaurentMatrix([[r[i] for i in order] for r in gplus])
    gminus = LaurentMatrix([[e.shift(-degs[i]) for e in p_rows[i]] for i in order])
    gplus_inv = LaurentMatrix([ginv[i] for i in order])

    # exactness, membership and inverse checks
    certify(gplus * LaurentMatrix.t_power(lam) * gminus == gamma,
            "Birkhoff factors do not multiply back")
    certify((gplus.val() or 0) >= 0, "g_plus escaped G[t]")
    certify((gminus.maxdeg() or 0) <= 0, "g_minus escaped G[t^-1]")
    certify(gplus_inv * gplus == LaurentMatrix.identity(n),
            "Birkhoff g_plus inverse does not invert g_plus")
    return gplus, lam, gminus, gplus_inv


# ---------------------------------------------------------------------------
# unipotent square root and Cayley transform


def _binomial_roots(x: LaurentMatrix) -> Tuple[LaurentMatrix, LaurentMatrix]:
    """(1 + x)^(1/2) and (1 + x)^(-1/2) as the binomial sums of C(+-1/2, m) x^m:
    one run of powers of x serves both and the nilpotency check x^n = 0."""
    root = inv = LaurentMatrix.identity(x.n)
    up = down = Fraction(1)  # C(1/2, m) and C(-1/2, m)
    p, m = x, 1
    while not p.is_zero():
        if m == x.n:
            raise InvalidInputError("matrix is not unipotent (u-1 not nilpotent)")
        up *= Fraction(3 - 2 * m, 2 * m)
        down *= Fraction(1 - 2 * m, 2 * m)
        root, inv = root + p.scale(up), inv + p.scale(down)
        p, m = p * x, m + 1
    return root, inv


def unipotent_sqrt(u: LaurentMatrix) -> Tuple[LaurentMatrix, LaurentMatrix]:
    """The unique unipotent square root v = (1 + x)^(1/2) = exp(log(u)/2) of a
    unipotent matrix u = 1 + x, and its inverse (1 + x)^(-1/2)."""
    v, v_inv = _binomial_roots(u - LaurentMatrix.identity(u.n))
    certify(v * v == u, "square root failed to square back")
    certify(v * v_inv == LaurentMatrix.identity(u.n), "square root inverse does not invert it")
    return v, v_inv


def conj_transpose(m: LaurentMatrix) -> LaurentMatrix:
    """Adjoint for constant matrices: conjugate transpose."""
    if not m.is_constant():
        raise InvalidInputError("conjugate transpose is defined here for constant matrices")
    return m.substitute(ONE, conj=True).transpose()


def cayley_unitary(s: LaurentMatrix) -> LaurentMatrix:
    """Exact unitary (I - S)(I + S)^{-1} from a constant skew-Hermitian S."""
    n = s.n
    if not s.is_constant():
        raise InvalidInputError("Cayley transform expects a constant matrix")
    if conj_transpose(s) != -s:
        raise InvalidInputError("Cayley transform expects a skew-Hermitian matrix")
    ident = LaurentMatrix.identity(n)
    inv = invert((ident + s).constant_matrix())
    # S has imaginary eigenvalues, so I + S has none at 0
    certify(inv is not None, "I + S is singular")
    k = (ident - s) * LaurentMatrix.from_scalars(inv)
    certify(k * conj_transpose(k) == ident, "Cayley transform is not unitary")
    return k


# ---------------------------------------------------------------------------
# exact Hermitian signature (the canonicalizers' class matcher compares it)


def hermitian_signature(h: List[List[QI]]) -> Tuple[int, int]:
    """Signature (p, q) of a nondegenerate Hermitian Q(i) matrix, exactly.

    Congruence elimination: pivot k takes a nonzero diagonal entry of the
    remaining block, and the Schur complement keeps the block Hermitian, so
    every pivot is real and, by Sylvester's law of inertia, p counts the
    positive ones.  When that diagonal is all zero, row k gains c * row j and
    column k gains conj(c) * column j for c = conj(h_jk), which puts
    2 |h_jk|^2 > 0 at (k, k); a zero column k then means a degenerate form.
    """
    n = len(h)
    for i in range(n):
        for j in range(n):
            if h[i][j] != h[j][i].conj():
                raise InvalidInputError("matrix is not Hermitian")
    a = [list(r) for r in h]
    pos = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is not None:
            a[k], a[piv] = a[piv], a[k]
            for r in a:
                r[k], r[piv] = r[piv], r[k]
        else:
            j = next((j for j in range(k + 1, n) if a[j][k]), None)
            if j is None:
                raise InvalidInputError("Hermitian form is degenerate")
            hjk = a[j][k]
            c = hjk.conj()
            a[k] = [x + c * y for x, y in zip(a[k], a[j])]
            for r in a:
                r[k] += hjk * r[j]  # conj(c) * column j
        d = a[k][k]
        certify(d.is_real(), "Hermitian congruence pivot is not real")
        pos += d.re > 0
        inv_d = 1 / d.re
        for i in range(k + 1, n):
            f = a[i][k] * inv_d
            if f:
                a[i] = a[i][:k + 1] + [x - f * y for x, y in zip(a[i][k + 1:], a[k][k + 1:])]
    return pos, n - pos
