import random
from typing import List

import pytest

from loopmatsuki.errors import InvalidInputError
from loopmatsuki.exact_algebra import (
    birkhoff_factor, cayley_unitary, conj_transpose,
    hermitian_signature, smith_over_dvr, unipotent_sqrt, valuation_coweight,
)
from loopmatsuki.gaussian import QI, ZERO
from loopmatsuki.intlat import eliminate
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_poly_element


# The Birkhoff splitting type from section-space dimension jumps: an oracle
# independent of birkhoff_factor, against which it is tested.

def birkhoff_type(gamma: LaurentMatrix) -> List[int]:
    """Splitting type (dominant) computed from block-Toeplitz rank profiles.

    This route is independent of birkhoff_factor: it measures the
    dimension of {v polynomial : exponents of gamma^{-1} v <= m} as m
    varies and reads the type off the dimension jumps.
    """
    delta = gamma.inverse()
    lo = delta.val()
    hi = delta.maxdeg()
    if lo is None or hi is None:
        raise InvalidInputError("zero matrix has no splitting type")
    n = gamma.n
    gdeg = gamma.maxdeg() or 0
    mus: List[int] = []
    m = lo - 1
    prev = _section_dim(delta, m, gdeg + m)
    # exponents mu_j all lie in [lo, hi + n] comfortably; scan until found
    while len(mus) < n:
        m += 1
        if m > hi + n * (abs(hi) + abs(lo) + 2) + 2:
            raise InvalidInputError("splitting-type scan failed to converge")
        cur = _section_dim(delta, m, gdeg + m)
        jump = cur - prev - len(mus)
        for _ in range(jump):
            mus.append(m)
        prev = cur
    return sorted([-x for x in mus], reverse=True)


def _section_dim(delta: LaurentMatrix, m: int, dmax: int) -> int:
    """dim over Q(i) of {v poly vector, deg <= dmax : exps(delta v) <= m}."""
    n = delta.n
    if dmax < 0:
        return 0
    nvars = n * (dmax + 1)
    # constraints: coefficient of t^e in (delta v)_i must vanish for e > m
    emax = (delta.maxdeg() or 0) + dmax
    rows: List[List[QI]] = []
    for i in range(n):
        for e in range(m + 1, emax + 1):
            row = [ZERO] * nvars
            nonzero = False
            for j in range(n):
                ent = delta.rows[i][j]
                for k, coeff in ent.items():
                    dcoef = e - k
                    if 0 <= dcoef <= dmax:
                        row[j * (dmax + 1) + dcoef] = row[j * (dmax + 1) + dcoef] + coeff
                        nonzero = True
            if nonzero:
                rows.append(row)
    return nvars - len(eliminate(rows)[1])


def _random_laurent_unit(n, rng):
    # product of polynomial loops and a t-power has monomial determinant
    lam = [rng.randint(-2, 2) for _ in range(n)]
    return (random_poly_element(n, 2, rng) * LaurentMatrix.t_power(lam)
            * random_poly_element(n, 2, rng).substitute(
                QI(1), invert=True, conj=False))


def test_birkhoff_random():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        gamma = _random_laurent_unit(n, rng)
        gplus, lam, gminus = birkhoff_factor(gamma)
        assert sorted(lam, reverse=True) == list(lam)
        assert gplus * LaurentMatrix.t_power(lam) * gminus == gamma
        assert (gplus.val() or 0) >= 0
        assert (gminus.maxdeg() or 0) <= 0
        assert birkhoff_type(gamma) == list(lam)


def test_birkhoff_rejects_non_unit():
    m = LaurentMatrix.from_scalars([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        birkhoff_factor(m)


def test_smith_over_dvr_random():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        lam = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        x = SeriesMatrix.from_laurent(
            random_poly_element(n, 2, rng) * LaurentMatrix.t_power(lam), 10)
        g1, got, g2, prec = smith_over_dvr(x)
        assert got == lam
        lhs = g1 * SeriesMatrix.from_laurent(LaurentMatrix.t_power(got),
                                             prec + 4) * g2
        k = min(prec, lhs.precision, x.precision)
        assert lhs.retruncate(k) == x.retruncate(k)
        assert valuation_coweight(x) == lam


def test_unipotent_sqrt():
    u = LaurentMatrix.from_scalars([[1, 3], [0, 1]])
    r = unipotent_sqrt(u)
    assert r * r == u
    u2 = LaurentMatrix.identity(2)
    u2.rows[0][1] = {2: QI(0, 1)}
    r2 = unipotent_sqrt(u2)
    assert r2 * r2 == u2


def test_cayley_unitary():
    s = LaurentMatrix.from_scalars([[QI(0, 1), QI(2)],
                                    [QI(-2), QI(0, -1)]])
    assert conj_transpose(s) == s.scale(QI(-1))  # skew-hermitian input
    k = cayley_unitary(s)
    assert k * conj_transpose(k) == LaurentMatrix.identity(2)


def test_hermitian_signature():
    assert hermitian_signature([[QI(2), QI(0)], [QI(0), QI(-3)]]) == (1, 1)
    assert hermitian_signature([[QI(1), QI(0, 1)],
                                [QI(0, -1), QI(2)]]) == (2, 0)
