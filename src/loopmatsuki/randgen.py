"""Seeded exact random generators for property tests and self-checks.

Everything is deterministic given the seed and exact over Q(i); the
generators produce elements of the arc group G(O), the polynomial loop
group G[t], the compact form U(n) and its symmetric subgroup
K_c = U(n)^theta0.  K_c is read off group_catalog's involution table: its
samples are Cayley unitaries of theta0-fixed skew-Hermitian matrices, so no
generator here knows a family.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import certify
from .exact_algebra import cayley_unitary
from .gaussian import FOURTH_ROOTS, QI
from .group_catalog import GroupDatum, d_theta0, theta0
from .laurent import LaurentMatrix, SeriesMatrix

QI_BOUND = 3  # numerators of random_qi and, by default, random_rational
DEN = 2  # their denominators run over 1..DEN
POLY_FACTORS = 4  # elementary factors of random_poly_element
COMPACT_BOUND = 5  # numerators of the compact samplers' skew-Hermitian entries


def random_qi(rng: random.Random) -> QI:
    d = rng.randint(1, DEN)
    return QI(Fraction(rng.randint(-QI_BOUND, QI_BOUND), d),
              Fraction(rng.randint(-QI_BOUND, QI_BOUND), d))


def random_rational(rng: random.Random, bound: int = QI_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, DEN))


def random_constant_invertible(n: int, rng: random.Random) -> LaurentMatrix:
    """An exactly invertible constant matrix via a random LDU product."""
    lower = [[QI(1) if i == j else (random_qi(rng) if i > j else QI(0)) for j in range(n)]
             for i in range(n)]
    upper = [[QI(1) if i == j else (random_qi(rng) if i < j else QI(0)) for j in range(n)]
             for i in range(n)]
    diag = [rng.choice(FOURTH_ROOTS) * QI(Fraction(rng.choice([1, 1, 1, 2]), rng.choice([1, 2])))
            for _ in range(n)]
    return (LaurentMatrix.from_scalars(lower)
            * LaurentMatrix.diag_scalars(diag)
            * LaurentMatrix.from_scalars(upper))


def random_arc_element(n: int, precision: int, rng: random.Random) -> SeriesMatrix:
    """A random element of G(O) known modulo t^precision."""
    rows = [[dict() for _ in range(n)] for _ in range(n)]
    const = random_constant_invertible(n, rng)
    for i in range(n):
        for j in range(n):
            e = {0: const.coeff(i, j, 0)}
            for k in range(1, precision):
                if rng.random() < 0.5:
                    v = random_qi(rng)
                    if not v.is_zero():
                        e[k] = v
            rows[i][j] = e
    return SeriesMatrix(rows, precision)


def random_poly_element(n: int, degree: int, rng: random.Random) -> LaurentMatrix:
    """A random element of G[t]: constant-unit determinant, degree <= degree."""
    m = random_constant_invertible(n, rng)
    for _ in range(POLY_FACTORS):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        k = rng.randint(0, degree)
        elem = LaurentMatrix.identity(n) + LaurentMatrix.monomial(n, i, j, k, random_qi(rng))
        m = m * elem
    return m


def random_signed_permutation(n: int, rng: random.Random) -> LaurentMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    return LaurentMatrix.permutation(perm, [rng.choice(FOURTH_ROOTS) for _ in range(n)])


def _random_skew_hermitian(n: int, rng: random.Random) -> LaurentMatrix:
    rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QI(0, random_rational(rng, COMPACT_BOUND))
        for j in range(i + 1, n):
            v = QI(random_rational(rng, COMPACT_BOUND), random_rational(rng, COMPACT_BOUND))
            rows[i][j] = v
            rows[j][i] = -v.conj()
    return LaurentMatrix.from_scalars(rows)


def random_compact(n: int, rng: random.Random) -> LaurentMatrix:
    """A random exact element of U(n): signed permutation times a Cayley unitary."""
    return random_signed_permutation(n, rng) * cayley_unitary(_random_skew_hermitian(n, rng))


def random_compact_symmetric(datum: GroupDatum, rng: random.Random) -> LaurentMatrix:
    """A random exact element of K_c = U(n)^theta0: the Cayley unitary of a
    skew-Hermitian S projected onto Lie(K_c) by (S + d_theta0(S)) / 2.  theta0
    commutes with the compact involution, so the projection stays
    skew-Hermitian, and its Cayley unitary is certified to be theta0-fixed."""
    s = _random_skew_hermitian(datum.n, rng)
    k = cayley_unitary((s + d_theta0(s, datum)).scale(Fraction(1, 2)))
    certify(theta0(k, datum) == k, "Cayley unitary is not fixed by theta0")
    return k
