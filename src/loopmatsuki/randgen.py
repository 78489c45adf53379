"""Seeded exact random generators for property tests and self-checks.

Everything is deterministic given the seed and exact over Q(i); the
generators produce elements of the arc group G(O), the polynomial loop
group G[t], and the compact form U(n) (optionally constrained to the
symmetric subgroups of the three families).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidInputError, certify
from .exact_algebra import cayley_unitary
from .gaussian import FOURTH_ROOTS, QI
from .group_catalog import GroupDatum, QUATERNIONIC_GL, SPLIT_GL, UNITARY, j_matrix
from .laurent import LaurentMatrix, SeriesMatrix


def random_qi(rng: random.Random, bound: int = 3, den: int = 2) -> QI:
    d = rng.randint(1, den)
    return QI(Fraction(rng.randint(-bound, bound), d), Fraction(rng.randint(-bound, bound), d))


def random_rational(rng: random.Random, bound: int = 3, den: int = 2) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


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
            e = dict(const.entry(i, j))
            for k in range(1, precision):
                if rng.random() < 0.5:
                    v = random_qi(rng)
                    if not v.is_zero():
                        e[k] = v
            rows[i][j] = e
    return SeriesMatrix(rows, precision)


def random_poly_element(n: int, degree: int, rng: random.Random,
                        factors: int = 4) -> LaurentMatrix:
    """A random element of G[t]: constant-unit determinant, degree <= degree."""
    m = random_constant_invertible(n, rng)
    for _ in range(factors):
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


def _random_skew_hermitian(n: int, rng: random.Random, bound: int) -> LaurentMatrix:
    rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = QI(0, random_rational(rng, bound))
        for j in range(i + 1, n):
            v = QI(random_rational(rng, bound), random_rational(rng, bound))
            rows[i][j] = v
            rows[j][i] = -v.conj()
    return LaurentMatrix.from_scalars(rows)


def _random_real_skew(n: int, rng: random.Random, bound: int) -> LaurentMatrix:
    rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = QI(random_rational(rng, bound))
            rows[i][j] = v
            rows[j][i] = -v
    return LaurentMatrix.from_scalars(rows)


def random_compact(n: int, rng: random.Random, bound: int = 5) -> LaurentMatrix:
    """A random exact element of U(n): signed permutation times a Cayley unitary."""
    return random_signed_permutation(n, rng) * cayley_unitary(
        _random_skew_hermitian(n, rng, bound))


def random_compact_symmetric(datum: GroupDatum, rng: random.Random,
                             bound: int = 5) -> LaurentMatrix:
    """A random exact element of the compact symmetric subgroup K_c.

    SplitGL: O(n) real orthogonal; QuaternionicGL: quaternionic unitary
    (compact symplectic); Unitary: U(n) itself.
    """
    n = datum.n
    if datum.family == UNITARY:
        return random_compact(n, rng, bound)
    if datum.family == SPLIT_GL:
        return cayley_unitary(_random_real_skew(n, rng, bound))
    if datum.family == QUATERNIONIC_GL:
        # skew-Hermitian commuting with J: S = A + J B with A, B built from
        # 2x2 quaternion cells; equivalently solve the commutant constraint
        # cellwise: S[2a:2a+2, 2b:2b+2] = [[p, q], [-q~, p~]].
        half = n // 2
        rows = [[QI(0)] * n for _ in range(n)]
        for a in range(half):
            for b in range(half):
                p = QI(random_rational(rng, bound), random_rational(rng, bound))
                q = QI(random_rational(rng, bound), random_rational(rng, bound))
                rows[2 * a][2 * b] = p
                rows[2 * a][2 * b + 1] = q
                rows[2 * a + 1][2 * b] = -q.conj()
                rows[2 * a + 1][2 * b + 1] = p.conj()
        s = LaurentMatrix.from_scalars(rows)
        from .exact_algebra import conj_transpose

        s = s - conj_transpose(s)
        s = s.scale(Fraction(1, 2))
        k = cayley_unitary(s)
        jm = j_matrix(n)
        certify(jm * k.substitute(QI(1), conj=True) == k * jm,
                "Cayley unitary is not quaternionic")
        return k
    raise InvalidInputError(f"unknown family {datum.family!r}")
