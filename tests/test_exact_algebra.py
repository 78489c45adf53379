import functools
import random
from fractions import Fraction
from math import lcm
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

import loopmatsuki.group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta, classify_theta, enumerate_admissible
from loopmatsuki.errors import InvalidInputError
from loopmatsuki.exact_algebra import (
    NOT_INVERTIBLE, _lead_dependency, birkhoff_factor, cayley_unitary, conj_transpose,
    hermitian_signature, smith_over_dvr, unipotent_sqrt, valuation_coweight,
)
from loopmatsuki.gaussian import QI, ZERO
from loopmatsuki.intlat import eliminate, first_dependency, mat_mul, transpose
from loopmatsuki.laurent import Entry, LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_arc_element, random_poly_element
from test_intlat import kernel_basis


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


def as_dict(e):
    """The entry's nonzero terms as a dict exponent -> QI."""
    return {k: e.coeff(k) for k, *_ in e.int_terms()}


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
                for k, coeff in as_dict(ent).items():
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


def _check_birkhoff(gamma: LaurentMatrix) -> List[int]:
    gplus, lam, gminus, gplus_inv = birkhoff_factor(gamma)
    assert sorted(lam, reverse=True) == list(lam)
    assert gplus * LaurentMatrix.t_power(lam) * gminus == gamma
    assert (gplus.val() or 0) >= 0
    assert (gminus.maxdeg() or 0) <= 0
    # the inverse from the row operations is the cofactor inverse, field
    # for field (Entry equality compares the normal-form fields)
    assert gplus_inv == gplus.inverse()
    assert gplus_inv * gplus == LaurentMatrix.identity(gamma.n)
    return lam


def test_birkhoff_random():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        gamma = _random_laurent_unit(n, rng)
        assert birkhoff_type(gamma) == list(_check_birkhoff(gamma))
    # one split_gl rank-7 eta twist, the rank the row reduction is for
    d = gc.build_datum("split_gl", 7, 1)
    (cls,) = classify_eta(d, (1, 0, 0, 0, 0, 0, -1))
    h = random_poly_element(7, 3, rng)
    gamma = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
    assert _check_birkhoff(gamma) == list(cls.lam)


def _gaussian_rationals():
    return st.builds(lambda a, b, d: QI(Fraction(a, d), Fraction(b, d)),
                     st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6))


@st.composite
def _leading_rows(draw):
    """Rows of Entries whose leading coefficients form a rank-r matrix A * B
    (some rows zeroed), each row with lower terms below its degree."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, n))
    qi = _gaussian_rationals()
    a = draw(st.lists(st.lists(qi, min_size=r, max_size=r), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(qi, min_size=n, max_size=n), min_size=r, max_size=r))
    zeroed = draw(st.sets(st.integers(0, n - 1)))
    lead = [[ZERO if i in zeroed else sum((a[i][k] * b[k][j] for k in range(r)), ZERO)
             for j in range(n)] for i in range(n)]
    degs = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    lower = draw(st.lists(st.lists(qi, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = [[Entry.of({degs[i]: lead[i][j], degs[i] - 1: lower[i][j]}) for j in range(n)]
            for i in range(n)]
    return rows, degs, lead


@settings(max_examples=200, deadline=None)
@given(_leading_rows())
def test_lead_dependency_against_elimination(case):
    rows, degs, lead = case
    reduced, pivots, _ = eliminate(transpose(lead))
    basis = kernel_basis(reduced, pivots)
    c = _lead_dependency(rows, degs)
    if c is None:
        assert not basis
    else:
        assert all(not e or e.val() == e.deg() == 0 for e in c)  # constants
        assert [e.coeff(0) for e in c] == basis[0]


@settings(max_examples=200, deadline=None)
@given(_leading_rows())
def test_first_dependency_is_the_first_dependent_row(case):
    _, _, lead = case  # A * B of rank r <= n with zeroed rows: planted dependencies
    d = lcm(*(x.re.denominator * x.im.denominator for r in lead for x in r))
    re = [[int(x.re * d) for x in r] for r in lead]
    im = [[int(x.im * d) for x in r] for r in lead]
    n = len(lead)
    dep = first_dependency(re, im)
    rank = len(eliminate(lead)[1])
    assert (dep is None) == (rank == n)
    if dep is None:
        return
    f, tr, ti = dep
    assert len(tr) == len(ti) == n
    # t * a = 0 over Z[i]
    for j in range(n):
        assert sum(x * re[k][j] - y * im[k][j] for k, (x, y) in enumerate(zip(tr, ti))) == 0
        assert sum(x * im[k][j] + y * re[k][j] for k, (x, y) in enumerate(zip(tr, ti))) == 0
    assert tr[f] or ti[f]
    assert not any(tr[f + 1:]) and not any(ti[f + 1:])
    assert len(eliminate(lead[:f])[1]) == f


def test_birkhoff_rejects_non_unit():
    m = LaurentMatrix.from_scalars([[1, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        birkhoff_factor(m)


@functools.lru_cache(maxsize=None)
def _eta_classes(family, n, eps):
    d = gc.build_datum(family, n, eps)
    return d, [c for lam in enumerate_admissible(d, 1) for c in classify_eta(d, lam)]


@st.composite
def _eta_anti_fixed_loops(draw):
    """x = h * rep * eta(h)^-1 for an eta class representative rep.  On
    unitary eta(h)^-1 takes no inverse, so h may be any loop: a unit, a unit
    times diag(1 + c t^k, 1, ..., 1), or a unit times diag(0, 1, ..., 1), and
    det x is then a nonzero monomial, a non-monomial or zero.  Elsewhere h is
    a unit, since eta(h)^-1 inverts h."""
    family = draw(st.sampled_from(gc.FAMILIES))
    n = draw(st.sampled_from((2, 4) if family == gc.QUATERNIONIC_GL else (1, 2, 3, 4)))
    d, classes = _eta_classes(family, n, draw(st.sampled_from((1, -1))))
    cls = draw(st.sampled_from(classes))
    kinds = ("monomial", "non_monomial", "zero") if family == gc.UNITARY else ("monomial",)
    kind = draw(st.sampled_from(kinds))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    h = random_poly_element(n, 2, rng) * LaurentMatrix.t_power(
        [rng.randint(-1, 1) for _ in range(n)])
    if kind != "monomial":
        first = Entry.of({})
        if kind == "non_monomial":
            first = Entry.of({0: 1, rng.choice((-2, -1, 1, 2)): draw(
                _gaussian_rationals().filter(bool))})
        h = h * LaurentMatrix.block_diag([LaurentMatrix([[first]]),
                                          LaurentMatrix.identity(n - 1)])
    return d, h * cls.loop_rep * gc.apply_eta_inv(h, d), kind


def test_eta_unit_rule_against_det():
    """eta_anti_fixed_is_unit on the Birkhoff exponents, or a refusal by
    birkhoff_factor, says whether det() is a nonzero monomial, on every
    family; on unitary every kind of determinant occurs."""
    seen = set()

    @settings(max_examples=150, deadline=None)
    @given(_eta_anti_fixed_loops())
    def check(case):
        d, x, kind = case
        assert gc.is_anti_fixed_eta(x, d)
        terms = len(x.det())
        assert kind == ("zero" if terms == 0 else "monomial" if terms == 1 else "non_monomial")
        try:
            verdict = gc.eta_anti_fixed_is_unit(d, birkhoff_factor(x)[1])
        except InvalidInputError as exc:
            assert str(exc) == NOT_INVERTIBLE
            verdict = False
        assert verdict == (terms == 1)
        seen.add((d.family, kind))

    check()
    assert {kind for family, kind in seen if family == gc.UNITARY} == {
        "monomial", "non_monomial", "zero"}
    assert {family for family, _ in seen} == set(gc.FAMILIES)


def test_smith_over_dvr_random():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        lam = sorted((rng.randint(-2, 2) for _ in range(n)), reverse=True)
        x = SeriesMatrix.from_laurent(
            random_poly_element(n, 2, rng) * LaurentMatrix.t_power(lam), 10)
        g1, got, g1_inv = smith_over_dvr(x)
        assert got == lam
        assert g1_inv * g1 == SeriesMatrix.identity(n, g1.precision)
        assert g1.val() >= 0 and g1_inv.val() >= 0
        # g2 = t^-lam * g1^-1 * x lies in G(O): no negative exponent and an
        # invertible constant term
        t_neg = SeriesMatrix.from_laurent(LaurentMatrix.t_power([-v for v in got]), 20)
        g2 = t_neg * (g1_inv * x)
        assert g2.val() >= 0
        assert LaurentMatrix.from_scalars(g2.constant_matrix()).det()
        assert valuation_coweight(x) == lam


def _smith_negative_pivot_inputs(rng):
    """Theta twists of the lam = (1, -1) classes and random loops whose
    least coweight entry is negative, so some Smith pivot has valuation < 0."""
    d = gc.build_datum("split_gl", 2, 1)
    for cls in classify_theta(d, (1, -1)):
        for _ in range(3):
            h = SeriesMatrix.from_laurent(random_arc_element(2, 6, rng).to_laurent(), 14)
            yield h * SeriesMatrix.from_laurent(cls.loop_rep, 14) * gc.apply_theta(h, d).inverse()
    for _ in range(12):
        n = rng.choice([2, 3, 4])
        lam = sorted([rng.randint(-2, 2) for _ in range(n - 1)] + [rng.randint(-3, -1)],
                     reverse=True)
        yield SeriesMatrix.from_laurent(random_poly_element(n, 2, rng) * LaurentMatrix.t_power(lam)
                                        * random_poly_element(n, 2, rng), 12)


def test_smith_inverse_is_the_series_inverse():
    # the inverse from the row operations is the Newton-lifted series
    # inverse of g1, field for field and at the same precision
    for x in _smith_negative_pivot_inputs(random.Random(9)):
        g1, lam, g1_inv = smith_over_dvr(x)
        assert lam[-1] < 0
        oracle = g1.inverse()
        assert g1_inv.precision == oracle.precision
        assert g1_inv.rows == oracle.rows


def test_unipotent_sqrt():
    u = LaurentMatrix.from_scalars([[1, 3], [0, 1]])
    r, r_inv = unipotent_sqrt(u)
    assert r * r == u
    assert r * r_inv == LaurentMatrix.identity(2)
    u2 = LaurentMatrix.identity(2)
    u2.rows[0][1] = Entry.of({2: QI(0, 1)})
    r2, r2_inv = unipotent_sqrt(u2)
    assert r2 * r2 == u2
    assert r2_inv * r2 == LaurentMatrix.identity(2)


def test_cayley_unitary():
    s = LaurentMatrix.from_scalars([[QI(0, 1), QI(2)],
                                    [QI(-2), QI(0, -1)]])
    assert conj_transpose(s) == s.scale(QI(-1))  # skew-hermitian input
    k = cayley_unitary(s)
    assert k * conj_transpose(k) == LaurentMatrix.identity(2)


# The signature from Descartes' rule on the characteristic polynomial: an
# oracle independent of the congruence elimination in hermitian_signature.

def char_poly(m: List[List[QI]]) -> List[QI]:
    """Coefficients [c_0, ..., c_n] of det(x I - M), c_n = 1 (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = QI(1)
    mprev = [[QI(1) if i == j else ZERO for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        prod = mat_mul(m, mprev) if k > 1 else [row[:] for row in m]
        c = sum((prod[i][i] for i in range(n)), ZERO) * Fraction(-1, k)
        coeffs[n - k] = c
        if k < n:
            mprev = [[prod[i][j] + (c if i == j else ZERO) for j in range(n)]
                     for i in range(n)]
    return coeffs


def descartes_signature(h: List[List[QI]]) -> Tuple[int, int]:
    """All eigenvalues of a Hermitian matrix are real, so the sign changes
    of its characteristic polynomial count the positive ones exactly."""
    n = len(h)
    if any(h[i][j] != h[j][i].conj() for i in range(n) for j in range(n)):
        raise InvalidInputError("matrix is not Hermitian")
    coeffs = char_poly(h)
    assert all(c.is_real() for c in coeffs)
    if not coeffs[0]:
        raise InvalidInputError("Hermitian form is degenerate")
    signs = [c.re for c in coeffs if c]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return pos, n - pos


def _both(h):
    """(signature, oracle signature), each an InvalidInputError if it raises."""
    out = []
    for f in (hermitian_signature, descartes_signature):
        try:
            out.append(f(h))
        except InvalidInputError:
            out.append(InvalidInputError)
    return tuple(out)


_I, _MI = QI(0, 1), QI(0, -1)


def test_hermitian_signature():
    for h, sig in [
        ([[QI(2), ZERO], [ZERO, QI(-3)]], (1, 1)),
        ([[QI(1), _I], [_MI, QI(2)]], (2, 0)),
        ([[ZERO, _I], [_MI, ZERO]], (1, 1)),  # zero diagonal
        ([[ZERO, QI(1, 1), QI(1)], [QI(1, -1), ZERO, QI(2)], [QI(1), QI(2), ZERO]], (1, 2)),
        ([[ZERO, ZERO, QI(1)], [ZERO, QI(-1), ZERO], [QI(1), ZERO, ZERO]], (1, 2)),
    ]:
        assert _both(h) == (sig, sig)


@pytest.mark.parametrize("h", [
    [[ZERO]],
    [[ZERO, ZERO], [ZERO, ZERO]],
    [[QI(1), _I], [_MI, QI(1)]],
    [[ZERO, ZERO, QI(1)], [ZERO, ZERO, QI(1)], [QI(1), QI(1), ZERO]],
    [[ZERO, _I, ZERO], [_MI, ZERO, ZERO], [ZERO, ZERO, ZERO]],
    [[_I]],
    [[QI(1), _I], [_I, QI(1)]],
    [[ZERO, QI(1)], [QI(2), ZERO]],
], ids=["zero", "zero-2", "rank-1", "zero-diagonal-rank-2", "zero-row",
        "imaginary-diagonal", "symmetric-complex", "asymmetric"])
def test_hermitian_signature_rejects_degenerate_or_non_hermitian(h):
    assert _both(h) == (InvalidInputError, InvalidInputError)


_small_q = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _hermitian(draw):
    """Hermitian Q(i) matrices, n <= 5: zero diagonals, complex and zero
    off-diagonal entries, and low-rank Gram forms, which are degenerate."""
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 4)) == 0:  # V* D V with fewer rows than n
        r = draw(st.integers(0, n - 1))
        v = [[QI(draw(_small_q), draw(_small_q)) for _ in range(n)] for _ in range(r)]
        d = [draw(st.sampled_from([1, -1])) for _ in range(r)]
        return [[sum((v[k][i].conj() * v[k][j] * d[k] for k in range(r)), ZERO)
                 for j in range(n)] for i in range(n)]
    zero_diag = draw(st.booleans())
    h = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        h[i][i] = ZERO if zero_diag else QI(draw(_small_q))
        for j in range(i + 1, n):
            h[i][j] = QI(draw(_small_q), draw(_small_q))
            h[j][i] = h[i][j].conj()
    return h


@settings(max_examples=300, deadline=None)
@given(_hermitian())
def test_hermitian_signature_matches_descartes(h):
    sig, oracle = _both(h)
    assert sig == oracle
    if sig is not InvalidInputError:
        assert sum(sig) == len(h)
