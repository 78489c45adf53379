import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopmatsuki import group_catalog as gc
from loopmatsuki.canonicalize import (
    canonicalize_eta, canonicalize_theta, iwahori_reduce_eta, iwahori_reduce_theta,
)
from loopmatsuki.coweight_orbits import classify_eta, classify_theta, enumerate_admissible
from loopmatsuki.errors import InvalidInputError, UnsupportedFamilyError
from loopmatsuki.iwahori_orbits import enumerate_iwahori
from loopmatsuki.gaussian import QI
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_arc_element, random_poly_element

ALL_DATA = [gc.build_datum(f, n, e)
            for f in ("split_gl", "quaternionic_gl", "unitary")
            for n in ((2, 4) if f == "quaternionic_gl" else (1, 2, 3))
            for e in (1, -1)]


def test_build_datum_validation():
    with pytest.raises(UnsupportedFamilyError):
        gc.build_datum("symplectic", 2, 1)
    with pytest.raises(UnsupportedFamilyError):
        gc.build_datum("quaternionic_gl", 3, 1)
    with pytest.raises(InvalidInputError):
        gc.build_datum("split_gl", 2, 2)
    with pytest.raises(InvalidInputError):
        gc.build_datum("split_gl", 2, 1, 2)  # z must be a 4th root


def _random_invertible(n, rng):
    while True:
        rows = [[QI(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                 for _ in range(n)] for _ in range(n)]
        m = LaurentMatrix.from_scalars(rows)
        d = m.det()
        if d and any(not c.is_zero() for c in d.values()):
            return m


def test_verify_datum_invariants():
    for datum in ALL_DATA:
        rng = random.Random(1)
        n = datum.n
        for m in [_random_invertible(n, rng) for _ in range(8)]:
            assert gc.theta0(gc.theta0(m, datum), datum) == m
            assert gc.eta0(gc.eta0(m, datum), datum) == m
            assert gc.theta0(gc.eta0(m, datum), datum) == gc.eta0(gc.theta0(m, datum), datum)
        assert datum.w2 == gc.theta0(datum.w1, datum) * datum.w1

        # Ad_{w1^-1} o theta0 sends lower elementary generators to upper matrices;
        # on I + y with y^2 = 0, theta0 is exactly I + d_theta0(y)
        w1i = datum.w1.inverse()
        for i in range(n):
            for j in range(i):
                rows = [[QI(1) if a == b else QI(0) for b in range(n)] for a in range(n)]
                rows[i][j] = QI(2)
                y = LaurentMatrix.monomial(n, i, j, c=2)
                assert gc.theta0(LaurentMatrix.from_scalars(rows), datum) == \
                    LaurentMatrix.identity(n) + gc.d_theta0(y, datum)
                img = w1i * gc.theta0(LaurentMatrix.from_scalars(rows), datum) * datum.w1
                const = img.constant_matrix()
                assert img.is_constant()
                assert all(const[a][b].is_zero() for a in range(n) for b in range(a))

        zid = LaurentMatrix.diag_scalars([datum.z] * n)
        assert gc.theta0(zid, datum) == zid and gc.eta0(zid, datum) == zid

        for _ in range(10):
            tl = LaurentMatrix.t_power([rng.randint(-5, 5) for _ in range(n)])
            assert gc.apply_eta(tl, datum) == gc.apply_theta(tl, datum)


def test_involutions_are_homomorphisms():
    rng = random.Random(2)
    for datum in ALL_DATA:
        for _ in range(3):
            a = random_poly_element(datum.n, 2, rng)
            b = random_poly_element(datum.n, 2, rng)
            assert gc.apply_theta(a * b, datum) == \
                gc.apply_theta(a, datum) * gc.apply_theta(b, datum)
            assert gc.apply_eta(a * b, datum) == \
                gc.apply_eta(a, datum) * gc.apply_eta(b, datum)


def test_involutions_square_to_identity():
    rng = random.Random(4)
    for datum in ALL_DATA:
        a = random_poly_element(datum.n, 2, rng)
        assert gc.apply_theta(gc.apply_theta(a, datum), datum) == a
        assert gc.apply_eta(gc.apply_eta(a, datum), datum) == a


def test_datum_from_config():
    datum = gc.datum_from_config(
        {"family": "unitary", "n": 2, "epsilon": -1, "z": "-1"})
    assert datum.z == QI(-1) and datum.epsilon == -1
    with pytest.raises(InvalidInputError):
        gc.datum_from_config({"family": "unitary"})


def test_pure_inner_twist():
    uni = gc.build_datum("unitary", 2, 1)
    c = LaurentMatrix.diag_scalars([QI(1), QI(-1)])
    tw = gc.pure_inner_twist(uni, c)
    assert tw.real_form == "U(1,1)"
    assert tw.twist == c
    with pytest.raises(InvalidInputError):
        gc.pure_inner_twist(tw, c)  # already twisted
    with pytest.raises(InvalidInputError):
        gc.pure_inner_twist(uni, LaurentMatrix.from_scalars([[2, 0], [0, 1]]))


def test_twisted_involutions():
    uni = gc.build_datum("unitary", 2, 1)
    c = LaurentMatrix.diag_scalars([QI(1), QI(-1)])
    tw = gc.pure_inner_twist(uni, c)
    rng = random.Random(6)
    a = random_poly_element(2, 2, rng)
    assert gc.apply_theta(a, tw) == c * gc.apply_theta(a, uni) * c.inverse()
    assert gc.apply_eta(a, tw) == c * gc.apply_eta(a, uni) * c.inverse()
    # transport carries anti-fixed loops between the sectors
    x = LaurentMatrix.diag_scalars([QI(1), QI(-1)])  # anti-fixed for tw
    assert gc.is_anti_fixed_eta(x, tw)
    assert gc.is_anti_fixed_eta(gc.transport_to_base(x, tw),
                                gc.base_datum(tw, gc.ETA))


def test_twisted_datum_builds_its_base_once(monkeypatch):
    uni = gc.build_datum("unitary", 2, 1)
    c = LaurentMatrix.diag_scalars([QI(1), QI(-1)])
    tw = gc.pure_inner_twist(uni, c)
    base = gc.base_datum(tw, gc.ETA)
    assert base is gc.base_datum(tw, gc.ETA)
    assert base == gc.build_datum("unitary", 2, 1, tw.z * gc.twist_scalar(tw, c, gc.ETA))
    assert gc.base_datum(uni, gc.ETA) is uni
    reps = [cls.loop_rep for lam in enumerate_admissible(tw, 1) for cls in classify_eta(tw, lam)]

    def rebuilt(*args):
        pytest.fail("a twisted datum rebuilt its base")

    monkeypatch.setattr(gc, "build_datum", rebuilt)
    monkeypatch.setattr(gc, "twist_scalar", rebuilt)
    for lam in enumerate_admissible(tw, 1):
        assert classify_theta(tw, lam)
    for x in reps:
        assert canonicalize_eta(x, tw).loop_rep == x


def test_sides_with_one_twist_scalar_share_one_base_datum(monkeypatch):
    # on U(1,1), c * theta0(c) = c * eta0(c) = 1: one base datum serves both sides
    uni = gc.build_datum("unitary", 2, 1)
    c = LaurentMatrix.diag_scalars([QI(1), QI(-1)])
    assert gc.twist_scalar(uni, c, gc.THETA) == gc.twist_scalar(uni, c, gc.ETA)
    builds = []
    build = gc.build_datum
    monkeypatch.setattr(gc, "build_datum", lambda *a: builds.append(a) or build(*a))
    tw = gc.pure_inner_twist(uni, c)
    assert gc.base_datum(tw, gc.THETA) is gc.base_datum(tw, gc.ETA)
    assert len(builds) == 1


def test_classes_and_forms_carry_side_strings():
    # the benchmark and JSON read .side as the plain strings "theta" and "eta"
    uni = gc.build_datum("unitary", 2, 1)
    data = [gc.build_datum("split_gl", 2, 1), uni,
            gc.pure_inner_twist(uni, LaurentMatrix.diag_scalars([QI(1), QI(-1)]))]
    seen = set()
    for d in data:
        spherical = {"theta": [], "eta": []}
        for lam in enumerate_admissible(d, 1):
            spherical["theta"] += classify_theta(d, lam)
            spherical["eta"] += classify_eta(d, lam)
        iwahori = {name: [c for c in classes if c.loop_rep is not None]
                   for name, classes in enumerate_iwahori(d, 1).items()}
        theta_rep = SeriesMatrix.from_laurent(spherical["theta"][0].loop_rep, 12)
        forms = [canonicalize_eta(spherical["eta"][0].loop_rep, d),
                 canonicalize_theta(theta_rep, d)]
        for reduce, cls, exact in ((iwahori_reduce_eta, iwahori["eta"][0], True),
                                   (iwahori_reduce_theta, iwahori["theta"][0], False)):
            g = cls.tw.loop().inverse() * cls.loop_rep
            forms.append(reduce(cls.tw, g if exact else SeriesMatrix.from_laurent(g, 12), d,
                                cls.problem))
        objs = forms + [form.orbit_class for form in forms]
        objs += [c for table in (spherical, iwahori) for cs in table.values() for c in cs]
        for obj in objs:
            assert type(obj.side) is str and obj.side in ("theta", "eta")
            seen.add(obj.side)
        for table in (spherical, iwahori):
            assert all(c.side == name for name, cs in table.items() for c in cs)
    assert seen == {"theta", "eta"}


# every family, both epsilons, and U(1,1) (the inner twist diag(1, -1) of U(2))
INV_DATA = [gc.build_datum(f, n, e)
            for f, n in (("split_gl", 1), ("split_gl", 2), ("split_gl", 3),
                         ("quaternionic_gl", 2), ("unitary", 2), ("unitary", 3))
            for e in (1, -1)] + [
    gc.pure_inner_twist(gc.build_datum("unitary", 2, e),
                        LaurentMatrix.diag_scalars([QI(1), QI(-1)])) for e in (1, -1)]


def _same_series(a, b):
    return a.precision == b.precision and a.rows == b.rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INV_DATA), st.integers(0, 2 ** 32), st.integers(-2, 2))
def test_inverse_involutions_on_laurent_inputs(datum, seed, shift):
    rng = random.Random(seed)
    lam = [rng.randint(-2, 2) for _ in range(datum.n)]
    a = LaurentMatrix.t_power(lam) * random_poly_element(datum.n, 2, rng) \
        * LaurentMatrix.t_power([shift] * datum.n)
    a_inv = a.inverse()
    theta_inv = gc.apply_theta(a, datum).inverse()
    eta_inv = gc.apply_eta(a, datum).inverse()
    assert gc.apply_theta_inv(a, datum) == theta_inv
    assert gc.apply_theta_inv(a, datum, a_inv) == theta_inv
    assert gc.apply_eta_inv(a, datum) == eta_inv
    assert gc.apply_eta_inv(a, datum, a_inv) == eta_inv


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INV_DATA), st.integers(0, 2 ** 32), st.integers(1, 9))
def test_theta_inverse_on_arc_inputs_keeps_precision(datum, seed, precision):
    # on G(O) the cofactor inverse certifies the input precision, so the
    # inverse-free route must give the same coefficients and precision
    h = random_arc_element(datum.n, precision, random.Random(seed))
    want = gc.apply_theta(h, datum).inverse()
    assert _same_series(gc.apply_theta_inv(h, datum), want)
    assert _same_series(gc.apply_theta_inv(h, datum, h.inverse()), want)
    with pytest.raises(InvalidInputError):
        gc.apply_eta_inv(h, datum)


def test_theta_inverse_outside_arc_group_is_exact_to_input_precision():
    # t^-1 * I at precision N: theta(gamma)^-1 = gamma(eps t)^T is exact to
    # N, while inverting theta(gamma) again certifies only N - 1
    d = gc.build_datum("split_gl", 2, -1)
    g = SeriesMatrix.from_laurent(LaurentMatrix.t_power([-1, -1]), 10)
    out = gc.apply_theta_inv(g, d)
    assert out.precision == 10
    assert out == SeriesMatrix.from_laurent(LaurentMatrix.t_power([-1, -1]).scale(-1), 10)
    assert gc.apply_theta(g, d).inverse().precision == 9
