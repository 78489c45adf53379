import random
from itertools import product

import pytest

from loopmatsuki import canonicalize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import (
    blocks_of, classify_eta, classify_theta, enumerate_admissible, eps_lambda, middle_label,
)
from loopmatsuki.errors import CertificateError, InvalidInputError
from loopmatsuki.exact_algebra import hermitian_signature
from loopmatsuki.gaussian import QI
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_arc_element, random_constant_invertible, \
    random_poly_element


def test_admissibility_condition():
    split = gc.build_datum("split_gl", 2, 1)
    adm = {tuple(a) for a in enumerate_admissible(split, 2)}
    # split w1 = id, theta0(lam) = -lam: every dominant lam is admissible
    assert adm == {(a, b) for a in range(-2, 3) for b in range(-2, 3)
                   if a >= b}
    uni = gc.build_datum("unitary", 2, 1)
    adm_u = {tuple(a) for a in enumerate_admissible(uni, 2)}
    assert adm_u == {(0, 0), (1, -1), (2, -2)}
    with pytest.raises(InvalidInputError):
        classify_eta(uni, (1, 0))


def test_split_classes_unique_per_lambda():
    d = gc.build_datum("split_gl", 2, 1)
    for adm in enumerate_admissible(d, 2):
        for classify in (classify_theta, classify_eta):
            classes = classify(d, adm)
            assert len(classes) == 1
            cls = classes[0]
            want = (2,) if adm[0] == adm[1] else (2, 2)
            assert tuple(cls.component_group) == want


def test_representatives_are_anti_fixed():
    for family, n in (("split_gl", 2), ("quaternionic_gl", 2), ("unitary", 2)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for adm in enumerate_admissible(d, 1):
                for cls in classify_theta(d, adm):
                    assert gc.is_anti_fixed_theta(cls.loop_rep, d)
                for cls in classify_eta(d, adm):
                    assert gc.is_anti_fixed_eta(cls.loop_rep, d)


def _equation_oracle(d, lam, g0, side):
    """The spherical equation g0 = w2 * Ad_{w1^-1}(sigma0(g0)^-1) * eps^lam * z,
    w2 = theta0(w1) * w1, of the module docstring."""
    w2 = gc.theta0(d.w1, d) * d.w1
    sigma0_inv = gc.involution(g0, d, side, True, None, constant=True)
    return g0 == (w2 * (d.w1.inverse() * sigma0_inv * d.w1) * eps_lambda(d, lam)).scale(d.z)


def test_spherical_equation_is_the_anti_fixedness_of_the_representative():
    # for g0 in the Levi at an admissible lambda the equation holds exactly
    # when t^lam * g0 * w1^-1 is anti-fixed, so the classifiers and reducers
    # certify the latter alone: both hold on the class g0, and the two agree
    # on their multiples and on random Levi elements
    rng = random.Random(4)
    seen = {True: 0, False: 0}
    for family, n in (("split_gl", 2), ("split_gl", 3), ("quaternionic_gl", 2),
                      ("quaternionic_gl", 4), ("unitary", 2), ("unitary", 3)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for lam in enumerate_admissible(d, 1):
                for side, classify in ((gc.THETA, classify_theta), (gc.ETA, classify_eta)):
                    g0s = [c.g0 for c in classify(d, lam)]
                    assert all(_equation_oracle(d, lam, g0, side) for g0 in g0s)
                    g0s += [g0.scale(k) for g0 in g0s for k in (QI(0, 1), QI(2))]
                    g0s += [LaurentMatrix.block_diag([random_constant_invertible(size, rng)
                                                      for _, size, _ in blocks_of(lam)])
                            for _ in range(3)]
                    for g0 in g0s:
                        loop = LaurentMatrix.t_power(lam) * g0 * d.w1.inverse()
                        holds = _equation_oracle(d, lam, g0, side)
                        assert holds == gc.is_anti_fixed(loop, d, side)
                        seen[holds] += 1
    assert min(seen.values()) > 50


def test_unitary_signature_labels():
    d = gc.build_datum("unitary", 2, 1)
    zero = classify_eta(d, (0, 0))
    assert [c.label for c in zero] == ["(2,0)", "(1,1)", "(0,2)"]
    assert {c.aut_label for c in zero} == {"U(2,0)", "U(1,1)", "U(0,2)"}


def test_sides_share_labels():
    for family, n in (("split_gl", 3), ("quaternionic_gl", 4), ("unitary", 3)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for adm in enumerate_admissible(d, 1):
                th = sorted(c.label for c in classify_theta(d, adm))
                et = sorted(c.label for c in classify_eta(d, adm))
                assert th == et, (family, eps, adm)


def test_twisted_classification_transported():
    uni = gc.build_datum("unitary", 2, 1)
    tw = gc.pure_inner_twist(
        uni, gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))
    for adm in enumerate_admissible(uni, 1):
        base = classify_eta(uni, adm)
        twisted = classify_eta(tw, adm)
        assert [c.label for c in base] == [c.label for c in twisted]
        for c in twisted:
            assert gc.is_anti_fixed_eta(c.loop_rep, tw)
        for c in classify_theta(tw, adm):
            assert gc.is_anti_fixed_theta(c.loop_rep, tw)


def _u11(eps=1):
    return gc.pure_inner_twist(gc.build_datum("unitary", 2, eps),
                               gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))


def _laurent_admissible(datum, lam):
    """The Laurent admissibility test the torus predicate replaced:
    lambda = -w1^-1 theta0(lambda) as theta0(t^lam) * w1 * t^lam = w1."""
    tl = LaurentMatrix.t_power(list(lam))
    return gc.theta0(tl, datum) * datum.w1 * tl == datum.w1


def test_torus_predicate_matches_the_laurent_oracle():
    # every lambda in [-2, 2]^n, dominant or not
    data = [gc.build_datum(family, n, eps)
            for family, n in ([(f, n) for f in ("split_gl", "unitary") for n in range(1, 6)]
                              + [("quaternionic_gl", 2), ("quaternionic_gl", 4)])
            for eps in (1, -1)] + [_u11()]
    pairs = mismatches = 0
    for d in data:
        w1 = [i for i, _ in gc.signed_permutation(d.w1)]
        for lam in product(range(-2, 3), repeat=d.n):
            pairs += 1
            mismatches += gc.is_admissible(d, lam, w1) != _laurent_admissible(d, lam)
    assert (pairs, mismatches) == (16945, 0)


def _oracle_invariant(datum, lam, g0, side):
    """The per-candidate invariant of the matcher that label lookup
    replaced: the trace (theta) or the Hermitian signature (eta) of R * B,
    times i on eta when z = -1, for B the middle block of g0."""
    start, m = next((start, size) for start, size, mu in blocks_of(lam) if mu == 0)
    mm = [[g0.coeff(start + r, start + s, 0) for s in range(m)] for r in range(m)][::-1]
    if side is gc.THETA:
        return str(sum((mm[r][r] for r in range(m)), QI(0)))
    if datum.z == QI(-1):
        mm = [[QI(0, 1) * x for x in row] for row in mm]
    return hermitian_signature(mm)


def _oracle_match(datum, lam, g0, side):
    classes = (classify_theta if side is gc.THETA else classify_eta)(datum, lam)
    want = _oracle_invariant(datum, lam, g0, side)
    (cls,) = [c for c in classes if _oracle_invariant(datum, lam, c.g0, side) == want]
    return cls


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_label_lookup_matches_the_invariant_oracle_on_every_class(side):
    seen = 0
    for n, eps, z in product(range(1, 6), (1, -1), (1, -1)):
        d = gc.build_datum("unitary", n, eps, z)
        for lam in enumerate_admissible(d, 1):
            if 0 not in lam:
                continue
            for cls in (classify_theta if side is gc.THETA else classify_eta)(d, lam):
                assert middle_label(d, lam, cls.g0, side) == cls.label
                assert _oracle_match(d, lam, cls.g0, side).label == cls.label
                seen += 1
    assert seen > 100


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
@pytest.mark.parametrize("twisted", [False, True], ids=["U(2)", "U(1,1)"])
def test_label_lookup_matches_the_invariant_oracle_on_twisted_loops(side, twisted):
    # random twists of the class representatives, reduced at the base
    # datum: the reduced g0 need not be the class representative's
    rng = random.Random(20)
    seen = 0
    for eps in (1, -1):
        d = _u11(eps) if twisted else gc.build_datum("unitary", 2, eps)
        base = gc.base_datum(d, side)
        for lam in enumerate_admissible(d, 1):
            if 0 not in lam:
                continue
            for cls in (classify_theta if side is gc.THETA else classify_eta)(d, lam):
                if side is gc.ETA:
                    h = random_poly_element(2, 2, rng)
                    x = h * cls.loop_rep * gc.apply_eta_inv(h, d)
                    form = canonicalize.canonicalize_eta(gc.transport_to_base(x, d), base)
                else:
                    h = SeriesMatrix.from_laurent(random_arc_element(2, 6, rng).to_laurent(), 12)
                    x = h * SeriesMatrix.from_laurent(cls.loop_rep, 12) * gc.apply_theta_inv(h, d)
                    form = canonicalize.canonicalize_theta(gc.transport_to_base(x, d), base)
                assert form.orbit_class.label == cls.label
                assert middle_label(base, lam, form.g0, side) == cls.label
                assert _oracle_match(base, lam, form.g0, side).label == cls.label
                seen += 1
    assert seen == 6


def test_a_g0_of_no_class_fails_its_certificate():
    # tr(R * B) = 4 on the rank-2 middle block asks for p = 3 of 2
    d = gc.build_datum("unitary", 2, 1)
    g0 = LaurentMatrix.from_scalars([[0, 2], [2, 0]])
    assert middle_label(d, (0, 0), g0, gc.THETA) == "(3,-1)"
    with pytest.raises(CertificateError) as exc:
        canonicalize._match_spherical_class(d, (0, 0), g0, gc.THETA, classify_theta(d, (0, 0)))
    assert str(exc.value) == "certificate failed: reduced g0 matches no classified class"


def test_several_classes_without_a_middle_block_fail_their_certificate():
    # the matcher separates classes by the middle block alone, so two classes
    # at a coweight with no zero entry are an internal fault
    d = gc.build_datum("unitary", 2, 1)
    classes = classify_theta(d, (0, 0))[:2]
    with pytest.raises(CertificateError) as exc:
        canonicalize._match_spherical_class(d, (1, -1), LaurentMatrix.identity(2), gc.THETA,
                                            classes)
    assert str(exc.value) == ("certificate failed: several classes and no middle-block "
                              "invariant to separate them")
