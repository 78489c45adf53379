"""Matched pairs: counts, component groups, sampled intersections."""

import loopmatsuki.group_catalog as gc
from loopmatsuki.duality import (
    finite_matsuki,
    match_iwahori,
    match_spherical,
    verify_intersection,
)
from loopmatsuki.laurent import LaurentMatrix


def test_split_gl2_pair_count():
    d = gc.build_datum("split_gl", 2, 1)
    assert len(match_spherical(d, 2)) == 15


def test_unitary_central_pairs():
    d = gc.build_datum("unitary", 2, 1)
    pairs = match_spherical(d, 0)
    assert len(pairs) == 3
    for pair in pairs:
        assert pair.theta_class.label == pair.eta_class.label
        assert pair.common_rep is not None


def test_component_groups_agree():
    for family, eps in [("split_gl", -1), ("quaternionic_gl", 1),
                        ("unitary", -1)]:
        d = gc.build_datum(family, 2, eps)
        for pair in match_spherical(d, 1):
            assert (tuple(pair.theta_class.component_group)
                    == tuple(pair.eta_class.component_group))


def test_verified_intersections():
    d = gc.build_datum("split_gl", 2, -1)
    for pair in match_spherical(d, 1):
        if pair.common_rep is None:
            continue
        report = verify_intersection(pair, 10, 99)
        assert report["failures"] == []
        assert report["samples"] == 10


def test_iwahori_matching():
    d = gc.build_datum("split_gl", 2, 1)
    pairs = match_iwahori(d, 1)
    assert pairs
    for pair in pairs:
        assert pair.level == "iwahori"
        assert tuple(pair.theta_class.g0_args) == tuple(pair.eta_class.g0_args)


def test_twisted_matching():
    base = gc.build_datum("unitary", 2, 1)
    d = gc.pure_inner_twist(base, LaurentMatrix.from_scalars([[1, 0], [0, -1]]))
    assert len(match_spherical(d, 1)) == len(match_spherical(base, 1))


def test_finite_matsuki_counts():
    fm = finite_matsuki(gc.build_datum("split_gl", 2, 1))
    assert len(fm["borel"]) == 2
    fmu = finite_matsuki(gc.build_datum("unitary", 2, 1))
    assert len(fmu["spherical"]) == 3


def test_iwahori_verification_with_negative_coweight_entry():
    # t~w = (lam, w) with lam = (-1, 1, 1, 1): theta(t~w g) inverts a loop of
    # valuation -1, so the sample's truncation must cover the coweight spread
    from fractions import Fraction

    from loopmatsuki.duality import MatchedPair
    from loopmatsuki.iwahori_orbits import AffineWeylElement, classes_at_tw

    d = gc.build_datum("quaternionic_gl", 4, -1)
    tw = AffineWeylElement.of((-1, 1, 1, 1), (1, 0, 2, 3))
    args = (0, 0, 0, Fraction(1, 2))
    (th,) = [c for c in classes_at_tw(d, tw, "theta") if tuple(c.g0_args) == args]
    (et,) = [c for c in classes_at_tw(d, tw, "eta") if tuple(c.g0_args) == args]
    rep = et.loop_rep
    assert gc.is_anti_fixed_theta(rep, d) and gc.is_anti_fixed_eta(rep, d)
    pair = MatchedPair(theta_class=th, eta_class=et, common_rep=rep, level="iwahori")
    assert verify_intersection(pair, 2, 1) == {"samples": 2, "failures": []}
