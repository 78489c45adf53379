"""Matched pairs: counts, component groups, sampled intersections."""

from math import factorial

import pytest

import loopmatsuki.group_catalog as gc
from loopmatsuki import selftest
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
    (th,) = [c for c in classes_at_tw(d, tw, gc.THETA) if tuple(c.g0_args) == args]
    (et,) = [c for c in classes_at_tw(d, tw, gc.ETA) if tuple(c.g0_args) == args]
    rep = et.loop_rep
    assert gc.is_anti_fixed_theta(rep, d) and gc.is_anti_fixed_eta(rep, d)
    pair = MatchedPair(theta_class=th, eta_class=et, common_rep=rep, level="iwahori")
    assert verify_intersection(pair, 2, 1) == {"samples": 2, "failures": []}


def _involutions(n):
    """Involutions in S_n: a(n) = a(n-1) + (n-1) a(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def _clans(n):
    """Sum over p + q = n of the (p, q)-clan count,
    sum_k n! / ((p-k)! (q-k)! k! 2^k)."""
    return sum(factorial(n) // (factorial(p - k) * factorial(n - p - k) * factorial(k) * 2 ** k)
               for p in range(n + 1) for k in range(min(p, n - p) + 1))


def _odd_double_factorial(m):
    """(2m - 1)!! = (2m)! / (m! 2^m)."""
    return factorial(2 * m) // (factorial(m) * 2 ** m)


FINITE_COUNTS = ([("split_gl", n, _involutions(n)) for n in range(1, 6)]
                 + [("quaternionic_gl", n, _odd_double_factorial(n // 2)) for n in (2, 4)]
                 + [("unitary", n, _clans(n)) for n in range(1, 6)])


@pytest.mark.parametrize("eps", [1, -1], ids=["eps=1", "eps=-1"])
@pytest.mark.parametrize("family, n, count", FINITE_COUNTS,
                         ids=[f"{f}-{n}" for f, n, _ in FINITE_COUNTS])
def test_finite_borel_counts_match_closed_forms(family, n, count, eps):
    """The Borel-level pairs of the constant specialization are the K-orbits
    on the flag variety: involutions of S_n for GL_n(R), (2m - 1)!! for
    GL_m(H) and the (p, q)-clans summed over p + q = n for U(p, q)
    (Richardson-Springer; Matsuki-Oshima; Yamamoto)."""
    assert len(finite_matsuki(gc.build_datum(family, n, eps))["borel"]) == count


RANK_N_DATA = [("split_gl", 3), ("split_gl", 4), ("unitary", 3), ("unitary", 4),
               ("quaternionic_gl", 4)]


@pytest.mark.parametrize("eps", [1, -1], ids=["eps=1", "eps=-1"])
@pytest.mark.parametrize("family, n", RANK_N_DATA, ids=[f"{f}-{n}" for f, n in RANK_N_DATA])
def test_rank_two_suites_at_rank_n(family, n, eps):
    """The selftest's duality and Kottwitz suites, written for the rank-two
    tables, hold above rank two at bound 1: matched labels and component
    groups, twisted representatives that keep their labels at both levels,
    and one Kottwitz point per eta class."""
    data = [gc.build_datum(family, n, eps)]
    selftest.check_duality(bound=1, samples=2, seed=7, data=data)
    selftest.check_duality(bound=1, samples=1, seed=7, data=data, level="iwahori")
    selftest.check_kottwitz(bound=1, hsamples=1, seed=3, data=data)
