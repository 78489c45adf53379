"""Matched pairs: counts, component groups, sampled intersections."""

import sys
from dataclasses import replace
from math import factorial

import pytest

import loopmatsuki.group_catalog as gc
from loopmatsuki import coweight_orbits, duality, selftest
from loopmatsuki.duality import (
    finite_matsuki,
    match_iwahori,
    match_spherical,
    verify_intersection,
)
from loopmatsuki.errors import CertificateError
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


def test_a_class_listed_twice_is_refused(monkeypatch):
    # each side lists its first class at every lambda twice: a pairing by
    # label alone would keep one copy of each and drop the other silently
    for name in ("classify_theta", "classify_eta"):
        def twice(datum, lam, classify=getattr(coweight_orbits, name)):
            classes = classify(datum, lam)
            return classes[:1] + classes

        monkeypatch.setattr(coweight_orbits, name, twice)
        monkeypatch.setattr(duality, name, twice, raising=False)
    with pytest.raises(CertificateError, match="do not match one to one"):
        match_spherical(gc.build_datum("split_gl", 2, 1), 1)


def test_an_iwahori_component_group_fault_is_refused(monkeypatch):
    # one eta class gains a factor 2 in its component group: a pairing by
    # torus class alone would pair it with a class of another group
    enumerate_iwahori = duality.enumerate_iwahori

    def faulty(datum, bound):
        classes = enumerate_iwahori(datum, bound)
        first = classes["eta"][0]
        classes["eta"][0] = replace(first, component_group=first.component_group + (2,))
        return classes

    monkeypatch.setattr(duality, "enumerate_iwahori", faulty)
    with pytest.raises(CertificateError, match="component group mismatch"):
        match_iwahori(gc.build_datum("split_gl", 2, 1), 1)


def _refuse_tables(monkeypatch):
    """Make every builder of a class table or torus problem fail, in each
    library module that holds it."""
    for name in ("classify_theta", "classify_eta", "classes_at_tw", "build_torus_problem"):
        def refuse(*args, name=name):
            pytest.fail(f"verify_intersection called {name}")

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("loopmatsuki.") and hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)


def _u11():
    return gc.pure_inner_twist(gc.build_datum("unitary", 2, 1),
                               LaurentMatrix.diag_scalars([1, -1]))


@pytest.mark.parametrize("eps,twisted", [(1, False), (-1, False), (1, True)],
                         ids=["split_gl-eps1", "split_gl-eps-1", "U(1,1)"])
def test_iwahori_verification_reuses_the_pairs_torus_problem(monkeypatch, eps, twisted):
    # a pair holds every class of both sides at its t~w, so the reducers of
    # every sample look their classes up there and build no table
    d = _u11() if twisted else gc.build_datum("split_gl", 2, eps)
    pairs = match_iwahori(d, 1)
    _refuse_tables(monkeypatch)
    reports = [verify_intersection(p, 2, 11) for p in pairs if p.common_rep is not None]
    assert len(reports) == len(pairs)
    assert all(r == {"samples": 2, "failures": []} for r in reports)


@pytest.mark.parametrize("family,eps", [("split_gl", 1), ("unitary", 1),
                                        ("quaternionic_gl", -1), ("U(1,1)", 1)])
def test_spherical_verification_reuses_the_pairs_classes(monkeypatch, family, eps):
    # the spherical twin: each sample's class is looked up among the pair's
    # classes at its lambda, so no sample classifies
    d = _u11() if family == "U(1,1)" else gc.build_datum(family, 2, eps)
    pairs = [p for p in match_spherical(d, 1) if p.common_rep is not None]
    assert pairs
    _refuse_tables(monkeypatch)
    for pair in pairs:
        assert verify_intersection(pair, 3, 5) == {"samples": 3, "failures": []}


def test_a_sample_in_another_class_reports_its_label(monkeypatch):
    # unitary n = 2 has three classes at lambda = (0, 0): a pair whose
    # representative is another class's puts every sample there, and the
    # lookup in the pair's classes must tell the classes apart
    d = gc.build_datum("unitary", 2, 1)
    pairs = [p for p in match_spherical(d, 0) if p.theta_class.lam == (0, 0)]
    assert len(pairs) == 3 and len(pairs[0].eta_classes) == 3
    wrong = replace(pairs[0], common_rep=pairs[1].common_rep)
    _refuse_tables(monkeypatch)
    report = verify_intersection(wrong, 2, 3)
    assert [f["reason"] for f in report["failures"]] == [
        f"eta label moved: {pairs[1].eta_class.label} != {pairs[0].eta_class.label}"] * 2


@pytest.mark.parametrize("side", ["eta", "theta"])
def test_a_sample_at_another_lambda_reports_it(monkeypatch, side):
    # equal labels occur at different lambda (split_gl's Sym|Sym), and the
    # pair's classes hold at its own lambda only: a reducer that lands a
    # sample at another lambda, label kept, must be reported
    d = gc.build_datum("split_gl", 2, 1)
    pair = next(p for p in match_spherical(d, 1) if p.common_rep is not None)
    reduce = getattr(duality, f"canonicalize_{side}")
    moved = tuple(v + 1 for v in pair.theta_class.lam)
    monkeypatch.setattr(duality, f"canonicalize_{side}",
                        lambda *args: replace(reduce(*args), lam=moved))
    report = verify_intersection(pair, 2, 1)
    assert [f["reason"] for f in report["failures"]] == [
        f"{side} lambda moved: {moved} != {pair.theta_class.lam}"] * 2


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
    from loopmatsuki.iwahori_orbits import AffineWeylElement, build_torus_problem, \
        classes_at_tw

    d = gc.build_datum("quaternionic_gl", 4, -1)
    tw = AffineWeylElement.of((-1, 1, 1, 1), (1, 0, 2, 3))
    args = (0, 0, 0, Fraction(1, 2))
    problem = build_torus_problem(d, tw.w)
    thetas = tuple(classes_at_tw(d, tw, gc.THETA, problem))
    etas = tuple(classes_at_tw(d, tw, gc.ETA, problem))
    (th,) = [c for c in thetas if tuple(c.g0_args) == args]
    (et,) = [c for c in etas if tuple(c.g0_args) == args]
    rep = et.loop_rep
    assert gc.is_anti_fixed_theta(rep, d) and gc.is_anti_fixed_eta(rep, d)
    pair = MatchedPair(theta_class=th, eta_class=et, common_rep=rep, level="iwahori",
                       theta_classes=thetas, eta_classes=etas)
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
