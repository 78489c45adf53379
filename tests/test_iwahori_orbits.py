import functools
import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import event, given, settings, strategies as st

from loopmatsuki import canonicalize, cli, duality, iwahori_orbits
from loopmatsuki import group_catalog as gc
from loopmatsuki.errors import CertificateError
from loopmatsuki.intlat import (
    as_fractions, eliminate, integer_left_kernel_basis, lattice_basis, mat_mul, mat_vec,
    transpose,
)
from loopmatsuki.iwahori_orbits import (
    AffineWeylElement, _ad_matrix, _perm_inverse,
    build_torus_problem, classes_at_tw, enumerate_admissible_tw, enumerate_iwahori,
    qi_quarter,
)
from loopmatsuki.gaussian import FOURTH_ROOTS, QI
from loopmatsuki.laurent import LaurentMatrix
from test_intlat import kernel_basis


def test_admissible_tw_condition():
    d = gc.build_datum("split_gl", 2, 1)
    tws = enumerate_admissible_tw(d, 1)
    for tw in tws:
        # theta0(lam) = -w^-1 lam w as affine Weyl elements
        m = tw.loop() * gc.theta0(tw.loop(), d)
        assert m.is_constant()


def _same_torus_class(problem, a, b):
    """Whether two solutions differ by Z^n + the rational action image."""
    diff = [Fraction(x) - Fraction(y) for x, y in zip(a, b)]
    return all(sum(ki * x for ki, x in zip(k, diff)).denominator == 1
               for k in integer_left_kernel_basis(problem.m_act))


def test_torus_problem_classes_invariants():
    for family, n in (("split_gl", 2), ("unitary", 2)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for tw in enumerate_admissible_tw(d, 1):
                problem = build_torus_problem(d, tw.w)
                for side in (gc.THETA, gc.ETA):
                    args = [c.g0_args for c in problem.classes(tw, d, side)]
                    # canonical representatives are pairwise inequivalent
                    for i, a in enumerate(args):
                        for b in args[i + 1:]:
                            assert not _same_torus_class(problem, a, b)


def _u11():
    return gc.pure_inner_twist(gc.build_datum("unitary", 2, 1),
                               gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))


IWAHORI_DATA = [(f, n, eps) for f, n in (("split_gl", 3), ("unitary", 3),
                                         ("quaternionic_gl", 2)) for eps in (1, -1)]


def _datum(family, n, eps):
    return _u11() if family == "U(1,1)" else gc.build_datum(family, n, eps)


def _contains_oracle(cls, diag):
    """IwahoriClass.contains over Q(i): each character's value on the diagonal
    diag of QI, over the quarter root that the class's arguments give, must
    be a positive real."""
    for k in cls.problem.act_characters:
        val = QI(1)
        for ki, v in zip(k, diag):
            if ki:
                val = val * v ** ki
        want = 4 * sum((ki * a for ki, a in zip(k, cls.g0_args)), Fraction(0))
        if want.denominator != 1:
            return False
        q = val / FOURTH_ROOTS[want.numerator % 4]
        if not q.is_real() or q.re <= 0:
            return False
    return True


def _numerators(v):
    """(re, im) of v over the lcm of its denominators: a positive real multiple."""
    d = lcm(v.re.denominator, v.im.denominator)
    return int(v.re * d), int(v.im * d)


@functools.cache
def _all_iwahori_classes():
    # at z = 1 every class's character values are +-1; unitary data at
    # z = -1 and z = i add the odd quarter turns
    data = [_datum(f, n, eps) for f, n, eps in IWAHORI_DATA + [("U(1,1)", 2, 1)]]
    data += [gc.build_datum("unitary", 2, 1, -1), gc.build_datum("unitary", 2, -1, QI(0, 1))]
    return [c for d in data for classes in enumerate_iwahori(d, 1).values() for c in classes]


def test_every_representative_lies_in_its_own_class_alone():
    # a twisted class's representative is carried off the base datum, whose
    # torus element membership reads, so the untwisted data alone here
    classes = [c for c in _all_iwahori_classes()
               if gc.base_datum(c.datum, gc.SIDES[c.side]) is c.datum]
    assert any(x < 0 for c in classes for k in c.problem.act_characters for x in k)
    for cls in classes:
        if cls.g0 is None:
            continue
        diag = [_numerators(cls.g0.coeff(i, i, 0)) for i in range(cls.datum.n)]
        at_tw = [c for c in classes if (c.datum, c.side, c.tw) == (cls.datum, cls.side, cls.tw)]
        assert [c for c in at_tw if c.contains(diag)] == [cls]


_PYTHAGOREAN = [QI(Fraction(3, 5), Fraction(4, 5)), QI(Fraction(5, 13), Fraction(-12, 13)),
                QI(Fraction(-8, 17), Fraction(15, 17))]  # units of infinite order
_BIG = st.integers(-10 ** 30, 10 ** 30)
_FACTORS = st.one_of(
    st.sampled_from(FOURTH_ROOTS + tuple(_PYTHAGOREAN)),
    st.builds(lambda a, b: QI(Fraction(a, b)), st.integers(1, 10 ** 30), st.integers(1, 10 ** 30)),
    st.builds(lambda a, b, d: QI(Fraction(a, d), Fraction(b, d)), _BIG, _BIG,
              st.integers(1, 10 ** 30)).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_membership_matches_the_qi_oracle(data):
    # a diagonal is a class representative's (when it has one) times
    # Gaussian rationals: roots of unity, units of infinite order, positive
    # rationals, which keep membership, and anything at all
    cls = data.draw(st.sampled_from(_all_iwahori_classes()))
    n = cls.datum.n
    diag = [cls.g0.coeff(i, i, 0) if cls.g0 is not None else QI(1) for i in range(n)]
    for i in range(n):
        for f in data.draw(st.lists(_FACTORS, max_size=3)):
            diag[i] = diag[i] * f
    member = _contains_oracle(cls, diag)
    event("member" if member else "not a member")
    assert cls.contains([_numerators(v) for v in diag]) == member


@pytest.mark.parametrize("family,n,eps", IWAHORI_DATA + [("U(1,1)", 2, 1)])
@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_enumerate_iwahori_equals_classes_at_tw(family, n, eps, side):
    d = _datum(family, n, eps)
    want = [c for tw in enumerate_admissible_tw(d, 1)
            for c in classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))]
    assert enumerate_iwahori(d, 1, (side,))[side.name] == want
    assert enumerate_iwahori(d, 1)[side.name] == want


@pytest.fixture
def builds(monkeypatch):
    """Records w of every torus problem built."""
    calls = []
    build = iwahori_orbits.build_torus_problem

    def counting(datum, w):
        calls.append(tuple(w))
        return build(datum, w)

    monkeypatch.setattr(iwahori_orbits, "build_torus_problem", counting)
    monkeypatch.setattr(canonicalize, "build_torus_problem", counting, raising=False)
    return calls


@pytest.mark.parametrize("family,n,eps", [("split_gl", 3, 1), ("U(1,1)", 2, 1)])
def test_one_torus_problem_per_weyl_element(builds, monkeypatch, tmp_path, capsys,
                                            family, n, eps):
    # both sides share one enumeration and one problem per Weyl element
    d = _datum(family, n, eps)
    ws = sorted({tw.w for tw in enumerate_admissible_tw(d, 1)})
    assert len(ws) < len(enumerate_admissible_tw(d, 1))
    enumerations = []
    enumerate_tw = iwahori_orbits.enumerate_admissible_tw
    monkeypatch.setattr(iwahori_orbits, "enumerate_admissible_tw",
                        lambda *a: enumerations.append(a) or enumerate_tw(*a))
    argv = ["orbits", "--level", "iwahori", "--bound", "1", "--side", "both"]
    if family == "U(1,1)":
        path = tmp_path / "twist.json"
        path.write_text(json.dumps([["1", "0"], ["0", "-1"]]))
        argv += ["--family", "unitary", "--n", "2", "--inner-twist", str(path)]
    else:
        argv += ["--family", family, "--n", str(n), "--epsilon", str(eps)]
    runs = [(side.name, lambda side=side: enumerate_iwahori(d, 1, (side,)))
            for side in (gc.THETA, gc.ETA)]
    runs += [("both", lambda: enumerate_iwahori(d, 1)),
             ("cli", lambda: cli.main(argv) == 0 or pytest.fail("orbits exited nonzero")),
             ("match", lambda: duality.match_iwahori(d, 1))]
    for name, run in runs:
        builds.clear()
        enumerations.clear()
        run()
        assert sorted(builds) == ws, name
        assert len(enumerations) == 1, name
    capsys.readouterr()


def test_match_iwahori_class_builds_once(builds):
    # looking a reduced element up among its t~w's classes builds nothing
    d = gc.build_datum("split_gl", 2, 1)
    for tw in enumerate_admissible_tw(d, 1):
        builds.clear()
        problem = iwahori_orbits.build_torus_problem(d, tw.w)
        classes = classes_at_tw(d, tw, gc.ETA, problem)
        for cls in classes:
            if cls.g0 is None:
                continue
            assert canonicalize._torus_class(cls.g0, classes) == cls
        assert builds == [tw.w]


def test_twisted_iwahori_reduction_builds_once(builds):
    # the twisted reduction reduces at the base datum and picks the class
    # from the caller's table: the table and every reduction at one t~w
    # share one torus problem
    d = _u11()
    tw = AffineWeylElement.of((0, 0), (0, 1))
    builds.clear()
    classes = classes_at_tw(d, tw, gc.ETA, iwahori_orbits.build_torus_problem(d, tw.w))
    assert len(classes) == 4 and all(c.loop_rep is not None for c in classes)
    for cls in classes:
        form = canonicalize.iwahori_reduce_eta(tw, tw.loop().inverse() * cls.loop_rep, d,
                                               classes)
        assert form.orbit_class == cls
    assert builds == [tw.w]


def test_classes_carry_anti_fixed_reps():
    for family in ("split_gl", "unitary"):
        for eps in (1, -1):
            d = gc.build_datum(family, 2, eps)
            classes = enumerate_iwahori(d, 1)
            for cls in classes["eta"]:
                if cls.loop_rep is not None:
                    assert gc.is_anti_fixed_eta(cls.loop_rep, d)
            for cls in classes["theta"]:
                if cls.loop_rep is not None:
                    assert gc.is_anti_fixed_theta(cls.loop_rep, d)


def test_gl2r_iwahori_goldens():
    d = gc.build_datum("split_gl", 2, 1)
    # t^(1,2) (dominant-sorted there is a single class, group Z/2 x Z/2)
    tw = AffineWeylElement.of((1, 2), (0, 1))
    classes = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    assert len(classes) == 1
    assert tuple(classes[0].component_group) == (2, 2)
    # t^(mu,mu).s is one class with trivial stabilizer
    tw = AffineWeylElement.of((1, 1), (1, 0))
    classes = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    assert len(classes) == 1
    assert tuple(classes[0].component_group) == ()


def test_eta_reps_canonicalize_to_the_dominant_coweight():
    seen = 0
    for family, n in (("split_gl", 2), ("split_gl", 3), ("unitary", 2), ("unitary", 3),
                      ("quaternionic_gl", 2)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for cls in enumerate_iwahori(d, 1, (gc.ETA,))["eta"]:
                if cls.loop_rep is None:
                    continue
                seen += 1
                lam = canonicalize.canonicalize_eta(cls.loop_rep, d).lam
                assert lam == tuple(sorted(cls.tw.lam, reverse=True))
    assert seen == 156


def test_twisted_iwahori_transport():
    uni = gc.build_datum("unitary", 2, 1)
    tw_datum = gc.pure_inner_twist(
        uni, gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))
    for tw in enumerate_admissible_tw(uni, 0):
        for side in (gc.THETA, gc.ETA):
            base = classes_at_tw(uni, tw, side, build_torus_problem(uni, tw.w))
            twisted = classes_at_tw(tw_datum, tw, side, build_torus_problem(tw_datum, tw.w))
            assert [c.g0_args for c in base] == [c.g0_args for c in twisted]
            for c in twisted:
                if c.loop_rep is None:
                    continue
                if side is gc.ETA:
                    assert gc.is_anti_fixed_eta(c.loop_rep, tw_datum)
                else:
                    assert gc.is_anti_fixed_theta(c.loop_rep, tw_datum)


def test_g0_args_are_fractions():
    d = gc.build_datum("split_gl", 2, -1)
    for cls in enumerate_iwahori(d, 1, (gc.ETA,))["eta"]:
        assert all(isinstance(a, Fraction) for a in cls.g0_args)


def as_dict(e):
    """The entry's nonzero terms as a dict exponent -> QI."""
    return {k: e.coeff(k) for k, *_ in e.int_terms()}


def _ad_probe(m):
    """A with m * t^(e_k) * m^-1 = t^(A e_k), read off the Laurent product."""
    n = m.n
    minv = m.inverse()
    cols = []
    for k in range(n):
        img = m * LaurentMatrix.t_power([int(i == k) for i in range(n)]) * minv
        cols.append([min(as_dict(img.entry(i, i)), default=0) for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_ad_matrix_matches_laurent_probe():
    for n in range(1, 5):
        for w in permutations(range(n)):
            assert _ad_matrix(w) == _ad_probe(LaurentMatrix.permutation(w)), w


def _admissible_reference(datum, bound):
    """t^lam * w is admissible when x * theta0(x) is a constant diagonal matrix
    for its lift x, tested pair by pair on Laurent matrices."""
    n = datum.n
    out = []
    for w in permutations(range(n)):
        for lam in product(range(-bound, bound + 1), repeat=n):
            x = LaurentMatrix.t_power(lam) * LaurentMatrix.permutation(w)
            m = x * gc.theta0(x, datum)
            if m.is_constant() and all(
                    not m.entry(i, j) for i in range(n) for j in range(n) if i != j):
                out.append((lam, w))
    return sorted(out)


@pytest.mark.parametrize("family,n", [
    ("split_gl", 2), ("split_gl", 3), ("split_gl", 4),
    ("unitary", 2), ("unitary", 3), ("unitary", 4),
    ("quaternionic_gl", 2), ("quaternionic_gl", 4),
])
@pytest.mark.parametrize("eps", [1, -1])
def test_enumerate_admissible_tw_matches_definition(family, n, eps):
    d = gc.build_datum(family, n, eps)
    got = [(tw.lam, tw.w) for tw in enumerate_admissible_tw(d, 1)]
    assert got == _admissible_reference(d, 1)


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
@pytest.mark.parametrize("twisted", [False, True])
def test_failed_anti_fixed_check_is_certificate_error(tmp_path, capsys, monkeypatch,
                                                       side, twisted):
    d = gc.build_datum("unitary", 2, 1)
    argv = ["orbits", "--family", "unitary", "--bound", "0", "--level", "iwahori",
            "--side", side.name]
    if twisted:
        twist = [["1", "0"], ["0", "-1"]]
        d = gc.pure_inner_twist(d, gc.matrix_from_config(twist, 2))
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(twist))
        argv += ["--inner-twist", str(path)]
    tw = AffineWeylElement.of((0, 0), (0, 1))
    classes = classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
    assert any(c.loop_rep is not None for c in classes)
    monkeypatch.setattr(iwahori_orbits, "is_anti_fixed", lambda *a: False)
    with pytest.raises(CertificateError, match="anti-fixed"):
        classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
    assert cli.main(argv) == 1
    assert "certificate failed" in capsys.readouterr().err


def _eta0_torus_probe(d):
    """E read off eta0 on 4th roots of unity in the compact torus: the
    eta-side probe that the theta0 probe of GroupDatum.torus replaces."""
    n = d.n
    cols = []
    for k in range(n):
        vals = [QI(1)] * n
        vals[k] = QI(0, 1)  # argument 1/4 in coordinate k
        img = gc.eta0(LaurentMatrix.diag_scalars(vals), d)
        col = []
        for i in range(n):
            c = qi_quarter(img.constant_matrix()[i][i])
            col.append(c - 4 if c > 1 else c)  # entries lie in {-1,0,1}
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("family,n", [(f, n) for f in ("split_gl", "unitary")
                                      for n in range(1, 7)]
                         + [("quaternionic_gl", n) for n in (2, 4, 6)])
@pytest.mark.parametrize("eps", [1, -1])
def test_eta0_acts_on_the_torus_by_theta0s_matrix(family, n, eps):
    d = gc.build_datum(family, n, eps)
    assert _eta0_torus_probe(d) == [list(row) for row in d.torus]


def _torus_matrices(e, w):
    """M_eq and M_act at w for the torus involution matrix e."""
    n = len(w)
    a_w, a_winv = _ad_matrix(w), _ad_matrix(_perm_inverse(w))
    return ([[a_w[i][j] + e[i][j] for j in range(n)] for i in range(n)],
            [[a_winv[i][j] - e[i][j] for j in range(n)] for i in range(n)])


def _kernel_in_image(m_eq, m_act):
    """Whether every right-kernel vector of m_eq solves in the image of
    m_act, by elimination over Q: the finiteness oracle."""
    rows, pivots, _ = eliminate(as_fractions(m_eq))
    solve = eliminate(as_fractions(m_act))[2]
    return all(solve(v) is not None for v in kernel_basis(rows, pivots))


@pytest.mark.parametrize("family,n", [(f, n) for f in ("split_gl", "unitary")
                                      for n in range(1, 6)]
                         + [("quaternionic_gl", n) for n in (2, 4)])
@pytest.mark.parametrize("eps", [1, -1])
def test_rank_certificate_matches_the_elimination_oracle(family, n, eps):
    # wherever the action preserves the equation, the problem builds (the
    # rank certificate holds) exactly when the oracle finds ker M_eq inside
    # im M_act; elsewhere the preservation certificate refuses it first
    d = gc.build_datum(family, n, eps)
    e = d.torus
    built = 0
    for w in permutations(range(n)):
        m_eq, m_act = _torus_matrices(e, w)
        if any(x for row in mat_mul(m_eq, m_act) for x in row):
            with pytest.raises(CertificateError, match="does not preserve the equation"):
                build_torus_problem(d, w)
            continue
        assert _kernel_in_image(m_eq, m_act), w
        problem = build_torus_problem(d, w)
        assert (problem.m_eq, problem.m_act) == (m_eq, m_act)
        built += 1
    assert built


def test_rank_certificate_refuses_an_infinite_quotient():
    # E = -A_w at a 4-cycle gives M_eq = 0 and M_act = A_w + A_w^-1 of rank
    # 2: the action preserves the equation, but the oracle finds kernel
    # outside the image, so the rank certificate must fail
    d = gc.build_datum("split_gl", 4, 1)
    w = (1, 2, 3, 0)
    e = [[-x for x in row] for row in _ad_matrix(w)]
    m_eq, m_act = _torus_matrices(e, w)
    assert not any(x for row in mat_mul(m_eq, m_act) for x in row)
    assert not _kernel_in_image(m_eq, m_act)
    with pytest.raises(CertificateError, match="equation kernel escapes the action image"):
        build_torus_problem(replace(d, torus=e), w)


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_solvability_matches_the_character_oracle(side):
    # classes() is empty exactly when a character killing the image of
    # M_eq fails on the target t_tw * z
    seen = set()
    for family, n, eps in IWAHORI_DATA + [("U(1,1)", 2, 1)]:
        d = _datum(family, n, eps)
        base = gc.base_datum(d, side)
        problems = {}
        for tw in enumerate_admissible_tw(d, 2):
            if tw.w not in problems:
                problems[tw.w] = build_torus_problem(d, tw.w)
            problem = problems[tw.w]
            # base_target and z in quarter turns; eps = -1 adds a half turn at odd lam
            sign = 1 - base.epsilon
            targ = [Fraction((b + qi_quarter(base.z) + sign * (lam % 2)) % 4, 4)
                    for b, lam in zip(problem.base_target, tw.lam)]
            unsolvable = any(x.denominator != 1 for x in mat_vec(
                integer_left_kernel_basis(problem.m_eq), targ))
            assert (problem.classes(tw, base, side) == []) == unsolvable, (family, eps, tw)
            seen.add(unsolvable)
    assert seen == {False, True}


# ---------------------------------------------------------------------------
# the per-lambda solve in Fraction arithmetic: the oracle for the integer one


def _reduce_mod_span(v, basis, pivots):
    v = list(v)
    for b, p in zip(basis, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, b)]
    return v


def _fraction_canonicalizer(m_act):
    """Canonical representative modulo Z^n + span_Q(columns of m_act), in
    Fraction: zero at the pivots of the reduced span basis, lattice
    coordinates in [0, 1) on the image of Z^n in the quotient."""
    n = len(m_act)
    rows, pivots, _ = eliminate(transpose(as_fractions(m_act)))
    basis = rows[:len(pivots)]
    lat = lattice_basis([_reduce_mod_span([Fraction(int(i == k)) for i in range(n)],
                                          basis, pivots) for k in range(n)])
    solve_lat = eliminate(transpose(lat))[2] if lat else None

    def canon(v):
        r = _reduce_mod_span([Fraction(x) for x in v], basis, pivots)
        if lat:
            coords = solve_lat(r)
            assert coords is not None
            for c, b in zip(coords, lat):
                f = Fraction(int(c // 1))
                r = [x - f * y for x, y in zip(r, b)]
        return tuple(r)

    return canon


def _fraction_classes(problem, tw, datum):
    """g0_args of the classes at tw, by the target, Smith solve, torsion
    offsets and canonicalizer carried in Fraction."""
    n = len(problem.w)
    sign_arg, zarg = Fraction(1 - datum.epsilon, 4), Fraction(qi_quarter(datum.z), 4)
    targ = [(Fraction(b, 4) + zarg + sign_arg * (lam % 2)) % 1
            for b, lam in zip(problem.base_target, tw.lam)]
    c = []
    for uti, di in zip(mat_vec(problem.snf_u, targ), problem.snf_d):
        if di == 0:
            if uti.denominator != 1:
                return []
            c.append(Fraction(0))
        else:
            c.append(uti / di)
    a0 = mat_vec(problem.snf_v, c)
    offsets = [[Fraction(0)] * n]
    for i, di in enumerate(problem.snf_d):
        if di > 1:
            g = [Fraction(problem.snf_v[j][i], di) for j in range(n)]
            offsets = [[x + k * gx for x, gx in zip(off, g)]
                       for off in offsets for k in range(di)]
    canon = _fraction_canonicalizer(problem.m_act)
    seen = {}
    for off in offsets:
        key = canon([x + o for x, o in zip(a0, off)])
        seen.setdefault(key, tuple(x % 1 for x in key))
    out = sorted(seen.values())
    for args in out:
        assert all((x - t).denominator == 1
                   for x, t in zip(mat_vec(problem.m_eq, list(args)), targ))
    return out


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_integer_solve_matches_the_fraction_oracle(side):
    data = [(_datum(*fne), 2) for fne in IWAHORI_DATA + [("U(1,1)", 2, 1)]]
    data.append((gc.build_datum("unitary", 2, 1, QI(0, 1)), 2))
    empty, orders = set(), set()
    for d, bound in data:
        base = gc.base_datum(d, side)
        problems = {}
        for tw in enumerate_admissible_tw(d, bound):
            if tw.w not in problems:
                problems[tw.w] = build_torus_problem(d, tw.w)
            got = [c.g0_args for c in problems[tw.w].classes(tw, base, side)]
            assert got == _fraction_classes(problems[tw.w], tw, base), (d.family, tw)
            empty.add(not got)
            orders.update(a.denominator for args in got for a in args)
    assert empty == {False, True}
    assert orders == {1, 2, 4, 8}


def test_integer_canonicalizer_matches_the_fraction_oracle():
    # random action matrices, some with non-integral reduced span bases
    rng = random.Random(5)
    dens = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        m_act = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        scale = 4 * rng.randint(1, 3)
        canon, arg_scale = iwahori_orbits._canonicalizer(m_act, scale)
        dens.add(arg_scale // scale)
        oracle = _fraction_canonicalizer(m_act)
        for _ in range(5):
            x = [rng.randint(-3 * scale, 3 * scale) for _ in range(n)]
            want = tuple(a % 1 for a in oracle([Fraction(xi, scale) for xi in x]))
            assert tuple(Fraction(a, arg_scale) for a in canon(x)) == want, (m_act, x)
    assert len(dens) > 1


def _unitary_bound0_argv(n, side):
    return ["orbits", "--family", "unitary", "--n", str(n), "--bound", "0",
            "--level", "iwahori", "--side", side.name]


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_unsolving_representative_is_certificate_error(capsys, monkeypatch, side):
    # a quarter turn added to the first argument of every torsion offset
    # moves the representatives off the solution coset
    d = gc.build_datum("unitary", 2, 1)
    tw = AffineWeylElement.of((0, 0), (0, 1))
    assert classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
    build = iwahori_orbits.build_torus_problem

    def corrupted(datum, w):
        p = build(datum, w)
        return replace(p, offsets=[[o[0] + p.scale // 4] + o[1:] for o in p.offsets])

    monkeypatch.setattr(iwahori_orbits, "build_torus_problem", corrupted)
    with pytest.raises(CertificateError, match="does not solve the equation"):
        classes_at_tw(d, tw, side, iwahori_orbits.build_torus_problem(d, tw.w))
    assert cli.main(_unitary_bound0_argv(2, side)) == 1
    assert "certificate failed" in capsys.readouterr().err


@pytest.mark.parametrize("side", [gc.THETA, gc.ETA], ids=["theta", "eta"])
def test_lattice_coordinates_outside_the_span_are_certificate_error(capsys, monkeypatch,
                                                                    side):
    # the lattice basis gains a unit entry at the span pivots, where every
    # generator vanishes: the free entries, and so the coordinates read off
    # them, are unchanged, but they no longer rebuild the reduced vector
    d = gc.build_datum("unitary", 3, 1)
    tw = AffineWeylElement.of((0, 0, 0), (0, 2, 1))
    assert classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
    basis = iwahori_orbits.lattice_basis

    def corrupted(gens):
        pivots = [i for i in range(len(gens[0])) if not any(g[i] for g in gens)]
        return [[x + (i in pivots) for i, x in enumerate(b)] for b in basis(gens)]

    monkeypatch.setattr(iwahori_orbits, "lattice_basis", corrupted)
    with pytest.raises(CertificateError, match="outside the lattice span"):
        classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
    assert cli.main(_unitary_bound0_argv(3, side)) == 1
    assert "certificate failed" in capsys.readouterr().err
