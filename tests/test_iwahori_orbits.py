import json
from fractions import Fraction
from itertools import permutations, product

import pytest

from loopmatsuki import cli, iwahori_orbits
from loopmatsuki import group_catalog as gc
from loopmatsuki.errors import CertificateError
from loopmatsuki.iwahori_orbits import (
    AffineWeylElement, _ad_matrix, build_torus_problem, classes_at_tw,
    enumerate_admissible_tw, enumerate_iwahori, perm_matrix, same_torus_class,
    solve_torus_classes, spherical_projection,
)
from loopmatsuki.laurent import LaurentMatrix


def test_admissible_tw_condition():
    d = gc.build_datum("split_gl", 2, 1)
    tws = enumerate_admissible_tw(d, 1)
    for tw in tws:
        # theta0(lam) = -w^-1 lam w as affine Weyl elements
        m = tw.loop() * gc.theta0(tw.loop(), d)
        assert m.is_constant()


def test_solve_torus_classes_invariants():
    for family, n in (("split_gl", 2), ("unitary", 2)):
        for eps in (1, -1):
            d = gc.build_datum(family, n, eps)
            for tw in enumerate_admissible_tw(d, 1):
                for side in ("theta", "eta"):
                    problem = build_torus_problem(d, tw, side)
                    nonempty, classes = solve_torus_classes(problem)
                    if not nonempty:
                        assert classes == []
                        continue
                    # canonical representatives are pairwise inequivalent
                    for i, (a, _) in enumerate(classes):
                        for b, _ in classes[i + 1:]:
                            assert not same_torus_class(problem, a, b)


def test_classes_carry_anti_fixed_reps():
    for family in ("split_gl", "unitary"):
        for eps in (1, -1):
            d = gc.build_datum(family, 2, eps)
            for cls in enumerate_iwahori(d, 1, "eta"):
                if cls.loop_rep is not None:
                    assert gc.is_anti_fixed_eta(cls.loop_rep, d)
            for cls in enumerate_iwahori(d, 1, "theta"):
                if cls.loop_rep is not None:
                    assert gc.is_anti_fixed_theta(cls.loop_rep, d)


def test_gl2r_iwahori_goldens():
    d = gc.build_datum("split_gl", 2, 1)
    # t^(1,2) (dominant-sorted there is a single class, group Z/2 x Z/2)
    classes = classes_at_tw(d, AffineWeylElement.of((1, 2), (0, 1)), "eta")
    assert len(classes) == 1
    assert tuple(classes[0].component_group) == (2, 2)
    # t^(mu,mu).s is one class with trivial stabilizer
    classes = classes_at_tw(d, AffineWeylElement.of((1, 1), (1, 0)), "eta")
    assert len(classes) == 1
    assert tuple(classes[0].component_group) == ()


def test_spherical_projection():
    d = gc.build_datum("split_gl", 2, 1)
    for cls in enumerate_iwahori(d, 1, "eta"):
        parent = spherical_projection(cls)
        assert tuple(parent.lam) == tuple(
            sorted(cls.tw.lam, reverse=True))


def test_twisted_iwahori_transport():
    uni = gc.build_datum("unitary", 2, 1)
    tw_datum = gc.pure_inner_twist(
        uni, gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))
    for tw in enumerate_admissible_tw(uni, 0):
        for side in ("theta", "eta"):
            base = classes_at_tw(uni, tw, side)
            twisted = classes_at_tw(tw_datum, tw, side)
            assert [c.g0_args for c in base] == [c.g0_args for c in twisted]
            for c in twisted:
                if c.loop_rep is None:
                    continue
                if side == "eta":
                    assert gc.is_anti_fixed_eta(c.loop_rep, tw_datum)
                else:
                    assert gc.is_anti_fixed_theta(c.loop_rep, tw_datum)


def test_g0_args_are_fractions():
    d = gc.build_datum("split_gl", 2, -1)
    for cls in enumerate_iwahori(d, 1, "eta"):
        assert all(isinstance(a, Fraction) for a in cls.g0_args)


def _ad_probe(m):
    """A with m * t^(e_k) * m^-1 = t^(A e_k), read off the Laurent product."""
    n = m.n
    minv = m.inverse()
    cols = []
    for k in range(n):
        img = m * LaurentMatrix.t_power([int(i == k) for i in range(n)]) * minv
        cols.append([min(img.entry(i, i)) if img.entry(i, i) else 0 for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def test_ad_matrix_matches_laurent_probe():
    for n in range(1, 5):
        for w in permutations(range(n)):
            assert _ad_matrix(w) == _ad_probe(perm_matrix(w)), w


def _admissible_reference(datum, bound):
    """t^lam * w is admissible when x * theta0(x) is a constant diagonal matrix
    for its lift x, tested pair by pair on Laurent matrices."""
    n = datum.n
    out = []
    for w in permutations(range(n)):
        for lam in product(range(-bound, bound + 1), repeat=n):
            x = LaurentMatrix.t_power(lam) * perm_matrix(w)
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


@pytest.mark.parametrize("side", ["theta", "eta"])
@pytest.mark.parametrize("twisted", [False, True])
def test_failed_anti_fixed_check_is_certificate_error(tmp_path, capsys, monkeypatch,
                                                       side, twisted):
    d = gc.build_datum("unitary", 2, 1)
    argv = ["orbits", "--family", "unitary", "--bound", "0", "--level", "iwahori",
            "--side", side]
    if twisted:
        twist = [["1", "0"], ["0", "-1"]]
        d = gc.pure_inner_twist(d, gc.matrix_from_config(twist, 2))
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(twist))
        argv += ["--inner-twist", str(path)]
    tw = AffineWeylElement.of((0, 0), (0, 1))
    assert any(c.loop_rep is not None for c in classes_at_tw(d, tw, side))
    monkeypatch.setattr(iwahori_orbits, "is_anti_fixed_theta", lambda *a: False)
    monkeypatch.setattr(iwahori_orbits, "is_anti_fixed_eta", lambda *a: False)
    with pytest.raises(CertificateError, match="anti-fixed"):
        classes_at_tw(d, tw, side)
    assert cli.main(argv) == 1
    assert "certificate failed" in capsys.readouterr().err
