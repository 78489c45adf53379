"""Canonical forms: invariance under twists, certificate replay, reducers."""

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import loopmatsuki.group_catalog as gc
from loopmatsuki import canonicalize, cli
from loopmatsuki.canonicalize import (
    canonicalize_eta,
    canonicalize_theta,
    iwahori_reduce_eta,
    iwahori_reduce_theta,
    tau_eta,
    tau_theta,
)
from loopmatsuki.coweight_orbits import classify_eta, classify_theta, \
    enumerate_admissible
from loopmatsuki.errors import CertificateError, InvalidInputError, NotAntiFixedError, \
    PrecisionError
from loopmatsuki.gaussian import QI
from loopmatsuki.iwahori_orbits import AffineWeylElement, build_torus_problem, \
    classes_at_tw, enumerate_admissible_tw
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_arc_element, random_poly_element, random_qi, \
    random_rational
from loopmatsuki.serialize import canonical_form_to_json, dumps, laurent_to_json


def _data():
    return [gc.build_datum("split_gl", 2, 1),
            gc.build_datum("split_gl", 2, -1),
            gc.build_datum("quaternionic_gl", 2, -1),
            gc.build_datum("unitary", 2, 1)]


def test_theta_invariance_and_replay():
    rng = random.Random(13)
    precision = 8
    reps = [(d, c) for d in _data()
            for adm in enumerate_admissible(d, 1)
            for c in classify_theta(d, adm)]
    for d, cls in reps[:8]:
        h = random_arc_element(d.n, precision, rng)
        # the sample is an exact polynomial, so recompute it at extra
        # working precision before twisting
        hp = LaurentMatrix.zeros(d.n)
        for r in range(d.n):
            for c in range(d.n):
                hp.rows[r][c] = h.entry(r, c)
        hs = SeriesMatrix.from_laurent(hp, precision + 6)
        x = hs * SeriesMatrix.from_laurent(cls.loop_rep, precision + 6) \
            * gc.apply_theta(hs, d).inverse()
        form = canonicalize_theta(x, d)
        assert form.lam == cls.lam
        assert form.orbit_class.label == cls.label
        lhs = form.certificate * x * gc.apply_theta(
            form.certificate, d).inverse()
        r = form.residual_precision
        assert lhs.retruncate(r) == SeriesMatrix.from_laurent(
            form.loop_rep, r)


def test_twisted_eta_checks_anti_fixedness_once_at_the_base(monkeypatch, tmp_path, capsys):
    # canonicalize_eta redirects a twisted datum to its base before any
    # check, so the input is tested for anti-fixedness once, at the base
    twist = [["1", "0"], ["0", "-1"]]
    d = gc.pure_inner_twist(gc.build_datum("unitary", 2, 1), gc.matrix_from_config(twist, 2))
    check = gc.is_anti_fixed_eta
    calls = []
    monkeypatch.setattr(gc, "is_anti_fixed_eta",
                        lambda x, datum: calls.append(datum) or check(x, datum))
    for lam in enumerate_admissible(d, 1):
        for cls in classify_eta(d, lam):
            calls.clear()
            form = canonicalize_eta(cls.loop_rep, d)
            assert (form.lam, form.orbit_class.label) == (cls.lam, cls.label)
            assert calls == [gc.base_datum(d, gc.ETA)]
    x = LaurentMatrix.from_scalars([[1, 1], [0, 1]])
    assert not check(x, d)
    loop, twist_path = tmp_path / "loop.json", tmp_path / "twist.json"
    loop.write_text(json.dumps(laurent_to_json(x)))
    twist_path.write_text(json.dumps(twist))
    capsys.readouterr()
    assert cli.main(["canonicalize", "--family", "unitary", "--inner-twist", str(twist_path),
                     "--side", "eta", "--input", str(loop)]) == 5
    assert capsys.readouterr() == ("", "error: loop is not eta-anti-fixed\n")


# The classes of the theta_twist benchmark round: (datum, lambda, label).
THETA_ROUND = [
    (("split_gl", 2, 1), (1, 0), "Sym|Sym"),
    (("unitary", 2, 1), (0, 0), "(1,1)"),
    (("quaternionic_gl", 2, -1), (1, -1), "Sym|Sym"),
    (("split_gl", 3, 1), (1, 0, -1), "Sym|Sym|Sym"),
    (("unitary", 2, 1), (1, -1), "(0,0)"),
    (("split_gl", 2, -1), (-1, -1), "Alt"),
    (("unitary", 2, 1), (0, 0), "(1,1)"),
]


def test_lower_precision_never_changes_the_label():
    """Truncating a theta twist gives its (lambda, label) or PrecisionError,
    never another class."""
    rng = random.Random(21)
    for key, lam, label in THETA_ROUND:
        d = gc.build_datum(*key)
        (cls,) = [c for c in classify_theta(d, lam) if c.label == label]
        for _ in range(3):
            h = random_arc_element(d.n, 8, rng)
            hs = SeriesMatrix.from_laurent(
                LaurentMatrix([[h.entry(r, c) for c in range(d.n)] for r in range(d.n)]), 14)
            x = hs * SeriesMatrix.from_laurent(cls.loop_rep, 14) \
                * gc.apply_theta(hs, d).inverse()
            # the products leave x known below t^14 when the representative has a pole
            for precision in range(x.precision, 3, -1):
                y = x.retruncate(precision)
                try:
                    form = canonicalize_theta(y, d)
                except PrecisionError:
                    continue
                assert (form.lam, form.orbit_class.label) == (lam, label), precision


# sha256 of canonical_form_to_json over the twists of
# test_theta_bytes_above_bench_ranks
RANK45_THETA_DIGEST = "c00b4d00214140c7432d654ee87ad12fbc2eeb6775ad99d91867925d0b19c61c"


def test_theta_bytes_above_bench_ranks():
    """Canonical forms at ranks 4 and 5, beyond the benchmark's 2 and 3, are
    pinned byte for byte: three twists per datum at lambda = (1, 0, .., 0, -1),
    known to precision 6 and carried at 12, cycling through the classes."""
    rng = random.Random(45)
    docs = []
    for key in [("split_gl", 4, 1), ("split_gl", 5, 1), ("unitary", 4, 1),
                ("quaternionic_gl", 4, -1)]:
        d = gc.build_datum(*key)
        lam = (1,) + (0,) * (d.n - 2) + (-1,)
        classes = classify_theta(d, lam)
        for i in range(3):
            cls = classes[i % len(classes)]
            h = random_arc_element(d.n, 6, rng)
            hs = SeriesMatrix.from_laurent(
                LaurentMatrix([[h.entry(r, c) for c in range(d.n)] for r in range(d.n)]), 12)
            x = hs * SeriesMatrix.from_laurent(cls.loop_rep, 12) * gc.apply_theta(hs, d).inverse()
            form = canonicalize_theta(x, d)
            assert (form.lam, form.orbit_class.label) == (lam, cls.label)
            docs.append(canonical_form_to_json(form))
    assert hashlib.sha256(dumps(docs).encode()).hexdigest() == RANK45_THETA_DIGEST


# sha256 of canonical_form_to_json over the twists of
# test_theta_bytes_with_non_diagonal_levi
LEVI_THETA_DIGEST = "2d5dca98974b8306dbc7dd88e4ad95a1ab630db276a749c813524383eed8f22e"


def test_theta_bytes_with_non_diagonal_levi():
    """Canonical forms whose Levi block ell is not diagonal, so that the
    layer systems mix the rows of a block, are pinned byte for byte: one
    twist per theta class at bound 1 of U(4) and GL_2(H) at epsilon = -1,
    known to precision 8 and carried at 14 as in the benchmark."""
    rng = random.Random(17)
    docs = []
    for key in [("unitary", 4, 1), ("quaternionic_gl", 4, -1)]:
        d = gc.build_datum(*key)
        for adm in enumerate_admissible(d, 1):
            for cls in classify_theta(d, adm):
                h = random_arc_element(d.n, 8, rng)
                hs = SeriesMatrix.from_laurent(
                    LaurentMatrix([[h.entry(r, c) for c in range(d.n)] for r in range(d.n)]), 14)
                x = hs * SeriesMatrix.from_laurent(cls.loop_rep, 14) \
                    * gc.apply_theta(hs, d).inverse()
                form = canonicalize_theta(x, d)
                assert (form.lam, form.orbit_class.label) == (cls.lam, cls.label)
                assert any(form.g0.entry(i, j) for i in range(d.n) for j in range(d.n) if i != j)
                docs.append(canonical_form_to_json(form))
    assert len(docs) == 18
    assert hashlib.sha256(dumps(docs).encode()).hexdigest() == LEVI_THETA_DIGEST


def test_theta_certifies_w1_is_a_signed_permutation():
    # canonicalize_theta applies w1 as a signed column permutation
    d = gc.build_datum("split_gl", 2, 1)
    (cls,) = classify_theta(d, (1, 0))
    x = SeriesMatrix.from_laurent(cls.loop_rep, 12)
    for w1 in ([[{0: 1}, {0: 1}], [{}, {0: 1}]], [[{0: 2}, {}], [{}, {0: 1}]],
               [[{0: 1}, {}], [{0: -1}, {}]], [[{0: 1}, {}], [{}, {1: 1}]]):
        with pytest.raises(CertificateError, match="signed permutation"):
            canonicalize_theta(x, replace(d, w1=LaurentMatrix(w1)))


def test_eta_invariance_and_replay():
    rng = random.Random(14)
    reps = [(d, c) for d in _data()
            for adm in enumerate_admissible(d, 1)
            for c in classify_eta(d, adm)]
    for d, cls in reps[:8]:
        h = random_poly_element(d.n, 3, rng)
        x = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
        form = canonicalize_eta(x, d)
        assert form.lam == cls.lam
        assert form.orbit_class.label == cls.label
        assert form.residual_precision is None
        lhs = form.certificate * x * gc.apply_eta(
            form.certificate, d).inverse()
        assert lhs == form.loop_rep


# pure inner twists (family, n, twist c): U(1,1), U(2,1), twisted GL_2(R) by
# a diagonal and by a permutation, and GL_2(R) presented on quaternionic_gl
INNER_TWISTS = [
    ("unitary", 2, [[1, 0], [0, -1]]),
    ("unitary", 3, [[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
    ("split_gl", 2, [[1, 0], [0, -1]]),
    ("split_gl", 2, [[0, 1], [1, 0]]),
    ("quaternionic_gl", 2, [[0, 1], [-1, 0]]),
]


@pytest.mark.parametrize("eps", [1, -1], ids=["eps=1", "eps=-1"])
@pytest.mark.parametrize("family, n, twist", INNER_TWISTS,
                         ids=["U(1,1)", "U(2,1)", "split-diag", "split-swap", "quat-J"])
def test_inner_twist_transports(family, n, twist, eps):
    """Both canonicalizers and both Iwahori reducers carry a twisted loop to
    the base datum and back: spherical representatives keep their labels,
    and compact torus twists of Iwahori representatives keep their classes."""
    d = gc.pure_inner_twist(gc.build_datum(family, n, eps),
                            LaurentMatrix.from_scalars(twist))
    for adm in enumerate_admissible(d, 1):
        for cls in classify_eta(d, adm):
            form = canonicalize_eta(cls.loop_rep, d)
            assert (form.lam, form.orbit_class.label) == (cls.lam, cls.label)
        for cls in classify_theta(d, adm):
            form = canonicalize_theta(SeriesMatrix.from_laurent(cls.loop_rep, 12), d)
            assert (form.lam, form.orbit_class.label) == (cls.lam, cls.label)
    # a compact torus element of infinite order
    units = [QI(Fraction(3, 5), Fraction(4, 5)), QI(Fraction(5, 13), Fraction(12, 13)),
             QI(Fraction(8, 17), Fraction(-15, 17))]
    k = LaurentMatrix.diag_scalars(units[:n])
    for tw in enumerate_admissible_tw(d, 1):
        classes = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
        for cls in classes:
            if cls.loop_rep is None:
                continue
            x = k * cls.loop_rep * gc.apply_eta_inv(k, d)
            form = iwahori_reduce_eta(tw, tw.loop().inverse() * x, d, classes)
            assert form.orbit_class.g0_args == cls.g0_args
            h = form.certificate
            assert h * x * gc.apply_eta_inv(h, d) == form.loop_rep
        classes = classes_at_tw(d, tw, gc.THETA, build_torus_problem(d, tw.w))
        for cls in classes:
            if cls.loop_rep is None:
                continue
            x = k * cls.loop_rep * gc.apply_theta_inv(k, d)
            form = iwahori_reduce_theta(
                tw, SeriesMatrix.from_laurent(tw.loop().inverse() * x, 12), d, classes)
            assert form.orbit_class.g0_args == cls.g0_args
            h, r = form.certificate, form.residual_precision
            xs = SeriesMatrix.from_laurent(x, 12)
            lhs = h * xs * gc.apply_theta_inv(h, d)
            assert lhs.retruncate(r) == SeriesMatrix.from_laurent(form.loop_rep, r)


# sha256 of the outputs of test_inner_twist_bytes
TWISTED_DIGEST = "f64cc15778c8f122ae53307686bfc94e1cb939f832c2ecc11090299aae3f16f2"


def test_inner_twist_bytes(tmp_path, capsys):
    """The twisted outputs are pinned byte for byte at bound 1, on every
    INNER_TWISTS datum at both epsilon: the orbits tables at both levels, the
    bundle and kottwitz commands, and canonical_form_to_json of both
    canonicalizers and both Iwahori reducers on the class representatives."""
    docs = []
    for family, n, twist in INNER_TWISTS:
        path = tmp_path / "twist.json"
        path.write_text(json.dumps(twist))
        for eps in (1, -1):
            flags = ["--family", family, "--n", str(n), "--epsilon", str(eps),
                     "--inner-twist", str(path), "--bound", "1"]
            for argv in (["orbits", "--level", "spherical"], ["orbits", "--level", "iwahori"],
                         ["bundle"], ["kottwitz"]):
                assert cli.main(argv + flags) == 0
                docs.append(capsys.readouterr().out)
            d = gc.pure_inner_twist(gc.build_datum(family, n, eps),
                                    LaurentMatrix.from_scalars(twist))
            for adm in enumerate_admissible(d, 1):
                for cls in classify_eta(d, adm):
                    docs.append(canonical_form_to_json(canonicalize_eta(cls.loop_rep, d)))
                for cls in classify_theta(d, adm):
                    docs.append(canonical_form_to_json(
                        canonicalize_theta(SeriesMatrix.from_laurent(cls.loop_rep, 12), d)))
            for tw in enumerate_admissible_tw(d, 1):
                for side, reduce in ((gc.ETA, iwahori_reduce_eta),
                                     (gc.THETA, iwahori_reduce_theta)):
                    classes = classes_at_tw(d, tw, side, build_torus_problem(d, tw.w))
                    for cls in classes:
                        if cls.loop_rep is None:
                            continue
                        g = tw.loop().inverse() * cls.loop_rep
                        if side is gc.THETA:
                            g = SeriesMatrix.from_laurent(g, 12)
                        docs.append(canonical_form_to_json(reduce(tw, g, d, classes)))
    assert hashlib.sha256(dumps(docs).encode()).hexdigest() == TWISTED_DIGEST


@pytest.mark.parametrize("eps", [1, -1])
def test_transport_to_base_keeps_a_negative_valuation_loop_precision(eps):
    # on U(1,1) the lambda = (1, -1) representative has valuation -1; x * c
    # reads the exact twist c as far as the product needs, so the transported
    # loop keeps precision 12 and the reduction certifies 8 (7 when c was
    # lifted only to x's precision first)
    d = gc.pure_inner_twist(gc.build_datum("unitary", 2, eps),
                            LaurentMatrix.diag_scalars([QI(1), QI(-1)]))
    (cls,) = classify_theta(d, (1, -1))
    x = SeriesMatrix.from_laurent(cls.loop_rep, 12)
    assert x.val() == -1 and gc.transport_to_base(x, d).precision == 12
    assert canonicalize_theta(x, d).residual_precision == 8


UNITARY_DATA = [(n, eps) for n in range(1, 6) for eps in (1, -1)] + [(2, "U(1,1)")]


@pytest.mark.parametrize("n, eps", UNITARY_DATA,
                         ids=[f"U({n})-eps={e}" if e != "U(1,1)" else e
                              for n, e in UNITARY_DATA])
def test_unitary_class_matching_round_trip(n, eps):
    """Every unitary class at bound 1, on both sides, canonicalizes back to
    its lambda and label from its representative and from a sign-diagonal
    twist of it; where a middle block carries several classes, this is the
    signature (eta) or trace (theta) match that picks the label."""
    if eps == "U(1,1)":
        d = gc.pure_inner_twist(gc.build_datum("unitary", 2, 1),
                                LaurentMatrix.from_scalars([[1, 0], [0, -1]]))
    else:
        d = gc.build_datum("unitary", n, eps)
    s = LaurentMatrix.diag_scalars([(-1) ** (i + 1) for i in range(d.n)])
    ss = SeriesMatrix.from_laurent(s, 14)
    several = False
    for adm in enumerate_admissible(d, 1):
        for side, classify in (("eta", classify_eta), ("theta", classify_theta)):
            classes = classify(d, adm)
            several |= len(classes) > 1
            for cls in classes:
                if side == "eta":
                    loops = [cls.loop_rep, s * cls.loop_rep * gc.apply_eta_inv(s, d)]
                    forms = [canonicalize_eta(x, d) for x in loops]
                else:
                    rep = SeriesMatrix.from_laurent(cls.loop_rep, 14)
                    loops = [rep, ss * rep * gc.apply_theta_inv(ss, d)]
                    forms = [canonicalize_theta(x, d) for x in loops]
                for form in forms:
                    assert (form.lam, form.orbit_class.label) == (cls.lam, cls.label)
    assert several


def test_tau_maps_land_in_sector_one():
    d = gc.build_datum("split_gl", 2, -1)
    d1 = gc.build_datum("split_gl", 2, -1, 1)
    for adm in enumerate_admissible(d, 1):
        for cls in classify_eta(d, adm):
            tau = tau_eta(cls.loop_rep, d)
            assert gc.is_anti_fixed_theta(tau, d1)
        for cls in classify_theta(d, adm):
            tau = tau_theta(cls.loop_rep, d)
            assert gc.is_anti_fixed_eta(tau, d1)


def test_iwahori_reducers():
    d = gc.build_datum("split_gl", 2, 1)
    tw = AffineWeylElement.of((2, 1), (0, 1))
    classes = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    for cls in classes:
        g = tw.loop().inverse() * cls.loop_rep
        form = iwahori_reduce_eta(tw, g, d, classes)
        assert tuple(form.orbit_class.g0_args) == tuple(cls.g0_args)
        assert gc.is_anti_fixed_eta(form.loop_rep, d)
    classes = classes_at_tw(d, tw, gc.THETA, build_torus_problem(d, tw.w))
    for cls in classes:
        g = SeriesMatrix.from_laurent(tw.loop().inverse() * cls.loop_rep, 8)
        form = iwahori_reduce_theta(tw, g, d, classes)
        assert tuple(form.orbit_class.g0_args) == tuple(cls.g0_args)


def test_non_unipotent_eta_defect_is_invalid_input():
    # g is real, orthogonal and symmetric, so eta-anti-fixed at t~w = 1, but
    # its defect from the diagonal part is not unipotent
    d = gc.build_datum("split_gl", 2, 1)
    tw = AffineWeylElement.of((0, 0), (0, 1))
    g = LaurentMatrix.from_scalars([[QI(Fraction(3, 5)), QI(Fraction(4, 5))],
                                    [QI(Fraction(4, 5)), QI(Fraction(-3, 5))]])
    assert gc.is_anti_fixed_eta(tw.loop() * g, d)
    with pytest.raises(InvalidInputError, match="not unipotent"):
        iwahori_reduce_eta(tw, g, d, classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w)))


# eta-anti-fixed unitary loops that are not invertible over Q(i)[t, t^-1]:
# the zero loop, a rank-one constant, and diag(t^-1 + 1 + eps*t, 1), whose
# determinant is not a monomial.  The eta path takes no determinant, yet each
# stays invalid input with the Birkhoff message, in the library and the CLI.
NOT_INVERTIBLE = "Birkhoff factorization needs an invertible Laurent loop"


def _non_invertible_unitary_loops(eps):
    return {"zero": [[{}, {}], [{}, {}]],
            "rank_one": [[{"0": "1"}, {"0": "1"}], [{"0": "1"}, {"0": "1"}]],
            "non_monomial": [[{"-1": "1", "0": "1", "1": str(eps)}, {}], [{}, {"0": "1"}]]}


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("case", ["zero", "rank_one", "non_monomial"])
def test_non_invertible_eta_loop_is_invalid_input(case, eps):
    d = gc.build_datum("unitary", 2, eps)
    x = LaurentMatrix([[{int(k): int(v) for k, v in e.items()} for e in r]
                       for r in _non_invertible_unitary_loops(eps)[case]])
    assert gc.is_anti_fixed_eta(x, d)
    with pytest.raises(InvalidInputError, match=f"^{NOT_INVERTIBLE}$"):
        canonicalize_eta(x, d)


NON_INVERTIBLE_SCRIPT = r"""
import json, sys
from loopmatsuki import cli

workdir, loops = sys.argv[1], json.loads(sys.argv[2])
print(__debug__)
for eps, docs in loops.items():
    for name, entries in docs.items():
        path = f"{workdir}/{name}{eps}.json"
        with open(path, "w") as f:
            json.dump({"n": 2, "entries": entries}, f)
        print(cli.main(["canonicalize", "--family", "unitary", "--n", "2", "--epsilon", eps,
                        "--side", "eta", "--input", path]))
"""


@pytest.mark.parametrize("optimize", [True, False])
def test_non_invertible_eta_loop_exits_2(tmp_path, optimize):
    loops = {str(eps): _non_invertible_unitary_loops(eps) for eps in (1, -1)}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", NON_INVERTIBLE_SCRIPT, str(tmp_path),
                           json.dumps(loops)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [str(not optimize)] + ["2"] * 6 + [""]
    assert proc.stderr == f"error: {NOT_INVERTIBLE}\n" * 6


def test_precision_floor_raises():
    d = gc.build_datum("split_gl", 2, 1)
    x = SeriesMatrix.from_laurent(LaurentMatrix.t_power([2, 1]), 4)
    with pytest.raises(PrecisionError):
        canonicalize_theta(x, d)


def test_not_anti_fixed_raises():
    d = gc.build_datum("split_gl", 2, -1)
    with pytest.raises(NotAntiFixedError):
        canonicalize_eta(LaurentMatrix.t_power([1, 0]), d)


def test_missing_datum_is_invalid_input():
    # a plain matrix carries no datum; this must not rest on an assert,
    # which python -O strips
    x = LaurentMatrix.identity(2)
    with pytest.raises(InvalidInputError):
        canonicalize_theta(x)
    with pytest.raises(InvalidInputError):
        canonicalize_eta(x)


def _elementary_iwahori_twist(n, rng):
    """A product of three elementary Iwahori matrices I + c t^k E_ij: k in
    [0, 2] above the diagonal and in [1, 3] below it."""
    h = LaurentMatrix.identity(n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(0, 2) if i < j else rng.randint(1, 3)
        h = h * (LaurentMatrix.identity(n)
                 + LaurentMatrix.monomial(n, i, j, k, random_qi(rng)))
    return h


def _is_iwahori(g):
    n = g.n
    c = g.constant_matrix()
    return (g.val() or 0) >= 0 and all(c[i][j].is_zero() for i in range(n) for j in range(i))


def _positioned_reductions():
    """Non-torus positioned inputs t~w * g for both Iwahori reducers: theta
    ones are twists of torus representatives by elementary Iwahori
    matrices, eta ones twists of t^lam representatives (lam weakly
    increasing, w = 1) by constant real upper-triangular matrices."""
    rng = random.Random(1)
    u2 = gc.build_datum("unitary", 2, 1)
    # (datum, twists tried per class, most inputs kept): rank 3 is capped
    # for time
    theta_data = [(gc.build_datum("split_gl", 2, 1), 2, None),
                  (gc.build_datum("split_gl", 2, -1), 2, None),
                  (gc.build_datum("split_gl", 3, 1), 1, 6),
                  (u2, 2, None), (gc.build_datum("unitary", 2, -1), 2, None),
                  (gc.build_datum("quaternionic_gl", 2, -1), 2, None),
                  (gc.pure_inner_twist(u2, LaurentMatrix.diag_scalars([1, -1])), 2, None)]
    cases = []
    for d, tries, cap in theta_data:
        found = []
        for tw in enumerate_admissible_tw(d, 1):
            for cls in classes_at_tw(d, tw, gc.THETA, build_torus_problem(d, tw.w)):
                for _ in range(tries if cls.loop_rep is not None else 0):
                    h = _elementary_iwahori_twist(d.n, rng)
                    x = h * cls.loop_rep * gc.apply_theta_inv(h, d)
                    g = tw.loop().inverse() * x
                    if x != cls.loop_rep and _is_iwahori(g):
                        found.append(("theta", d, tw, cls, x, SeriesMatrix.from_laurent(g, 16)))
        cases += found[:cap]
    # at eps = -1 the one such class is the identity's, which every real
    # constant twist fixes, so only eps = 1 yields eta inputs
    for n, eps in [(2, 1), (2, -1), (3, 1), (3, -1)]:
        d = gc.build_datum("split_gl", n, eps)
        for tw in enumerate_admissible_tw(d, 1):
            if tw.w != tuple(range(n)) or list(tw.lam) != sorted(tw.lam):
                continue
            for cls in classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w)):
                for _ in range(2 if cls.loop_rep is not None else 0):
                    h = LaurentMatrix.from_scalars(
                        [[QI(1) if i == j else QI(random_rational(rng)) if i < j else QI(0)
                          for j in range(n)] for i in range(n)])
                    x = h * cls.loop_rep * gc.apply_eta_inv(h, d)
                    if x != cls.loop_rep:
                        cases.append(("eta", d, tw, cls, x, tw.loop().inverse() * x))
    return cases


# sha256 of (g0_args, g0, certificate, residual_precision) over every
# reduction of _positioned_reductions()
POSITIONED_DIGEST = "6557a69a328b4b10bf3d0d3993c42d992a377a930a484e4c66fdb4585989d665"


def test_positioned_iwahori_reductions_golden():
    cases = _positioned_reductions()
    assert sum(side == "theta" for side, *_ in cases) >= 30
    assert any(side == "eta" for side, *_ in cases)
    docs = []
    for side, d, tw, cls, x, g in cases:
        classes = classes_at_tw(d, tw, gc.SIDES[side], cls.problem)
        if side == "theta":
            form = iwahori_reduce_theta(tw, g, d, classes)
            h, r = form.certificate, form.residual_precision
            # r certifies the positioned factor t~w^-1 * x, whose rows carry
            # t^-lam_i against the loop's
            xs = SeriesMatrix.from_laurent(x, 24)
            tw_inv = SeriesMatrix.from_laurent(tw.loop().inverse(), 24)
            lhs = tw_inv * h * xs * gc.apply_theta_inv(h, d)
            assert lhs.retruncate(r) == SeriesMatrix.from_laurent(form.g0, r)
        else:
            form = iwahori_reduce_eta(tw, g, d, classes)
            h = form.certificate
            assert h * x * gc.apply_eta_inv(h, d) == form.loop_rep
        assert form.orbit_class.g0_args == cls.g0_args
        docs.append([[str(a) for a in form.orbit_class.g0_args], laurent_to_json(form.g0),
                     laurent_to_json(form.certificate), form.residual_precision])
    digest = hashlib.sha256(dumps(docs).encode()).hexdigest()
    assert digest == POSITIONED_DIGEST


def test_theta_takes_series_loops_only():
    # an exact loop has no precision to certify against; callers convert first
    d = gc.build_datum("split_gl", 2, 1)
    with pytest.raises(InvalidInputError, match="series loop"):
        canonicalize_theta(LaurentMatrix.t_power([2, 1]), d)


def test_iwahori_theta_stall_raises_precision_error(monkeypatch):
    """Layer steps that leave the dirt where it was cannot loop forever: the
    reducer's stall check raises PrecisionError once the key fails to rise."""
    d = gc.build_datum("split_gl", 2, 1)
    rng = random.Random(1)
    for tw in enumerate_admissible_tw(d, 1):
        classes = classes_at_tw(d, tw, gc.THETA, build_torus_problem(d, tw.w))
        reps = [c.loop_rep for c in classes if c.loop_rep is not None]
        hs = [_elementary_iwahori_twist(2, rng) for _ in reps]
        gs = [tw.loop().inverse() * h * rep * gc.apply_theta_inv(h, d)
              for h, rep in zip(hs, reps)]
        dirty = [g for g in gs if _is_iwahori(g) and not g.is_constant()]
        if dirty:
            break
    g = SeriesMatrix.from_laurent(dirty[0], 16)
    assert iwahori_reduce_theta(tw, g, d, classes).residual_precision is not None
    monkeypatch.setattr(canonicalize, "_theta_layer_steps", lambda *args: [])
    with pytest.raises(PrecisionError, match="stalled"):
        iwahori_reduce_theta(tw, g, d, classes)
