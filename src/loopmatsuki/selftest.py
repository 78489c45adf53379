"""Named self-checks over the published GL_2(R), GL_1(H), U(2) tables.

Each check raises AssertionError with a description on failure.  The
test suite runs them at full size; the CLI selftest command uses the
default (smaller) sample sizes so a fresh checkout verifies quickly.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from . import group_catalog as gc
from .bundles_kottwitz import (
    enumerate_kottwitz,
    kottwitz_to_loop,
    loop_to_bundle,
    loop_to_parabolic_bundle,
    twist_kottwitz,
)
from .canonicalize import canonicalize_eta, canonicalize_theta, tau_theta
from .coweight_orbits import classify_eta, classify_theta, enumerate_admissible
from .duality import finite_matsuki, match_spherical, verify_intersection
from .gaussian import QI
from .group_catalog import GroupDatum
from .iwahori_orbits import AffineWeylElement, classes_at_tw
from .laurent import LaurentMatrix, SeriesMatrix
from .randgen import random_arc_element, random_constant_invertible, \
    random_poly_element


def _split(eps: int) -> GroupDatum:
    return gc.build_datum("split_gl", 2, eps)


def _quat(eps: int) -> GroupDatum:
    return gc.build_datum("quaternionic_gl", 2, eps)


def _uni(eps: int) -> GroupDatum:
    return gc.build_datum("unitary", 2, eps)


def _u11(eps: int) -> GroupDatum:
    return gc.pure_inner_twist(
        _uni(eps), LaurentMatrix.from_scalars([[1, 0], [0, -1]]))


def _catalog() -> List[GroupDatum]:
    out = []
    for eps in (1, -1):
        out += [_split(eps), _quat(eps), _uni(eps), _u11(eps)]
    return out


def check_gl2r_split(bound: int = 3) -> None:
    """GL_2(R), eps=1: spherical and Iwahori tables, bundles, lines."""
    d = _split(1)
    for adm in enumerate_admissible(d, bound):
        for side, classes in (("theta", classify_theta(d, adm)),
                              ("eta", classify_eta(d, adm))):
            assert len(classes) == 1, (adm.lam, side)
            cls = classes[0]
            lam = adm.lam
            want = (2,) if lam[0] == lam[1] else (2, 2)
            assert tuple(cls.component_group) == want, (lam, side)
            b = loop_to_bundle(cls.loop_rep, d)
            assert b.gluing == LaurentMatrix.identity(2), lam
            assert b.splitting == tuple(lam)
    # Iwahori level: t^lam has S = Z/2 x Z/2; t^(mu,mu)s is a single
    # class with trivial stabilizer
    tw = AffineWeylElement.of((1, 2), (0, 1))
    classes = classes_at_tw(d, tw, "eta")
    assert len(classes) == 1 and tuple(classes[0].component_group) == (2, 2)
    pb = loop_to_parabolic_bundle(classes[0].loop_rep, tw, d)
    assert pb.lines == ((QI(1), QI(0)), (QI(1), QI(0)))
    assert pb.aut_label == "R* x R*"
    tws = AffineWeylElement.of((1, 1), (1, 0))
    classes = classes_at_tw(d, tws, "eta")
    assert len(classes) == 1 and tuple(classes[0].component_group) == ()
    x = classes[0].loop_rep
    want = LaurentMatrix.monomial(2, 0, 1, 1) + LaurentMatrix.monomial(2, 1, 0, 1)
    assert x == want, "x_tw should be the antidiagonal t^mu matrix"
    pb = loop_to_parabolic_bundle(x, tws, d)
    assert pb.lines == ((QI(1), QI(0)), (QI(0), QI(1)))
    assert pb.aut_label == "C*"


def check_gl2r_twisted(bound: int = 3) -> None:
    """GL_2(R), eps=-1: parity emptiness, representatives, bundles."""
    d = _split(-1)
    for adm in enumerate_admissible(d, bound):
        lam = tuple(adm.lam)
        classes = classify_eta(d, adm)
        if lam[0] != lam[1]:
            if lam[0] % 2 or lam[1] % 2:
                assert classes == [], f"regular {lam} should be empty"
            else:
                assert len(classes) == 1, lam
                assert tuple(classes[0].component_group) == (2, 2), lam
        elif lam[0] % 2:  # odd equal: alternating form, trivial group, c = J
            (cls,) = classes
            assert tuple(cls.component_group) == ()
            b = loop_to_bundle(cls.loop_rep, d)
            cj = LaurentMatrix.from_scalars([[0, 1], [-1, 0]])
            assert b.gluing == cj and b.aut_label == "GL1(H)", lam
        else:
            (cls,) = classes
            assert tuple(cls.component_group) == (2,), lam
    # the antidiagonal representative at (2mu+1, 2mu+1).s has a connected
    # stabilizer and is the only class there
    x = LaurentMatrix.monomial(2, 0, 1, 1) + LaurentMatrix.monomial(2, 1, 0, 1, -1)
    assert gc.is_anti_fixed_eta(x, d)
    classes = classes_at_tw(d, AffineWeylElement.of((1, 1), (1, 0)), "eta")
    assert len(classes) == 1 and tuple(classes[0].component_group) == ()


def check_gl1h(bound: int = 2) -> None:
    """GL_1(H): admissibility and component groups per the table."""
    d = _quat(1)
    for adm in enumerate_admissible(d, bound):
        classes = classify_eta(d, adm)
        if adm.lam[0] != adm.lam[1]:
            assert classes == [], adm.lam
            continue
        (cls,) = classes
        assert tuple(cls.component_group) == ()
        assert cls.aut_label == "GL1(H)"
    dm = _quat(-1)
    seen = 0
    for adm in enumerate_admissible(dm, bound):
        lam = tuple(adm.lam)
        for cls in classify_eta(dm, adm):
            seen += 1
            comp = tuple(cls.component_group)
            aut = cls.aut_label
            if lam[0] == lam[1] and lam[0] % 2 == 0:
                assert comp == () and aut == "GL1(H)", (lam, comp, aut)
            elif lam[0] == lam[1]:
                assert comp == (2,) and aut == "GL2(R)", (lam, comp, aut)
            else:
                assert lam[0] % 2 and lam[1] % 2, f"{lam} should be empty"
                assert comp == (2, 2) and aut == "R* x R*", (lam, comp, aut)
    assert seen > 0


def check_u2(bound: int = 2) -> None:
    """U(2) and its pure inner form U(1,1): tables coincide."""
    d = _uni(1)
    zero = classify_eta(d, (0, 0))
    assert len(zero) == 3
    assert {c.aut_label for c in zero} == {"U(1,1)", "U(2,0)", "U(0,2)"}
    for mu in range(1, bound + 1):
        classes = classify_eta(d, (mu, -mu))
        assert len(classes) == 1
        assert tuple(classes[0].component_group) == ()
        assert classes[0].aut_label == "{(z,zbar)}"
    dt = _u11(1)
    for adm in enumerate_admissible(d, bound):
        rows = [(c.label, tuple(c.component_group), c.aut_label)
                for c in classify_eta(d, adm)]
        rows_t = [(c.label, tuple(c.component_group), c.aut_label)
                  for c in classify_eta(dt, adm)]
        assert rows == rows_t, adm.lam


def check_tau_remark() -> None:
    """The four GL_2((t^2))-coset representatives and their tau-images."""
    d = _uni(-1)
    j = LaurentMatrix.from_scalars([[0, 1], [1, 0]])
    mu = 2
    four = LaurentMatrix([[{0: 1}, {1: 1}], [{}, {mu + 1: 1}]])
    target = LaurentMatrix([[{}, {mu: 1}], [{-mu: QI(-1) ** mu}, {}]])
    cases = [
        (LaurentMatrix.t_power([1, 0]), j),
        (LaurentMatrix.identity(2), LaurentMatrix.identity(2)),
        (LaurentMatrix.t_power([1, 1]), LaurentMatrix.from_scalars(
            [[-1, 0], [0, -1]])),
        (four, target),
    ]
    for gamma, image_rep in cases:
        x = tau_theta(gamma, d)
        form = canonicalize_theta(
            SeriesMatrix.from_laurent(x, 12), d)
        want = canonicalize_theta(
            SeriesMatrix.from_laurent(image_rep, 12), d)
        assert form.lam == want.lam, (form.lam, want.lam)
        assert form.orbit_class.label == want.orbit_class.label
    # and the four images are pairwise distinct classes
    keys = set()
    for gamma, _ in cases:
        f = canonicalize_theta(
            SeriesMatrix.from_laurent(tau_theta(gamma, d), 12), d)
        keys.add((f.lam, f.orbit_class.label))
    assert len(keys) == 4


def check_duality(bound: int = 2, samples: int = 20, seed: int = 2026) -> None:
    """Matched pairs over the catalog: labels, component groups, twists."""
    for datum in _catalog():
        for pair in match_spherical(datum, bound):
            assert (tuple(pair.theta_class.component_group)
                    == tuple(pair.eta_class.component_group))
            if pair.common_rep is None:
                continue  # twisted data need not share exact representatives
            report = verify_intersection(pair, samples, seed)
            assert not report["failures"], (
                datum.real_form, pair.theta_class.lam, report["failures"][:1])


def check_invariance(theta_twists: int = 100, eta_twists: int = 50,
                     precision: int = 8, seed: int = 11) -> None:
    """Random twists never move (lambda, label); certificates replay."""
    rng = random.Random(seed)
    data = [_split(1), _split(-1), _quat(-1), _uni(1)]
    reps = [(d, c) for d in data
            for adm in enumerate_admissible(d, 1)
            for c in classify_theta(d, adm)]
    for i in range(theta_twists):
        d, cls = reps[i % len(reps)]
        h = random_arc_element(d.n, precision, rng)
        # the sampled twist is an exact polynomial of degree < precision, so
        # computing with it at extra working precision is free
        hs = SeriesMatrix.from_laurent(h.to_laurent(), precision + 6)
        x = hs * SeriesMatrix.from_laurent(cls.loop_rep, precision + 6) \
            * gc.apply_theta_inv(hs, d)
        form = canonicalize_theta(x, d)
        assert form.lam == cls.lam and form.orbit_class.label == cls.label
        lhs = form.certificate * x * gc.apply_theta_inv(form.certificate, d)
        r = form.residual_precision
        assert lhs.retruncate(r) == SeriesMatrix.from_laurent(
            form.loop_rep, r), "theta certificate replay"
    reps = [(d, c) for d in data
            for adm in enumerate_admissible(d, 1)
            for c in classify_eta(d, adm)]
    for i in range(eta_twists):
        d, cls = reps[i % len(reps)]
        h = random_poly_element(d.n, 3, rng)
        x = h * cls.loop_rep * gc.apply_eta_inv(h, d)
        form = canonicalize_eta(x, d)
        assert form.lam == cls.lam and form.orbit_class.label == cls.label
        lhs = form.certificate * x * gc.apply_eta_inv(form.certificate, d)
        assert lhs == form.loop_rep, "eta certificate replay"


def check_coweight_agreement(count: int = 50, seed: int = 5) -> None:
    """theta and eta agree on cocharacter loops t^lambda exactly."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([1, 2, 2, 3, 4])
        lam = [rng.randint(-5, 5) for _ in range(n)]
        for family in ("split_gl", "quaternionic_gl", "unitary"):
            if family == "quaternionic_gl" and n % 2:
                continue
            for eps in (1, -1):
                d = gc.build_datum(family, n, eps)
                m = LaurentMatrix.t_power(lam)
                assert gc.apply_theta(m, d) == gc.apply_eta(m, d), (
                    family, eps, lam)


def check_kottwitz(bound: int = 2, hsamples: int = 20, seed: int = 3) -> None:
    """Kottwitz enumeration matches the eta classification exactly."""
    rng = random.Random(seed)
    for datum in [_split(1), _split(-1), _quat(1), _quat(-1),
                  _uni(1), _uni(-1)]:
        points = enumerate_kottwitz(datum, bound)
        total = sum(len(classify_eta(datum, adm))
                    for adm in enumerate_admissible(datum, bound))
        assert len(points) == total
        labels = []
        for p in points:
            loop = kottwitz_to_loop(p, datum)
            form = canonicalize_eta(loop, datum)
            labels.append((form.lam, form.orbit_class.label))
            for _ in range(hsamples):
                h = _lam_preserving(p.lam, rng)
                q = twist_kottwitz(p, h, datum)
                form2 = canonicalize_eta(kottwitz_to_loop(q, datum), datum)
                assert (form2.lam, form2.orbit_class.label) == labels[-1]
        assert len(set(labels)) == len(labels), "classes must not collapse"


def _lam_preserving(lam: Tuple[int, ...], rng: random.Random) -> LaurentMatrix:
    """A random constant matrix normalizing the cocharacter t^lam."""
    n = len(lam)
    rows = [[QI(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        stop = start
        while stop < n and lam[stop] == lam[start]:
            stop += 1
        block = random_constant_invertible(stop - start, rng)
        c = block.constant_matrix()
        for i in range(stop - start):
            for j in range(stop - start):
                rows[start + i][start + j] = c[i][j]
        start = stop
    return LaurentMatrix.from_scalars(rows)


def check_finite_matsuki() -> None:
    """Borel-level and lambda=0 counts of the constant specialization."""
    fm = finite_matsuki(_split(1))
    assert len(fm["borel"]) == 2, "two GL2(R)-orbits on GL2/B"
    fmu = finite_matsuki(_uni(1))
    assert len(fmu["spherical"]) == 3
    fmt = finite_matsuki(_u11(1))
    assert len(fmt["spherical"]) == len(fmu["spherical"])
    assert len(fmt["borel"]) == len(fmu["borel"])
    assert len(finite_matsuki(gc.build_datum("split_gl", 1, 1))
               ["spherical"]) == 1


CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("gl2r_split_tables", check_gl2r_split),
    ("gl2r_twisted_tables", check_gl2r_twisted),
    ("gl1h_tables", check_gl1h),
    ("u2_tables", check_u2),
    ("tau_coset_remark", check_tau_remark),
    ("duality_suite", lambda: check_duality(bound=1, samples=5)),
    ("canonicalizer_invariance", lambda: check_invariance(20, 10)),
    ("coweight_agreement", lambda: check_coweight_agreement(10)),
    ("kottwitz_suite", lambda: check_kottwitz(bound=1, hsamples=5)),
    ("finite_matsuki", check_finite_matsuki),
]


def run_all() -> List[dict]:
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append({"name": name, "ok": True})
        except Exception as exc:  # report and continue
            results.append({"name": name, "ok": False, "detail": repr(exc)})
    return results
