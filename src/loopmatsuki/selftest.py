"""Named self-checks over the published GL_2(R), GL_1(H), U(2) tables.

Each check raises CertificateError (through errors.certify) with a
description on failure, so python -O cannot switch the checks off.  The
test suite runs them at full size; the CLI selftest command uses the
default (smaller) sample sizes so a fresh checkout verifies quickly.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from . import group_catalog as gc
from .bundles_kottwitz import (
    enumerate_kottwitz,
    kottwitz_to_loop,
    loop_to_bundle,
    loop_to_parabolic_bundle,
    twist_kottwitz,
)
from .canonicalize import canonicalize_eta, canonicalize_theta, tau_theta
from .coweight_orbits import blocks_of, classify_eta, classify_theta, enumerate_admissible
from .duality import finite_matsuki, match_iwahori, match_spherical, verify_intersection
from .errors import certify
from .gaussian import QI
from .group_catalog import GroupDatum
from .iwahori_orbits import AffineWeylElement, build_torus_problem, classes_at_tw
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
    for lam in enumerate_admissible(d, bound):
        for side, classes in (("theta", classify_theta(d, lam)),
                              ("eta", classify_eta(d, lam))):
            certify(len(classes) == 1, f"{side} classes at {lam}: {len(classes)}, want 1")
            cls = classes[0]
            want = (2,) if lam[0] == lam[1] else (2, 2)
            certify(tuple(cls.component_group) == want, f"{side} component group at {lam}")
            b = loop_to_bundle(cls.loop_rep, d)
            certify(b.gluing == LaurentMatrix.identity(2), f"gluing at {lam} is not the identity")
            certify(b.splitting == tuple(lam), f"splitting type at {lam}")
    # Iwahori level: t^lam has S = Z/2 x Z/2; t^(mu,mu)s is a single
    # class with trivial stabilizer
    tw = AffineWeylElement.of((1, 2), (0, 1))
    classes = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    certify(len(classes) == 1 and tuple(classes[0].component_group) == (2, 2),
            "t^(1,2) carries one class with S = Z/2 x Z/2")
    pb = loop_to_parabolic_bundle(classes[0].loop_rep, tw, d)
    certify(pb.lines == ((QI(1), QI(0)), (QI(1), QI(0))), "lines of t^(1,2)")
    certify(pb.aut_label == "R* x R*", "automorphisms of t^(1,2)")
    tws = AffineWeylElement.of((1, 1), (1, 0))
    classes = classes_at_tw(d, tws, gc.ETA, build_torus_problem(d, tws.w))
    certify(len(classes) == 1 and tuple(classes[0].component_group) == (),
            "t^(1,1)s carries one class with trivial S")
    x = classes[0].loop_rep
    want = LaurentMatrix.monomial(2, 0, 1, 1) + LaurentMatrix.monomial(2, 1, 0, 1)
    certify(x == want, "x_tw should be the antidiagonal t^mu matrix")
    pb = loop_to_parabolic_bundle(x, tws, d)
    certify(pb.lines == ((QI(1), QI(0)), (QI(0), QI(1))), "lines of t^(1,1)s")
    certify(pb.aut_label == "C*", "automorphisms of t^(1,1)s")


def check_gl2r_twisted(bound: int = 3) -> None:
    """GL_2(R), eps=-1: parity emptiness, representatives, bundles."""
    d = _split(-1)
    for lam in enumerate_admissible(d, bound):
        classes = classify_eta(d, lam)
        if lam[0] != lam[1]:
            if lam[0] % 2 or lam[1] % 2:
                certify(classes == [], f"regular {lam} should be empty")
            else:
                certify(len(classes) == 1, f"{lam} should carry one class")
                certify(tuple(classes[0].component_group) == (2, 2),
                        f"component group at {lam}")
        elif lam[0] % 2:  # odd equal: alternating form, trivial group, c = J
            (cls,) = classes
            certify(tuple(cls.component_group) == (), f"component group at {lam}")
            b = loop_to_bundle(cls.loop_rep, d)
            cj = LaurentMatrix.from_scalars([[0, 1], [-1, 0]])
            certify(b.gluing == cj and b.aut_label == "GL1(H)", f"bundle at {lam}")
        else:
            (cls,) = classes
            certify(tuple(cls.component_group) == (2,), f"component group at {lam}")
    # the antidiagonal representative at (2mu+1, 2mu+1).s has a connected
    # stabilizer and is the only class there
    x = LaurentMatrix.monomial(2, 0, 1, 1) + LaurentMatrix.monomial(2, 1, 0, 1, -1)
    certify(gc.is_anti_fixed_eta(x, d), "antidiagonal t^(1,1)s representative")
    tws = AffineWeylElement.of((1, 1), (1, 0))
    classes = classes_at_tw(d, tws, gc.ETA, build_torus_problem(d, tws.w))
    certify(len(classes) == 1 and tuple(classes[0].component_group) == (),
            "t^(1,1)s carries one class with trivial S")


def check_gl1h(bound: int = 2) -> None:
    """GL_1(H): admissibility and component groups per the table."""
    d = _quat(1)
    for lam in enumerate_admissible(d, bound):
        classes = classify_eta(d, lam)
        if lam[0] != lam[1]:
            certify(classes == [], f"{lam} should be empty")
            continue
        (cls,) = classes
        certify(tuple(cls.component_group) == () and cls.aut_label == "GL1(H)",
                f"class at {lam}")
    dm = _quat(-1)
    seen = 0
    for lam in enumerate_admissible(dm, bound):
        for cls in classify_eta(dm, lam):
            seen += 1
            comp = tuple(cls.component_group)
            aut = cls.aut_label
            if lam[0] == lam[1] and lam[0] % 2 == 0:
                certify(comp == () and aut == "GL1(H)", f"{lam}: {comp}, {aut}")
            elif lam[0] == lam[1]:
                certify(comp == (2,) and aut == "GL2(R)", f"{lam}: {comp}, {aut}")
            else:
                certify(lam[0] % 2 and lam[1] % 2, f"{lam} should be empty")
                certify(comp == (2, 2) and aut == "R* x R*", f"{lam}: {comp}, {aut}")
    certify(seen > 0, "quaternionic_gl at epsilon = -1 has no classes")


def check_u2(bound: int = 2) -> None:
    """U(2) and its pure inner form U(1,1): tables coincide."""
    d = _uni(1)
    zero = classify_eta(d, (0, 0))
    certify(len(zero) == 3 and {c.aut_label for c in zero} == {"U(1,1)", "U(2,0)", "U(0,2)"},
            "U(2) classes at lambda = 0")
    for mu in range(1, bound + 1):
        classes = classify_eta(d, (mu, -mu))
        certify(len(classes) == 1 and tuple(classes[0].component_group) == ()
                and classes[0].aut_label == "{(z,zbar)}", f"U(2) class at {(mu, -mu)}")
    dt = _u11(1)
    for lam in enumerate_admissible(d, bound):
        rows = [(c.label, tuple(c.component_group), c.aut_label)
                for c in classify_eta(d, lam)]
        rows_t = [(c.label, tuple(c.component_group), c.aut_label)
                  for c in classify_eta(dt, lam)]
        certify(rows == rows_t, f"U(2) and U(1,1) tables differ at {lam}")


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
        certify(form.lam == want.lam and form.orbit_class.label == want.orbit_class.label,
                f"tau image at {form.lam}, want {want.lam}")
    # and the four images are pairwise distinct classes
    keys = set()
    for gamma, _ in cases:
        f = canonicalize_theta(
            SeriesMatrix.from_laurent(tau_theta(gamma, d), 12), d)
        keys.add((f.lam, f.orbit_class.label))
    certify(len(keys) == 4, "the four tau images are not distinct classes")


def check_duality(bound: int = 2, samples: int = 20, seed: int = 2026,
                  data: Optional[Sequence[GroupDatum]] = None,
                  level: str = "spherical") -> None:
    """Matched pairs over data (the rank-two catalog by default) at the
    spherical or Iwahori level: labels, component groups, twists."""
    match = match_spherical if level == "spherical" else match_iwahori
    for datum in _catalog() if data is None else data:
        for pair in match(datum, bound):
            th = pair.theta_class
            at = th.lam if level == "spherical" else (th.tw.lam, th.tw.w)
            certify(tuple(th.component_group) == tuple(pair.eta_class.component_group),
                    f"{datum.real_form}: component groups differ at {at}")
            if pair.common_rep is None:
                continue  # twisted data need not share exact representatives
            report = verify_intersection(pair, samples, seed)
            certify(not report["failures"], f"{datum.real_form} at {at}: "
                    f"{report['failures'][:1]}")


def check_invariance(theta_twists: int = 100, eta_twists: int = 50,
                     precision: int = 8, seed: int = 11) -> None:
    """Random twists never move (lambda, label); certificates replay."""
    rng = random.Random(seed)
    data = [_split(1), _split(-1), _quat(-1), _uni(1)]
    reps = [(d, c) for d in data
            for lam in enumerate_admissible(d, 1)
            for c in classify_theta(d, lam)]
    for i in range(theta_twists):
        d, cls = reps[i % len(reps)]
        h = random_arc_element(d.n, precision, rng)
        # the sampled twist is an exact polynomial of degree < precision, so
        # computing with it at extra working precision is free
        hs = SeriesMatrix.from_laurent(h.to_laurent(), precision + 6)
        x = hs * SeriesMatrix.from_laurent(cls.loop_rep, precision + 6) \
            * gc.apply_theta_inv(hs, d)
        form = canonicalize_theta(x, d)
        certify(form.lam == cls.lam and form.orbit_class.label == cls.label,
                f"theta twist moved {cls.lam} {cls.label}")
        lhs = form.certificate * x * gc.apply_theta_inv(form.certificate, d)
        r = form.residual_precision
        certify(lhs.retruncate(r) == SeriesMatrix.from_laurent(form.loop_rep, r),
                "theta certificate replay")
    reps = [(d, c) for d in data
            for lam in enumerate_admissible(d, 1)
            for c in classify_eta(d, lam)]
    for i in range(eta_twists):
        d, cls = reps[i % len(reps)]
        h = random_poly_element(d.n, 3, rng)
        x = h * cls.loop_rep * gc.apply_eta_inv(h, d)
        form = canonicalize_eta(x, d)
        certify(form.lam == cls.lam and form.orbit_class.label == cls.label,
                f"eta twist moved {cls.lam} {cls.label}")
        lhs = form.certificate * x * gc.apply_eta_inv(form.certificate, d)
        certify(lhs == form.loop_rep, "eta certificate replay")


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
                certify(gc.apply_theta(m, d) == gc.apply_eta(m, d),
                        f"{family}, epsilon={eps}, lambda={lam}")


def check_kottwitz(bound: int = 2, hsamples: int = 20, seed: int = 3,
                   data: Optional[Sequence[GroupDatum]] = None) -> None:
    """Kottwitz enumeration matches the eta classification exactly, over
    data (the untwisted rank-two catalog by default)."""
    rng = random.Random(seed)
    if data is None:
        data = [_split(1), _split(-1), _quat(1), _quat(-1), _uni(1), _uni(-1)]
    for datum in data:
        points = enumerate_kottwitz(datum, bound)
        total = sum(len(classify_eta(datum, lam))
                    for lam in enumerate_admissible(datum, bound))
        certify(len(points) == total, f"{datum.real_form}: {len(points)} points, {total} classes")
        labels = []
        for p in points:
            loop = kottwitz_to_loop(p, datum)
            form = canonicalize_eta(loop, datum)
            labels.append((form.lam, form.orbit_class.label))
            for _ in range(hsamples):
                h = _lam_preserving(p.lam, rng)
                q = twist_kottwitz(p, h, datum)
                form2 = canonicalize_eta(kottwitz_to_loop(q, datum), datum)
                certify((form2.lam, form2.orbit_class.label) == labels[-1],
                        f"twist moved {labels[-1]}")
        certify(len(set(labels)) == len(labels), "classes must not collapse")


def _lam_preserving(lam: Tuple[int, ...], rng: random.Random) -> LaurentMatrix:
    """A random constant matrix normalizing the cocharacter t^lam."""
    return LaurentMatrix.block_diag(
        [random_constant_invertible(size, rng) for _, size, _ in blocks_of(lam)])


def check_finite_matsuki() -> None:
    """Borel-level and lambda=0 counts of the constant specialization."""
    fm = finite_matsuki(_split(1))
    certify(len(fm["borel"]) == 2, "two GL2(R)-orbits on GL2/B")
    fmu = finite_matsuki(_uni(1))
    certify(len(fmu["spherical"]) == 3, "three U(2) spherical orbits")
    fmt = finite_matsuki(_u11(1))
    certify(len(fmt["spherical"]) == len(fmu["spherical"])
            and len(fmt["borel"]) == len(fmu["borel"]), "U(1,1) counts differ from U(2)")
    certify(len(finite_matsuki(gc.build_datum("split_gl", 1, 1))["spherical"]) == 1,
            "one GL1(R) spherical orbit")


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
