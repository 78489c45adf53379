"""Bundle data and Kottwitz points against the rank-two tables."""

import random

import pytest

import loopmatsuki.group_catalog as gc
from loopmatsuki.bundles_kottwitz import (
    KottwitzPoint,
    enumerate_bundles,
    enumerate_kottwitz,
    kottwitz_to_loop,
    kottwitz_validate,
    loop_to_bundle,
    loop_to_parabolic_bundle,
    twist_kottwitz,
)
from loopmatsuki.canonicalize import canonicalize_eta
from loopmatsuki.coweight_orbits import classify_eta, enumerate_admissible
from loopmatsuki.errors import InvalidInputError
from loopmatsuki.iwahori_orbits import AffineWeylElement, build_torus_problem, classes_at_tw
from loopmatsuki.laurent import LaurentMatrix
from loopmatsuki.randgen import random_constant_invertible
from loopmatsuki.serialize import bundle_to_json


def test_bundle_labels_split_antiholomorphic():
    d = gc.build_datum("split_gl", 2, -1)
    (cls,) = classify_eta(d, next(
        a for a in enumerate_admissible(d, 1) if a == (1, 1)))
    b = loop_to_bundle(cls.loop_rep, d)
    assert b.splitting == (1, 1)
    assert b.aut_label == "GL1(H)"
    (cls,) = classify_eta(d, next(
        a for a in enumerate_admissible(d, 0) if a == (0, 0)))
    b = loop_to_bundle(cls.loop_rep, d)
    assert b.aut_label == "GL2(R)"


def test_parabolic_bundle_lines():
    d = gc.build_datum("split_gl", 2, 1)
    tw = AffineWeylElement.of((1, 1), (1, 0))
    (cls,) = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    b = loop_to_parabolic_bundle(cls.loop_rep, tw, d)
    assert b.lines is not None and b.lines[0] != b.lines[1]
    assert b.aut_label == "C*"
    # the marked lines are part of the bundle's JSON form
    assert bundle_to_json(b)["lines"] == {"l0": ["1", "0"], "linf": ["0", "1"]}
    tw = AffineWeylElement.of((1, 0), (0, 1))
    (cls,) = classes_at_tw(d, tw, gc.ETA, build_torus_problem(d, tw.w))
    b = loop_to_parabolic_bundle(cls.loop_rep, tw, d)
    assert b.lines[0] == b.lines[1]
    assert b.aut_label == "R* x R*"
    assert bundle_to_json(b)["lines"] == {"l0": ["1", "0"], "linf": ["1", "0"]}


def test_enumerate_bundles_matches_classes():
    d = gc.build_datum("quaternionic_gl", 2, -1)
    total = sum(len(classify_eta(d, a)) for a in enumerate_admissible(d, 1))
    assert len(enumerate_bundles(d, 1)) == total


BUNDLE_DATA = ([("split_gl", n) for n in range(1, 5)] + [("quaternionic_gl", 2),
                ("quaternionic_gl", 4)] + [("unitary", n) for n in range(1, 5)])


@pytest.mark.parametrize("family,n", BUNDLE_DATA + [("U(1,1)", 2)])
@pytest.mark.parametrize("eps", [1, -1])
def test_enumerate_bundles_equals_canonicalized_class_loops(family, n, eps):
    # bundles read off the class table equal those canonicalized from the
    # class representatives
    if family == "U(1,1)":
        data = [gc.pure_inner_twist(gc.build_datum("unitary", 2, eps),
                                    gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))]
    else:
        data = [gc.build_datum(family, n, eps, z) for z in (1, -1)]
    for d in data:
        want = [loop_to_bundle(cls.loop_rep, d)
                for adm in enumerate_admissible(d, 2) for cls in classify_eta(d, adm)]
        assert enumerate_bundles(d, 2) == want


def test_kottwitz_enumeration_and_roundtrip():
    for family, eps in [("split_gl", 1), ("split_gl", -1),
                        ("quaternionic_gl", -1), ("unitary", 1)]:
        d = gc.build_datum(family, 2, eps)
        points = enumerate_kottwitz(d, 1)
        total = sum(len(classify_eta(d, a))
                    for a in enumerate_admissible(d, 1))
        assert len(points) == total
        labels = set()
        for p in points:
            assert kottwitz_validate(p, d)
            loop = kottwitz_to_loop(p, d)
            form = canonicalize_eta(loop, d)
            labels.add((form.lam, form.orbit_class.label))
        assert len(labels) == len(points)


def test_kottwitz_twist_invariance():
    d = gc.build_datum("split_gl", 2, -1)
    rng = random.Random(17)
    for p in enumerate_kottwitz(d, 1):
        if p.lam[0] != p.lam[1]:
            continue
        base = canonicalize_eta(kottwitz_to_loop(p, d), d)
        from loopmatsuki.randgen import random_constant_invertible
        h = random_constant_invertible(2, rng)
        q = twist_kottwitz(p, h, d)
        form = canonicalize_eta(kottwitz_to_loop(q, d), d)
        assert (form.lam, form.orbit_class.label) == (
            base.lam, base.orbit_class.label)


@pytest.mark.parametrize("family,eps", [("split_gl", -1), ("unitary", 1)])
def test_kottwitz_of_twisted_data(family, eps):
    # the identities hold at the base datum the transport x -> x * c reaches
    d = gc.pure_inner_twist(gc.build_datum(family, 2, eps),
                            gc.matrix_from_config([["1", "0"], ["0", "-1"]], 2))
    points = enumerate_kottwitz(d, 1)
    assert len(points) == sum(len(classify_eta(d, a)) for a in enumerate_admissible(d, 1))
    rng = random.Random(5)
    labels = set()
    for p in points:
        form = canonicalize_eta(kottwitz_to_loop(p, d), d)
        labels.add((form.lam, form.orbit_class.label))
        if p.lam[0] == p.lam[1]:
            q = twist_kottwitz(p, random_constant_invertible(2, rng), d)
            moved = canonicalize_eta(kottwitz_to_loop(q, d), d)
            assert (moved.lam, moved.orbit_class.label) == (form.lam, form.orbit_class.label)
    assert len(labels) == len(points)


def test_kottwitz_rejects_bad_points():
    d = gc.build_datum("split_gl", 2, -1)
    bad = KottwitzPoint(lam=(1, 0), g=LaurentMatrix.identity(2), z=d.z)
    assert not kottwitz_validate(bad, d)
    with pytest.raises(InvalidInputError):
        kottwitz_to_loop(bad, d)


def test_twist_requires_normalizer():
    d = gc.build_datum("split_gl", 2, 1)
    p = next(q for q in enumerate_kottwitz(d, 1) if q.lam == (1, 0))
    h = LaurentMatrix.from_scalars([[1, 1], [0, 1]])
    with pytest.raises(InvalidInputError):
        twist_kottwitz(p, h, d)
