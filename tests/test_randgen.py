"""Seeded generators: determinism and exact group membership."""

import random
from itertools import product

import loopmatsuki.group_catalog as gc
from loopmatsuki.exact_algebra import conj_transpose
from loopmatsuki.gaussian import QI
from loopmatsuki.laurent import LaurentMatrix
from loopmatsuki.randgen import (
    random_arc_element,
    random_compact,
    random_compact_symmetric,
    random_constant_invertible,
    random_poly_element,
    random_signed_permutation,
)


def test_seeded_determinism():
    a = random_poly_element(3, 2, random.Random(7))
    b = random_poly_element(3, 2, random.Random(7))
    assert a == b
    s = random_arc_element(2, 5, random.Random(3))
    t = random_arc_element(2, 5, random.Random(3))
    assert s == t


def test_constant_invertible():
    rng = random.Random(1)
    for _ in range(20):
        m = random_constant_invertible(3, rng)
        assert m.is_constant()
        assert m * m.inverse() == LaurentMatrix.identity(3)


def as_dict(e):
    """The entry's nonzero terms as a dict exponent -> QI."""
    return {k: e.coeff(k) for k, *_ in e.int_terms()}


def test_poly_element_unit():
    rng = random.Random(2)
    for _ in range(10):
        m = random_poly_element(2, 3, rng)
        # determinant is a nonzero constant, so the inverse is polynomial too
        assert list(as_dict(m.det())) == [0]
        assert m * m.inverse() == LaurentMatrix.identity(2)
        assert m.val() >= 0


def test_arc_elements():
    rng = random.Random(4)
    for _ in range(5):
        s = random_arc_element(2, 6, rng)
        assert s.precision == 6
        prod = s * s.inverse()
        for i in range(2):
            for j in range(2):
                want = QI(1) if i == j else QI(0)
                assert prod.coeff(i, j, 0) == want


def test_signed_permutation():
    rng = random.Random(5)
    for _ in range(20):
        m = random_signed_permutation(3, rng)
        assert m * conj_transpose(m) == LaurentMatrix.identity(3)
        nonzero = sum(1 for i in range(3) for j in range(3)
                      if m.entry(i, j))
        assert nonzero == 3


def test_compact_is_unitary():
    rng = random.Random(6)
    for _ in range(10):
        k = random_compact(3, rng)
        assert k * conj_transpose(k) == LaurentMatrix.identity(3)


def test_compact_symmetric_membership():
    """K_c = U(n)^theta0: every draw is unitary and theta0-fixed, and some
    draw is not I unless Lie(K_c) = 0, which happens for O(1) alone."""
    u11 = [["1", "0"], ["0", "-1"]]
    cases = ([("split_gl", n) for n in (1, 2, 3, 4)] + [("quaternionic_gl", n) for n in (2, 4, 6)]
             + [("unitary", n) for n in (1, 2, 3, 4)] + [("unitary", "U(1,1)")])
    rng = random.Random(8)
    for (family, n), eps in product(cases, (1, -1)):
        cfg = {"family": family, "n": n, "epsilon": eps}
        if n == "U(1,1)":
            cfg.update(n=2, inner_twist=u11)
        d = gc.datum_from_config(cfg)
        ks = [random_compact_symmetric(d, rng) for _ in range(3)]
        ident = LaurentMatrix.identity(d.n)
        for k in ks:
            assert k * conj_transpose(k) == ident
            assert gc.theta0(k, d) == k
        assert any(k != ident for k in ks) == ((family, n) != ("split_gl", 1))
