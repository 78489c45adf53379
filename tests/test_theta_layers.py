"""The theta layer solve over Z[i] against Gauss-Jordan over Q(i).

``canonicalize._layer_conjugators`` builds each layer system once in
Gaussian integers and solves every layer by the fraction-free elimination.
The oracle builds the same system in ``QI`` from the constant response
matrices and solves it with ``field_eliminate``: the conjugators must be
equal entry for entry (so byte for byte), and the oracle must find no
solution exactly when the integer solve refuses.
"""

import random
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from loopmatsuki import group_catalog as gc
from loopmatsuki.canonicalize import _block_index, _layer_conjugators
from loopmatsuki.coweight_orbits import classify_theta, enumerate_admissible
from loopmatsuki.gaussian import QI
from loopmatsuki.laurent import Entry, LaurentMatrix
from loopmatsuki.randgen import random_qi
from test_intlat import field_eliminate

DATA = [(family, n, eps) for family, ns in (("split_gl", (2, 3, 4)), ("unitary", (2, 3, 4)),
                                            ("quaternionic_gl", (2, 4)))
        for n in ns for eps in (1, -1)]


@lru_cache(maxsize=None)
def theta_classes(key):
    """The datum of key and its theta classes at bound 1."""
    datum = gc.build_datum(*key)
    return datum, [c for lam in enumerate_admissible(datum, 1)
                   for c in classify_theta(datum, lam)]


def qi_layer_system(ell, lam, datum, sign):
    """The layer system over Q(i): row (r, s), column (i, j) is the response
    of layer entry (r, s) to y_(i,j), E_ij * ell on the left for lam_i >=
    lam_j and minus sign * ell * w1^-1 d_theta0(E_ij) w1 on the right for
    lam_i <= lam_j."""
    n = ell.n
    w1_inv = datum.w1.inverse()
    unknowns = [(i, j) for i in range(n) for j in range(n)]
    left = [(LaurentMatrix.monomial(n, i, j) * ell).constant_matrix() for i, j in unknowns]
    right = [(ell * w1_inv * gc.d_theta0(LaurentMatrix.monomial(n, i, j), datum)
              * datum.w1).constant_matrix() for i, j in unknowns]
    zero = QI(0)
    return [[(left[u][r][s] if lam[i] >= lam[j] else zero)
             - (QI(sign) * right[u][r][s] if lam[i] <= lam[j] else zero)
             for u, (i, j) in enumerate(unknowns)] for r in range(n) for s in range(n)]


def oracle_conjugator(ell, lam, datum, k, layer):
    n = ell.n
    system = qi_layer_system(ell, lam, datum, datum.epsilon ** k)
    rows, pivots, solve = field_eliminate(system)
    sol = solve([-v for row in layer for v in row])
    if sol is None:
        return None, pivots
    return LaurentMatrix([[Entry.term(k + max(0, lam[i] - lam[j]), sol[i * n + j])
                           for j in range(n)] for i in range(n)]), pivots


def integer_conjugator(ell, lam, datum, k, layer):
    re, im, d = LaurentMatrix.from_scalars(layer).layer_ints(0)
    return _layer_conjugators(ell, lam, datum)(k, re, im, d)


def layer_in_span(ell, lam, datum, k, rng):
    """A layer the system can kill: minus its response to a random y."""
    n = ell.n
    system = qi_layer_system(ell, lam, datum, datum.epsilon ** k)
    y = [random_qi(rng) for _ in range(n * n)]
    flat = [-sum((a * b for a, b in zip(row, y)), QI(0)) for row in system]
    return [flat[r * n:(r + 1) * n] for r in range(n)]


def random_levi(lam, rng):
    """A random Levi matrix for lam's blocks; invertible or not."""
    bidx = _block_index(lam)
    n = len(lam)
    return LaurentMatrix.from_scalars([[random_qi(rng) if bidx[i] == bidx[j] else QI(0)
                                        for j in range(n)] for i in range(n)])


@st.composite
def layer_cases(draw):
    key = draw(st.sampled_from(DATA))
    datum, classes = theta_classes(key)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(1, 4))  # both signs epsilon^k when epsilon = -1
    if draw(st.booleans()):
        # a class representative's Levi part: the system of a real reduction
        cls = draw(st.sampled_from(classes))
        lam, ell = cls.lam, cls.g0
    else:
        lam = tuple(sorted((draw(st.integers(-1, 1)) for _ in range(key[1])), reverse=True))
        ell = random_levi(lam, rng)
    if draw(st.booleans()):
        layer = layer_in_span(ell, lam, datum, k, rng)
    else:
        layer = [[random_qi(rng) for _ in range(key[1])] for _ in range(key[1])]
    return datum, lam, ell, k, layer


def fields(m):
    return [[list(e.int_terms()) for e in row] for row in m.rows]


@settings(max_examples=120, deadline=None)
@given(layer_cases())
def test_integer_layer_solve_is_the_field_solve(case):
    datum, lam, ell, k, layer = case
    want, _ = oracle_conjugator(ell, lam, datum, k, layer)
    got = integer_conjugator(ell, lam, datum, k, layer)
    # the oracle finds no solution exactly when the integer solve refuses
    assert (got is None) == (want is None)
    if want is not None:
        assert got == want and fields(got) == fields(want)


def test_layer_solve_on_every_class_covers_free_columns_and_refusals():
    """Every theta class at bound 1 of every datum, epsilon^k = +1 and -1,
    a killable layer and a random one: free columns occur, refusals occur,
    and the integer solve agrees with the oracle on each."""
    rng = random.Random(7)
    free = refused = 0
    for key in DATA:
        datum, classes = theta_classes(key)
        for cls, k in ((cls, k) for cls in classes for k in (1, 2)):
            lam = cls.lam
            for layer in (layer_in_span(cls.g0, lam, datum, k, rng),
                          [[random_qi(rng) for _ in lam] for _ in lam]):
                want, pivots = oracle_conjugator(cls.g0, lam, datum, k, layer)
                got = integer_conjugator(cls.g0, lam, datum, k, layer)
                assert (got is None) == (want is None)
                assert want is None or fields(got) == fields(want)
                free += len(pivots) < datum.n ** 2
                refused += want is None
    assert free and refused
