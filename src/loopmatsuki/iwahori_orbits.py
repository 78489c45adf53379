"""Iwahori-level orbit data via integer-lattice computations on the torus.

An admissible extended affine Weyl element tw = t^lambda * w (with a fixed
permutation lift) gives a twisted-conjugation problem on the diagonal torus:

  equation   Ad_w(g) * theta0(g) = t_tw * z          (unknown g in the torus)
  action     g  ->  Ad_{w^-1}(h) * g * theta0(h)^-1  (h in the torus)

Writing torus elements multiplicatively, both maps are given by integer
matrices M_eq and M_act on exponent/argument vectors.  Over the divisible
group the equation is solvable iff every integer character vanishing on the
image kills the target; the class set is the finite quotient of the solution
coset by the action image, and the stabilizer component group is read off the
Smith normal form of M_act.  Arguments are kept as exact rationals mod 1, so
representatives are roots of unity (embedded into Q(i) when their order
divides 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations, product
from typing import List, Optional, Sequence, Tuple

from .errors import CertificateError, InvalidInputError
from .gaussian import QI
from .group_catalog import (
    GroupDatum, theta0, eta0, is_anti_fixed_theta, is_anti_fixed_eta, base_datum,
)
from .intlat import (
    as_fractions, eliminate, kernel_basis, snf_int, mat_mul, mat_vec,
    integer_left_kernel_basis, lattice_basis, snf_diagonal, transpose,
)
from .laurent import LaurentMatrix

Args = Tuple[Fraction, ...]

_QUARTER_ARGS = {QI(1): Fraction(0), QI(0, 1): Fraction(1, 4),
                 QI(-1): Fraction(1, 2), QI(0, -1): Fraction(3, 4)}
_QUARTER_VALS = {v: k for k, v in _QUARTER_ARGS.items()}


def qi_arg(x: QI) -> Fraction:
    if x not in _QUARTER_ARGS:
        raise InvalidInputError(f"{x} is not a 4th root of unity")
    return _QUARTER_ARGS[x]


def args_to_matrix(args: Sequence[Fraction]) -> Optional[LaurentMatrix]:
    """Diagonal root-of-unity matrix for argument vector, or None when some
    entry has order not dividing 4 (outside Q(i))."""
    vals = []
    for a in args:
        key = Fraction(a) % 1
        if key not in _QUARTER_VALS:
            return None
        vals.append(_QUARTER_VALS[key])
    return LaurentMatrix.diag_scalars(vals)


def perm_matrix(w: Sequence[int]) -> LaurentMatrix:
    n = len(w)
    rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        rows[w[i]][i] = QI(1)
    return LaurentMatrix.from_scalars(rows)


def _perm_inverse(w: Sequence[int]) -> Tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi] = i
    return tuple(inv)


@dataclass(frozen=True)
class AffineWeylElement:
    lam: Tuple[int, ...]
    w: Tuple[int, ...]  # permutation, w[i] = image of index i
    lift: LaurentMatrix
    signs: Tuple[int, ...]

    @staticmethod
    def of(lam: Sequence[int], w: Sequence[int]) -> "AffineWeylElement":
        w = tuple(w)
        return AffineWeylElement(tuple(int(x) for x in lam), w,
                                 perm_matrix(w), (1,) * len(w))

    def loop(self) -> LaurentMatrix:
        return LaurentMatrix.t_power(list(self.lam)) * self.lift


def _ad_matrix(w: Sequence[int]) -> List[List[int]]:
    """Integer matrix A with p * t^v * p^-1 = t^(A v) for any monomial lift p
    of the permutation w: column k is the unit vector at w[k]."""
    n = len(w)
    return [[1 if w[k] == i else 0 for k in range(n)] for i in range(n)]


def _involution_torus_matrix(datum: GroupDatum, side: str) -> List[List[int]]:
    """E with involution(torus element of argument a) having arguments E a.
    The theta path probes t-powers; the eta path probes 4th roots of unity in
    the compact torus."""
    n = datum.n
    cols = []
    if side == "theta":
        for k in range(n):
            e = [0] * n
            e[k] = 1
            img = theta0(LaurentMatrix.t_power(e), datum)
            col = []
            for i in range(n):
                ent = img.entry(i, i)
                col.append(min(ent) if ent else 0)
            cols.append(col)
    else:
        for k in range(n):
            vals = [QI(1)] * n
            vals[k] = QI(0, 1)  # argument 1/4 in coordinate k
            img = eta0(LaurentMatrix.diag_scalars(vals), datum)
            col = []
            for i in range(n):
                a = qi_arg(img.constant_matrix()[i][i])
                c = int(4 * a)
                col.append(c - 4 if c > 1 else c)  # entries lie in {-1,0,1}
            cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def theta0_weyl(datum: GroupDatum, w: Sequence[int]) -> Tuple[int, ...]:
    """Permutation part of theta0 applied to the lift of w."""
    img = theta0(perm_matrix(w), datum)
    const = img.constant_matrix()
    n = datum.n
    out = [0] * n
    for j in range(n):
        hits = [i for i in range(n) if not const[i][j].is_zero()]
        if len(hits) != 1:
            raise CertificateError("certificate failed: theta0 of a permutation "
                                   "lift is not a permutation")
        out[j] = hits[0]
    return tuple(out)


def enumerate_admissible_tw(datum: GroupDatum, bound: int) -> List[AffineWeylElement]:
    """The t^lambda * w with |lambda_i| <= bound, theta0(w) = w^-1 in W and
    theta0(lambda) = -w^-1 lambda."""
    if bound < 0:
        raise InvalidInputError("bound must be nonnegative")
    e = _involution_torus_matrix(datum, "theta")
    out = []
    for w in permutations(range(datum.n)):
        winv = _perm_inverse(w)
        if theta0_weyl(datum, w) != winv:
            continue
        a_winv = _ad_matrix(winv)
        for lam in product(range(-bound, bound + 1), repeat=datum.n):
            if mat_vec(e, lam) == [-x for x in mat_vec(a_winv, lam)]:
                out.append(AffineWeylElement.of(lam, w))
    return sorted(out, key=lambda tw: (tw.lam, tw.w))


def t_tw(tw: AffineWeylElement, datum: GroupDatum) -> List[QI]:
    """t_tw = eps^lambda * (w * theta0(w))^-1, a 4th-root diagonal."""
    m = (tw.lift * theta0(tw.lift, datum)).inverse()
    const = m.constant_matrix()
    n = datum.n
    if not m.is_constant() or any(
            not const[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        raise InvalidInputError("w * theta0(w) is not a torus element")
    eps = datum.epsilon
    out = []
    for i in range(n):
        s = QI(1) if eps == 1 or tw.lam[i] % 2 == 0 else QI(-1)
        out.append(s * const[i][i])
    for x in out:
        qi_arg(x)  # raises if not a 4th root
    return out


@dataclass(frozen=True)
class TorusTwistProblem:
    n: int
    m_eq: Tuple[Tuple[int, ...], ...]
    m_act: Tuple[Tuple[int, ...], ...]
    target: Args


def build_torus_problem(datum: GroupDatum, tw: AffineWeylElement,
                        side: str = "theta") -> TorusTwistProblem:
    e = _involution_torus_matrix(datum, side)
    a_w = _ad_matrix(tw.w)
    a_winv = _ad_matrix(_perm_inverse(tw.w))
    n = datum.n
    m_eq = [[a_w[i][j] + e[i][j] for j in range(n)] for i in range(n)]
    m_act = [[a_winv[i][j] - e[i][j] for j in range(n)] for i in range(n)]
    if any(x for row in mat_mul(m_eq, m_act) for x in row):
        raise CertificateError("certificate failed: the torus action does not "
                               "preserve the equation")
    # solutions modulo the action must form a finite set
    eq_rows, eq_pivots, _ = eliminate(as_fractions(m_eq))
    solve_act = eliminate(as_fractions(m_act))[2]
    for v in kernel_basis(eq_rows, eq_pivots):
        if solve_act(v) is None:
            raise CertificateError("certificate failed: equation kernel escapes "
                                   "the action image")
    zarg = qi_arg(datum.z)
    target = tuple((a + zarg) % 1 for a in (qi_arg(x) for x in t_tw(tw, datum)))
    return TorusTwistProblem(n, tuple(tuple(r) for r in m_eq),
                             tuple(tuple(r) for r in m_act), target)


# ---------------------------------------------------------------------------
# solving over the divisible torus, in argument coordinates (Q mod Z)


def _reduce_mod_span(v: List[Fraction], basis, pivots) -> List[Fraction]:
    v = list(v)
    for b, p in zip(basis, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, b)]
    return v


def _canonicalizer(m_act):
    """Returns a function reducing argument vectors to a canonical
    representative modulo Z^n + span_Q(columns of m_act)."""
    n = len(m_act)
    # reduced rows of m_act^T: they span the column space of m_act, with
    # zeros at every pivot but their own
    rows, pivots, _ = eliminate(transpose(as_fractions(m_act)))
    basis = rows[:len(pivots)]
    proj_ints = []
    for k in range(n):
        e = [Fraction(1) if i == k else Fraction(0) for i in range(n)]
        proj_ints.append(_reduce_mod_span(e, basis, pivots))
    lat = lattice_basis(proj_ints)  # image of Z^n in the quotient space
    solve_lat = eliminate(transpose(lat))[2] if lat else None

    def canon(v: Sequence[Fraction]) -> Args:
        r = _reduce_mod_span([Fraction(x) for x in v], basis, pivots)
        if lat:
            coords = solve_lat(r)
            if coords is None:
                raise CertificateError("certificate failed: reduced argument "
                                       "vector outside the lattice span")
            for c, b in zip(coords, lat):
                f = Fraction(int(c // 1))
                r = [x - f * y for x, y in zip(r, b)]
        return tuple(r)

    return canon


def solve_torus_classes(problem: TorusTwistProblem):
    """Returns (nonempty, classes) with classes a list of
    (argument tuple, component-group invariant factors)."""
    m_eq = [list(r) for r in problem.m_eq]
    m_act = [list(r) for r in problem.m_act]
    targ = [Fraction(x) for x in problem.target]
    for k in integer_left_kernel_basis(m_eq):
        if sum(ki * t for ki, t in zip(k, targ)).denominator != 1:
            return False, []
    u, d, v = snf_int(m_eq)
    n = problem.n
    ut = mat_vec(u, targ)
    c = []
    for i in range(n):
        di = d[i][i]
        if di == 0:
            if ut[i].denominator != 1:
                raise CertificateError("certificate failed: torus equation "
                                       "unsolvable after the character test")
            c.append(Fraction(0))
        else:
            c.append(Fraction(ut[i], 1) / di)
    a0 = mat_vec(v, c)

    gens = []
    orders = []
    for i in range(n):
        di = d[i][i]
        if di > 1:
            gens.append([Fraction(v[j][i], di) for j in range(n)])
            orders.append(di)

    canon = _canonicalizer(m_act)
    comp = tuple(f for f in snf_diagonal(snf_int(m_act)[1]) if f > 1)
    seen = {}
    for combo in product(*(range(o) for o in orders)):
        vec = list(a0)
        for m, g in zip(combo, gens):
            vec = [x + m * gx for x, gx in zip(vec, g)]
        key = canon(vec)
        if key not in seen:
            seen[key] = (tuple(x % 1 for x in key), comp)
    classes = sorted(seen.values(), key=lambda t: t[0])
    # canonical representatives still solve the equation
    for args, _ in classes:
        img = mat_vec(m_eq, list(args))
        if any((x - t).denominator != 1 for x, t in zip(img, targ)):
            raise CertificateError("certificate failed: a canonical torus "
                                   "representative does not solve the equation")
    return True, classes


def same_torus_class(problem: TorusTwistProblem, a: Sequence[Fraction],
                     b: Sequence[Fraction]) -> bool:
    """Whether two solutions differ by Z^n + the rational action image."""
    diff = [Fraction(x) - Fraction(y) for x, y in zip(a, b)]
    for k in integer_left_kernel_basis([list(r) for r in problem.m_act]):
        if sum(ki * x for ki, x in zip(k, diff)).denominator != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# classes


@dataclass(frozen=True)
class IwahoriClass:
    datum: GroupDatum
    tw: AffineWeylElement
    side: str
    g0_args: Args
    g0: Optional[LaurentMatrix]
    loop_rep: Optional[LaurentMatrix]
    component_group: Tuple[int, ...]
    spherical_parent: Tuple[int, ...]


def _check_anti_fixed(loop: LaurentMatrix, datum: GroupDatum,
                      tw: AffineWeylElement, side: str) -> None:
    is_anti_fixed = is_anti_fixed_eta if side == "eta" else is_anti_fixed_theta
    if not is_anti_fixed(loop, datum):
        raise CertificateError(
            f"certificate failed: the representative at lambda={list(tw.lam)}, "
            f"w={list(tw.w)} is not {side}-anti-fixed")


def classes_at_tw(datum: GroupDatum, tw: AffineWeylElement,
                  side: str = "theta") -> List[IwahoriClass]:
    if datum.twist is not None:
        # transport x -> x * c^-1 between the base anti-fixed set at the
        # matching z-sector and the twisted one; class labels are shared
        cinv = datum.twist.inverse()
        out = []
        for cls in classes_at_tw(base_datum(datum, side), tw, side):
            g0 = loop = None
            if cls.g0 is not None:
                g0 = cls.g0 * cinv
                loop = tw.loop() * g0
                _check_anti_fixed(loop, datum, tw, side)
            out.append(replace(cls, datum=datum, g0=g0, loop_rep=loop))
        return out
    problem = build_torus_problem(datum, tw, side)
    nonempty, classes = solve_torus_classes(problem)
    out = []
    parent = tuple(sorted(tw.lam, reverse=True))
    for args, comp in classes:
        g0 = args_to_matrix(args)
        loop = None
        if g0 is not None:
            loop = tw.loop() * g0
            _check_anti_fixed(loop, datum, tw, side)
        out.append(IwahoriClass(datum, tw, side, args, g0, loop, comp, parent))
    return out


def enumerate_iwahori(datum: GroupDatum, bound: int, side: str = "theta") -> List[IwahoriClass]:
    out = []
    for tw in enumerate_admissible_tw(datum, bound):
        out.extend(classes_at_tw(datum, tw, side))
    return out


def spherical_projection(cls: IwahoriClass):
    """The spherical class at the dominant sort of lambda carrying the same
    form invariant as the Iwahori representative."""
    from .coweight_orbits import classify_theta, classify_eta
    datum = cls.datum
    lam_dom = list(cls.spherical_parent)
    classify = classify_theta if cls.side == "theta" else classify_eta
    spherical = classify(datum, lam_dom)
    if not spherical:
        raise InvalidInputError("no spherical class above this Iwahori class")
    if datum.family != "unitary":
        if len(spherical) != 1:
            raise CertificateError("certificate failed: more than one spherical "
                                   "class above an Iwahori class")
        return spherical[0]
    if cls.g0 is None:
        raise InvalidInputError("representative lies outside Q(i)")
    # sort lambda dominantly by a twisted conjugation with a permutation
    # (theta0 = id for this family), then read the middle-block involution
    order = sorted(range(datum.n), key=lambda i: -cls.tw.lam[i])
    p = perm_matrix(_perm_inverse(order))
    cmat = p * (cls.tw.lift * cls.g0) * p.inverse()
    g0p = cmat * datum.w1
    zero_idx = [i for i, x in enumerate(lam_dom) if x == 0]
    m = len(zero_idx)
    const = g0p.constant_matrix()
    # middle-block involution M = R * B; its trace gives the multiplicity pair
    block = [[const[zero_idx[a]][zero_idx[b]] for b in range(m)] for a in range(m)]
    tr = QI(0)
    for a in range(m):
        tr = tr + block[m - 1 - a][a]
    if not (tr.is_real() and tr.re.denominator == 1):
        raise CertificateError("certificate failed: the middle-block involution "
                               "has a trace outside Z")
    pcount = (m + int(tr.re)) // 2
    label = f"({pcount},{m - pcount})"
    for s in spherical:
        if s.label == label:
            return s
    raise InvalidInputError(f"no spherical class with label {label}")
