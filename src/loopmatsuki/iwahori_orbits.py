"""Iwahori-level orbit data via integer-lattice computations on the torus.

An admissible extended affine Weyl element tw = t^lambda * w (with a fixed
permutation lift) gives a twisted-conjugation problem on the diagonal torus:

  equation   Ad_w(g) * theta0(g) = t_tw * z          (unknown g in the torus)
  action     g  ->  Ad_{w^-1}(h) * g * theta0(h)^-1  (h in the torus)

Writing torus elements multiplicatively, both maps are given by integer
matrices M_eq and M_act on exponent/argument vectors, built from the torus
matrix E of theta0 (GroupDatum.torus), by which eta0 acts too.  They depend
on w alone: one torus problem per Weyl element, shared by both sides and
every central sector, holds them with one certified Smith form each and the
canonicalizer, and lambda enters only through the target t_tw * z.
Everything else is read off the two Smith forms U * M * V = D (Newman,
Integral Matrices, ch. II): over the divisible group the equation is
solvable iff the rows of U_eq at the zero entries of D_eq, the characters
vanishing on the image, kill the target; the rows of U_act at the zero
entries of D_act are the class invariants, and the entries of D_act above 1
give the stabilizer component group.  The class set is the finite quotient
of the solution coset by the action image.

Arguments are exact rationals mod 1, so representatives are roots of unity
(embedded into Q(i) when their order divides 4).  Every denominator the
per-lambda solve meets divides one scale fixed per problem, so the solve
runs on int numerators: the target in quarter turns (z, epsilon and the
arguments of (w * theta0(w))^-1 are all 4th roots of unity), the solution
and torsion offsets over 4 * lcm of the nonzero d_i of D_eq, and the
canonical representative over that times the denominators of the
canonicalizer's rational bases.  Fraction appears only at the label
boundary, in IwahoriClass.g0_args.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import factorial, lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError, certify
from .gaussian import FOURTH_ROOTS, QI
from .group_catalog import (
    ETA, THETA, GroupDatum, Side, base_datum, carry_from_base, check_bound, is_admissible,
    is_anti_fixed, signed_permutation, theta0,
)
from .intlat import (
    as_fractions, eliminate, snf_int, mat_mul, mat_vec, lattice_basis,
    snf_diagonal, transpose,
)
from .laurent import LaurentMatrix

Args = Tuple[Fraction, ...]

_QUARTERS = {v: k for k, v in enumerate(FOURTH_ROOTS)}  # i^k at index k


def qi_quarter(x: QI) -> int:
    """The k in 0..3 with x = i^k: x's argument in quarter turns."""
    if x not in _QUARTERS:
        raise InvalidInputError(f"{x} is not a 4th root of unity")
    return _QUARTERS[x]


def args_to_matrix(nums: Sequence[int], scale: int) -> Optional[LaurentMatrix]:
    """Diagonal root-of-unity matrix for the argument vector nums / scale, or
    None when some entry has order not dividing 4 (outside Q(i))."""
    vals = []
    for a in nums:
        k, r = divmod(4 * a, scale)
        if r:
            return None
        vals.append(FOURTH_ROOTS[k % 4])
    return LaurentMatrix.diag_scalars(vals)


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

    @staticmethod
    def of(lam: Sequence[int], w: Sequence[int]) -> "AffineWeylElement":
        w = tuple(w)
        return AffineWeylElement(tuple(int(x) for x in lam), w, LaurentMatrix.permutation(w))

    def loop(self) -> LaurentMatrix:
        return LaurentMatrix.t_power(list(self.lam)) * self.lift


def _ad_matrix(w: Sequence[int]) -> List[List[int]]:
    """Integer matrix A with p * t^v * p^-1 = t^(A v) for any monomial lift p
    of the permutation w: column k is the unit vector at w[k]."""
    n = len(w)
    return [[1 if w[k] == i else 0 for k in range(n)] for i in range(n)]


def theta0_weyl(datum: GroupDatum, w: Sequence[int]) -> Tuple[int, ...]:
    """Permutation part of theta0 applied to the lift of w."""
    return tuple(i for i, _ in signed_permutation(theta0(LaurentMatrix.permutation(w), datum)))


# the Iwahori walk visits the (2 * bound + 1)^n coweights at each of the n!
# Weyl elements: n = 7 at bound 1, 11,022,480 positions, took 74 s and 2 GB,
# and n = 8 at bound 1 would walk 264,539,520
MAX_IWAHORI_WALK = 2 * 10 ** 7


def check_walk(bound: int, n: int) -> None:
    """Refuse an Iwahori walk of more than MAX_IWAHORI_WALK positions,
    n! * (2 * bound + 1)^n, before anything walks it.  The bound must pass
    check_bound first, so the power is small."""
    if factorial(n) * (2 * bound + 1) ** n > MAX_IWAHORI_WALK:
        raise InvalidInputError(f"bound {bound} at rank {n} walks more than the limit of "
                                f"{MAX_IWAHORI_WALK} Iwahori positions")


def enumerate_admissible_tw(datum: GroupDatum, bound: int) -> List[AffineWeylElement]:
    """The t^lambda * w with |lambda_i| <= bound, theta0(w) = w^-1 in W and
    theta0(lambda) = -w^-1 lambda."""
    check_bound(bound, datum.n)
    check_walk(bound, datum.n)
    out = []
    for w in permutations(range(datum.n)):
        if theta0_weyl(datum, w) != _perm_inverse(w):
            continue
        lift = LaurentMatrix.permutation(w)  # read only, so every lambda of w shares it
        for lam in product(range(-bound, bound + 1), repeat=datum.n):
            if is_admissible(datum, lam, w):
                out.append(AffineWeylElement(lam, w, lift))
    return sorted(out, key=lambda tw: (tw.lam, tw.w))


@dataclass(frozen=True, eq=False)
class TorusProblem:
    """The torus problem at one Weyl element w, shared by both sides and
    every central sector: it depends on (family, n, w) alone and is certified
    when build_torus_problem makes it.  lambda, epsilon and z enter only
    through the target t_tw * z, which classes(tw, datum, side) solves
    through the Smith form of m_eq.  Argument vectors are int numerators:
    targets in quarter turns, solutions and offsets over scale, canonical
    representatives over arg_scale."""

    w: Tuple[int, ...]
    m_eq: List[List[int]]
    m_act: List[List[int]]
    act_characters: List[List[int]]  # characters killing the action image: class invariants
    snf_u: List[List[int]]  # U * m_eq * V = diag(snf_d)
    snf_d: List[int]
    snf_v: List[List[int]]
    scale: int  # 4 * lcm of the nonzero snf_d: every solution is an int vector over it
    offsets: List[List[int]]  # the torsion of the solution coset, over scale
    canon: Callable[[Sequence[int]], Tuple[int, ...]]  # over scale in, arg_scale out
    arg_scale: int
    component_group: Tuple[int, ...]
    base_target: Tuple[int, ...]  # arguments of (w * theta0(w))^-1, in quarter turns

    def classes(self, tw: AffineWeylElement, datum: GroupDatum,
                side: Side) -> List["IwahoriClass"]:
        """The classes of the untwisted datum on side at t^lambda * w: one
        canonical solution of the equation per orbit of the action, sorted
        by arguments; none when the equation is unsolvable."""
        if tw.w != self.w:
            raise InvalidInputError(f"t~w has Weyl part {tw.w}, the problem {self.w}")
        # t_tw * z = eps^lambda * (w * theta0(w))^-1 * z: eps = -1 adds a half turn at odd lambda_i
        sign, zq = 1 - datum.epsilon, qi_quarter(datum.z)
        targ = [(b + zq + sign * (l % 2)) % 4 for b, l in zip(self.base_target, tw.lam)]
        c = []
        for uti, di in zip(mat_vec(self.snf_u, targ), self.snf_d):
            if di == 0:
                # row i of U kills the image of m_eq: the character test
                if uti % 4:
                    return []
                c.append(0)
            else:
                c.append(uti * (self.scale // (4 * di)))  # uti / (4 * di) over scale
        a0 = mat_vec(self.snf_v, c)
        reps = sorted({self.canon([x + o for x, o in zip(a0, off)]) for off in self.offsets})
        scale = self.arg_scale
        out = []
        for args in reps:
            img = mat_vec(self.m_eq, args)
            certify(all((x - t * scale // 4) % scale == 0 for x, t in zip(img, targ)),
                    "a canonical torus representative does not solve the equation")
            g0 = args_to_matrix(args, scale)
            loop = None
            if g0 is not None:
                loop = tw.loop() * g0
                certify(is_anti_fixed(loop, datum, side),
                        f"the representative at lambda={list(tw.lam)}, w={list(tw.w)} is not "
                        f"{side.name}-anti-fixed")
            out.append(IwahoriClass(datum, tw, side.name, tuple(Fraction(a, scale) for a in args),
                                    g0, loop, self.component_group, self))
        return out


def _certified_smith(m: List[List[int]], name: str):
    """(U, diagonal of D, V) for the Smith form U * m * V = D of snf_int,
    certified by multiplying back and checking that D is diagonal."""
    u, d, v = snf_int(m)
    certify(mat_mul(mat_mul(u, m), v) == d
            and not any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j),
            f"the Smith form of {name} does not reproduce it")
    return u, snf_diagonal(d), v


def build_torus_problem(datum: GroupDatum, w: Sequence[int]) -> TorusProblem:
    """The torus problem of datum's family and rank at the Weyl element w.

    The solutions modulo the action are finite when ker M_eq = im M_act over
    Q, which the two certified Smith forms show by rank alone: rank D <=
    rank M for any integer U and V with U * M * V = D, so
    rank D_eq + rank D_act = n gives rank M_eq + rank M_act >= n, while
    M_eq * M_act = 0 puts im M_act inside ker M_eq and gives <= n.  No
    appeal to the unimodularity of U or V is needed.
    """
    w = tuple(w)
    n = datum.n
    e = datum.torus
    a_w = _ad_matrix(w)
    a_winv = _ad_matrix(_perm_inverse(w))
    m_eq = [[a_w[i][j] + e[i][j] for j in range(n)] for i in range(n)]
    m_act = [[a_winv[i][j] - e[i][j] for j in range(n)] for i in range(n)]
    certify(not any(x for row in mat_mul(m_eq, m_act) for x in row),
            "the torus action does not preserve the equation")
    u, snf_d, v = _certified_smith(m_eq, "M_eq")
    u_act, d_act, _ = _certified_smith(m_act, "M_act")
    certify(sum(1 for x in snf_d + d_act if x) == n,
            "equation kernel escapes the action image")
    lift = LaurentMatrix.permutation(w)
    m = (lift * theta0(lift, datum)).inverse()
    const = m.constant_matrix()
    if not m.is_constant() or any(
            not const[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        raise InvalidInputError("w * theta0(w) is not a torus element")
    base_target = tuple(qi_quarter(const[i][i]) for i in range(n))
    scale = 4 * lcm(*(di for di in snf_d if di))
    offsets = [[0] * n]
    for i, di in enumerate(snf_d):
        if di > 1:
            g = [v[j][i] * (scale // di) for j in range(n)]
            offsets = [[x + k * gx for x, gx in zip(off, g)]
                       for off in offsets for k in range(di)]
    act_characters = [row for row, di in zip(u_act, d_act) if di == 0]
    comp = tuple(f for f in d_act if f > 1)
    canon, arg_scale = _canonicalizer(m_act, scale)
    return TorusProblem(w, m_eq, m_act, act_characters, u, snf_d, v, scale, offsets,
                        canon, arg_scale, comp, base_target)


# ---------------------------------------------------------------------------
# solving over the divisible torus, in argument coordinates (Q mod Z)


def _canonicalizer(m_act, scale: int):
    """(canon, arg_scale): canon maps an int argument vector over scale to
    the numerators over arg_scale, each in [0, arg_scale), of its canonical
    representative modulo Z^n + span_Q(columns of m_act).

    The representative is zero at the pivots of the reduced span basis and
    has lattice coordinates in [0, 1) on the image of Z^n in the quotient.
    Both bases are rational; with den the lcm of their denominators, every
    step is an int operation on numerators over arg_scale = scale * den.
    """
    n = len(m_act)
    # reduced rows of m_act^T: they span the column space of m_act, with
    # zeros at every pivot but their own
    rows, pivots, _ = eliminate(transpose(as_fractions(m_act)))
    basis = rows[:len(pivots)]
    # e_k in the quotient: e_k less the basis row pivoting at k, if any
    by_pivot, zero = dict(zip(pivots, basis)), [Fraction(0)] * n
    lat = lattice_basis([[int(i == k) - x for i, x in enumerate(by_pivot.get(k, zero))]
                         for k in range(n)])  # image of Z^n in the quotient space
    den = lcm(*(x.denominator for b in basis + lat for x in b))
    span = [(p, [int(x * den) for x in b]) for p, b in zip(pivots, basis)]
    lat_num = [[int(x * den) for x in b] for b in lat]
    # the quotient lives on the free columns: lattice coordinates of a
    # reduced vector are its free entries times coords / den_c
    free = [j for j in range(n) if j not in pivots]
    solve_lat = eliminate(transpose([[b[j] for j in free] for b in lat]))[2]
    coords = [solve_lat([int(i == j) for i in range(len(free))]) for j in range(len(free))]
    certify(all(c is not None for c in coords), "reduced argument vector outside the lattice span")
    den_c = lcm(*(x.denominator for c in coords for x in c))
    coord_cols = [[int(c[i] * den_c) for c in coords] for i in range(len(lat))]
    arg_scale = scale * den
    floor_den, check = arg_scale * den_c, den * den_c

    def canon(x: Sequence[int]) -> Tuple[int, ...]:
        r = [den * xi for xi in x]
        for p, b in span:
            f = x[p]
            if f:
                r = [ri - f * bi for ri, bi in zip(r, b)]
        cs = [sum(r[j] * cj for j, cj in zip(free, col)) for col in coord_cols]
        certify([check * ri for ri in r]
                == [sum(c * b[i] for c, b in zip(cs, lat_num)) for i in range(n)],
                "reduced argument vector outside the lattice span")
        for c, b in zip(cs, lat_num):
            f = scale * (c // floor_den)
            if f:
                r = [ri - f * bi for ri, bi in zip(r, b)]
        return tuple(ri % arg_scale for ri in r)

    return canon, arg_scale


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
    problem: TorusProblem = field(compare=False, repr=False)

    def contains(self, diag: Sequence[Tuple[int, int]]) -> bool:
        """Whether the exact diagonal torus element, possibly of infinite
        order, whose entries are positive real multiples of re + i*im for
        (re, im) in diag, lies in this class.

        A reduction can land on any diagonal solution in the divisible
        torus; classes are separated by the problem's integer characters
        vanishing on the action image.  Conjugation-twisted actions move a
        character value by positive reals only, so it must be a positive
        real multiple of the i^q the torsion representative's arguments
        give.  Up to a positive real, v^-k is conj(v)^k: all over Z[i].
        """
        for k in self.problem.act_characters:
            want = 4 * sum((ki * a for ki, a in zip(k, self.g0_args)), Fraction(0))
            if want.denominator != 1:
                return False
            re, im = 1, 0
            for ki, (a, b) in zip(k, diag):
                b = b if ki > 0 else -b
                for _ in range(abs(ki)):
                    re, im = re * a - im * b, re * b + im * a
            for _ in range(want.numerator % 4):  # times i^-1
                re, im = im, -re
            if im or re <= 0:
                return False
        return True


def classes_at_tw(datum: GroupDatum, tw: AffineWeylElement, side: Side,
                  problem: TorusProblem) -> List[IwahoriClass]:
    """The classes at one t^lambda * w, from the caller's torus problem at
    its Weyl element (build_torus_problem, or a class's problem)."""
    classes = problem.classes(tw, base_datum(datum, side), side)
    return [carry_from_base(cls, datum) for cls in classes]


def enumerate_iwahori(datum: GroupDatum, bound: int, sides: Sequence[Side] = (THETA, ETA)
                      ) -> Dict[str, List[IwahoriClass]]:
    """For each side, by its name, the classes at every admissible
    t^lambda * w with |lambda_i| <= bound, in (lambda, w) order.  The sides
    share one enumeration and one torus problem per Weyl element."""
    problems = {}
    out = {side.name: [] for side in sides}
    for tw in enumerate_admissible_tw(datum, bound):
        if tw.w not in problems:
            problems[tw.w] = build_torus_problem(datum, tw.w)
        for side in sides:
            out[side.name].extend(classes_at_tw(datum, tw, side, problems[tw.w]))
    return out
