"""Iwahori-level orbit data via integer-lattice computations on the torus.

An admissible extended affine Weyl element tw = t^lambda * w (with a fixed
permutation lift) gives a twisted-conjugation problem on the diagonal torus:

  equation   Ad_w(g) * theta0(g) = t_tw * z          (unknown g in the torus)
  action     g  ->  Ad_{w^-1}(h) * g * theta0(h)^-1  (h in the torus)

Writing torus elements multiplicatively, both maps are given by integer
matrices M_eq and M_act on exponent/argument vectors; eta0 acts on the torus
by the same matrix as theta0.  They depend on w alone: one torus problem per
Weyl element, shared by both sides and every central sector, holds them with
one certified Smith form each and the canonicalizer, and lambda enters only
through the target t_tw * z.  Everything else is read off the two Smith
forms U * M * V = D (Newman, Integral Matrices, ch. II): over the divisible
group the equation is solvable iff the rows of U_eq at the zero entries of
D_eq, the characters vanishing on the image, kill the target; the rows of
U_act at the zero entries of D_act are the class invariants, and the entries
of D_act above 1 give the stabilizer component group.  The class set is the
finite quotient of the solution coset by the action image.  Arguments are
kept as exact rationals mod 1, so representatives are roots of unity
(embedded into Q(i) when their order divides 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CertificateError, InvalidInputError, certify
from .gaussian import QI
from .group_catalog import GroupDatum, theta0, is_anti_fixed, base_datum
from .intlat import (
    as_fractions, eliminate, snf_int, mat_mul, mat_vec, lattice_basis,
    snf_diagonal, transpose,
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

    @staticmethod
    def of(lam: Sequence[int], w: Sequence[int]) -> "AffineWeylElement":
        w = tuple(w)
        return AffineWeylElement(tuple(int(x) for x in lam), w, perm_matrix(w))

    def loop(self) -> LaurentMatrix:
        return LaurentMatrix.t_power(list(self.lam)) * self.lift


def _ad_matrix(w: Sequence[int]) -> List[List[int]]:
    """Integer matrix A with p * t^v * p^-1 = t^(A v) for any monomial lift p
    of the permutation w: column k is the unit vector at w[k]."""
    n = len(w)
    return [[1 if w[k] == i else 0 for k in range(n)] for i in range(n)]


def _involution_torus_matrix(datum: GroupDatum) -> List[List[int]]:
    """E with theta0(torus element of argument a) having arguments E a, read
    off theta0 on t-powers.  It serves eta0 too: eta0 = theta0 o eta_{c,0},
    and eta_{c,0} fixes the compact torus, so eta0 and theta0 agree there."""
    n = datum.n
    cols = []
    for k in range(n):
        e = [0] * n
        e[k] = 1
        img = theta0(LaurentMatrix.t_power(e), datum)
        col = []
        for i in range(n):
            ent = img.entry(i, i)
            col.append(min(ent) if ent else 0)
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
    e = _involution_torus_matrix(datum)
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


@dataclass(frozen=True, eq=False)
class TorusProblem:
    """The torus problem at one Weyl element w, shared by both sides and
    every central sector: it depends on (family, n, w) alone and is certified
    when build_torus_problem makes it.  lambda, epsilon and z enter only
    through the target t_tw * z, which classes(tw, datum, side) solves
    through the Smith form of m_eq."""

    w: Tuple[int, ...]
    m_eq: List[List[int]]
    m_act: List[List[int]]
    act_characters: List[List[int]]  # characters killing the action image: class invariants
    snf_u: List[List[int]]  # U * m_eq * V = diag(snf_d)
    snf_d: List[int]
    snf_v: List[List[int]]
    offsets: List[List[Fraction]]  # the torsion of the solution coset
    canon: Callable[[Sequence[Fraction]], Args]
    component_group: Tuple[int, ...]
    base_target: Tuple[Fraction, ...]  # arguments of (w * theta0(w))^-1

    def classes(self, tw: AffineWeylElement, datum: GroupDatum,
                side: str) -> List["IwahoriClass"]:
        """The classes of the untwisted datum on side at t^lambda * w: one
        canonical solution of the equation per orbit of the action, sorted
        by arguments; none when the equation is unsolvable."""
        if tw.w != self.w:
            raise InvalidInputError(f"t~w has Weyl part {tw.w}, the problem {self.w}")
        # t_tw * z = eps^lambda * (w * theta0(w))^-1 * z: eps = -1 adds 1/2 at odd lambda_i
        sign_arg, zarg = Fraction(1 - datum.epsilon, 4), qi_arg(datum.z)
        targ = [(b + zarg + sign_arg * (l % 2)) % 1 for b, l in zip(self.base_target, tw.lam)]
        c = []
        for uti, di in zip(mat_vec(self.snf_u, targ), self.snf_d):
            if di == 0:
                # row i of U kills the image of m_eq: the character test
                if uti.denominator != 1:
                    return []
                c.append(Fraction(0))
            else:
                c.append(uti / di)
        a0 = mat_vec(self.snf_v, c)
        seen = {}
        for off in self.offsets:
            key = self.canon([x + o for x, o in zip(a0, off)])
            if key not in seen:
                seen[key] = tuple(x % 1 for x in key)
        out = []
        for args in sorted(seen.values()):
            img = mat_vec(self.m_eq, list(args))
            certify(all((x - t).denominator == 1 for x, t in zip(img, targ)),
                    "a canonical torus representative does not solve the equation")
            g0 = args_to_matrix(args)
            loop = None
            if g0 is not None:
                loop = tw.loop() * g0
                _check_anti_fixed(loop, datum, tw, side)
            out.append(IwahoriClass(datum, tw, side, args, g0, loop,
                                    self.component_group, self))
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
    e = _involution_torus_matrix(datum)
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
    lift = perm_matrix(w)
    m = (lift * theta0(lift, datum)).inverse()
    const = m.constant_matrix()
    if not m.is_constant() or any(
            not const[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        raise InvalidInputError("w * theta0(w) is not a torus element")
    base_target = tuple(qi_arg(const[i][i]) for i in range(n))
    offsets = [[Fraction(0)] * n]
    for i, di in enumerate(snf_d):
        if di > 1:
            g = [Fraction(v[j][i], di) for j in range(n)]
            offsets = [[x + k * gx for x, gx in zip(off, g)]
                       for off in offsets for k in range(di)]
    act_characters = [row for row, di in zip(u_act, d_act) if di == 0]
    comp = tuple(f for f in d_act if f > 1)
    return TorusProblem(w, m_eq, m_act, act_characters, u, snf_d, v, offsets,
                        _canonicalizer(m_act), comp, base_target)


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
            certify(coords is not None, "reduced argument vector outside the lattice span")
            for c, b in zip(coords, lat):
                f = Fraction(int(c // 1))
                r = [x - f * y for x, y in zip(r, b)]
        return tuple(r)

    return canon


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

    def contains(self, diag: Sequence[QI]) -> bool:
        """Whether the exact diagonal torus element diag, possibly of
        infinite order, lies in this class.

        A reduction can land on any diagonal solution in the divisible
        torus; classes are separated by the problem's integer characters
        vanishing on the action image, evaluated multiplicatively on diag
        and by argument arithmetic on the torsion representative.
        """
        for k in self.problem.act_characters:
            val = QI(1)
            for ki, v in zip(k, diag):
                if ki:
                    val = val * v ** ki
            want = sum((ki * a for ki, a in zip(k, self.g0_args)), Fraction(0)) % 1
            root = _QUARTER_VALS.get(want)
            if root is None:
                return False
            # conjugation-twisted actions move character values by positive
            # reals only, which never mixes the quarter-root fibres
            q = val / root
            if not q.is_real() or q.re <= 0:
                return False
        return True


def _check_anti_fixed(loop: LaurentMatrix, datum: GroupDatum,
                      tw: AffineWeylElement, side: str) -> None:
    certify(is_anti_fixed(loop, datum, side),
            f"the representative at lambda={list(tw.lam)}, w={list(tw.w)} is not "
            f"{side}-anti-fixed")


def transport_iwahori_class(cls: IwahoriClass, datum: GroupDatum) -> IwahoriClass:
    """A class of base_datum(datum, cls.side) as a class of the twisted datum:
    x -> x * c^-1 carries the base anti-fixed set at the matching z-sector to
    the twisted one, and class labels, arguments and the torus problem are
    shared.  The transported representative is certified anti-fixed."""
    g0 = loop = None
    if cls.g0 is not None:
        g0 = cls.g0 * datum.twist.inverse()
        loop = cls.tw.loop() * g0
        _check_anti_fixed(loop, datum, cls.tw, cls.side)
    return replace(cls, datum=datum, g0=g0, loop_rep=loop)


def classes_at_tw(datum: GroupDatum, tw: AffineWeylElement,
                  side: str) -> List[IwahoriClass]:
    """The classes at one t^lambda * w, from a torus problem of its own."""
    base = base_datum(datum, side)
    classes = build_torus_problem(datum, tw.w).classes(tw, base, side)
    return classes if base is datum else [transport_iwahori_class(cls, datum) for cls in classes]


def enumerate_iwahori(datum: GroupDatum, bound: int, sides: Sequence[str] = ("theta", "eta")
                      ) -> Dict[str, List[IwahoriClass]]:
    """For each side, the classes at every admissible t^lambda * w with
    |lambda_i| <= bound, in (lambda, w) order.  The sides share one
    enumeration and one torus problem per Weyl element."""
    bases = {side: base_datum(datum, side) for side in sides}
    problems = {}
    out = {side: [] for side in sides}
    for tw in enumerate_admissible_tw(datum, bound):
        if tw.w not in problems:
            problems[tw.w] = build_torus_problem(datum, tw.w)
        for side, base in bases.items():
            for cls in problems[tw.w].classes(tw, base, side):
                out[side].append(cls if base is datum else transport_iwahori_class(cls, datum))
    return out
