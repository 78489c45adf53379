"""Catalog of supported group data and the loop-level involutions theta, eta.

Three matrix families are supported, each presented on GL_n over the Gaussian
rationals:

  split_gl         theta0(g) = transpose(g)^-1,      eta0(g) = conj(g)
  quaternionic_gl  theta0(g) = J transpose(g)^-1 J^-1, eta0(g) = J conj(g) J^-1
                   (n even, J the standard skew block matrix)
  unitary          theta0(g) = g,                    eta0(g) = transpose(conj(g))^-1

In every family the compact involution is eta_{c,0}(g) = transpose(conj(g))^-1,
so the compact form is U(n), and eta0 = theta0 o eta_{c,0}.  Loop involutions are

  theta(gamma)(t) = theta0(gamma(epsilon t))
  eta(gamma)(t)   = eta0(gamma(epsilon t^-1))   (coefficientwise conjugation)

The two sides differ only in table data, so each is one frozen Side value,
THETA or ETA: its name (what classes and forms carry and JSON writes),
whether it reflects t -> epsilon/t with conjugated coefficients (exact
Laurent input only), and the families whose sigma0 is the inverse
transpose.  involution reads that table and the J conjugation for both the
loop involutions and their constant case theta0, eta0.  Where sigma holds
the inverse transpose, sigma(gamma)^-1 takes no inverse, so is_anti_fixed
tests gamma * sigma(gamma) = z as gamma = z * sigma(gamma)^-1.

A datum may carry a pure inner twist c, a constant matrix with both
c*theta0(c) and c*eta0(c) scalar; both loop involutions are then conjugated
by c (e.g. U(2) -> U(1,1) with c = diag(1,-1)).  theta0 and eta0 stay the
base datum's constant involutions: only the loop involutions and the
transports see the twist.  This module alone relates a twisted datum to its
base: x -> x * c (transport_to_base) carries its anti-fixed loops to those
of base_datum(datum, side), the untwisted datum at the matching central
sector, where tables and canonical forms are computed, and carry_from_base
carries those classes and forms back by x -> x * c^-1 (transport_from_base).
pure_inner_twist builds both base data once, with the twist.  Other modules
ask base_datum(datum, side) is not datum, never for c itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidInputError, UnsupportedFamilyError, certify
from .gaussian import QI, ONE, MINUS_ONE, qi_from_str
from .laurent import ONE_ENTRY, LaurentMatrix

SPLIT_GL = "split_gl"
QUATERNIONIC_GL = "quaternionic_gl"
UNITARY = "unitary"
FAMILIES = (SPLIT_GL, QUATERNIONIC_GL, UNITARY)
# build_datum makes n x n matrices at once: rank 1000 takes tens of seconds
MAX_CONFIG_RANK = 256
# the admissible enumerations walk every lambda with |lambda_i| <= bound, a
# box of (2 * bound + 1)^n points (per Weyl element at the Iwahori level):
# 10^4 admits bound 49 at n = 2, bound 4 at n = 4 and bound 1 up to n = 8
MAX_COWEIGHT_BOX = 10 ** 4


def check_bound(bound: int, n: int) -> None:
    """Refuse a coweight bound whose box is negative or past MAX_COWEIGHT_BOX,
    before anything walks it."""
    if bound < 0:
        raise InvalidInputError("bound must be nonnegative")
    width = 2 * bound + 1
    if width > MAX_COWEIGHT_BOX or width ** n > MAX_COWEIGHT_BOX:
        raise InvalidInputError(f"bound {bound} at rank {n} spans more than the limit of "
                                f"{MAX_COWEIGHT_BOX} coweights")


def j_matrix(n: int) -> LaurentMatrix:
    """Block-diagonal matrix of 2x2 blocks [[0,1],[-1,0]]; requires n even."""
    return LaurentMatrix.permutation([i ^ 1 for i in range(n)], [(-1) ** (i + 1) for i in range(n)])


@dataclass(frozen=True)
class GroupDatum:
    family: str
    n: int
    epsilon: int
    z: QI
    w1: LaurentMatrix
    real_form: str
    twist: Optional[LaurentMatrix] = None  # inner twist c, or None
    torus: Tuple[Tuple[int, ...], ...] = ()  # rows of E, theta0(t^v) = t^(E v); build_datum sets it
    # base_datum by side name, built once by pure_inner_twist; empty when untwisted
    bases: Dict[str, "GroupDatum"] = field(default_factory=dict, compare=False, repr=False)


def build_datum(family: str, n: int, epsilon: int, z: QI | int = 1) -> GroupDatum:
    if family not in FAMILIES:
        raise UnsupportedFamilyError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n < 1:
        raise InvalidInputError("rank must be positive")
    if family == QUATERNIONIC_GL and n % 2 != 0:
        raise UnsupportedFamilyError("quaternionic_gl requires even rank")
    if epsilon not in (1, -1):
        raise InvalidInputError("epsilon must be +1 or -1")
    zq = QI.of(z) if not isinstance(z, QI) else z
    if (zq ** 4) != ONE:
        raise InvalidInputError("central twist z must be a 4th root of unity")

    if family == SPLIT_GL:
        w1, real = LaurentMatrix.identity(n), f"GL{n}(R)"
    elif family == QUATERNIONIC_GL:
        w1, real = j_matrix(n), f"GL{n // 2}(H)"
    else:
        w1, real = LaurentMatrix.permutation(range(n - 1, -1, -1)), f"U({n})"
    datum = GroupDatum(family, n, epsilon, zq, w1, real)
    return replace(datum, torus=_torus_matrix(datum))


def _torus_matrix(datum: GroupDatum) -> Tuple[Tuple[int, ...], ...]:
    """The rows of E with theta0(t^v) = t^(E v), read off theta0 on the
    t-powers t^(e_k) and certified to be exactly t^(E e_k).  E serves eta0
    too: eta0 = theta0 o eta_{c,0}, and eta_{c,0} fixes the compact torus,
    so eta0 and theta0 agree there."""
    n = datum.n
    cols = []
    for k in range(n):
        img = theta0(LaurentMatrix.t_power([int(i == k) for i in range(n)]), datum)
        cols.append([img.entry(i, i).val() or 0 for i in range(n)])
        certify(img == LaurentMatrix.t_power(cols[-1]),
                "theta0 of a torus t-power is not a t-power")
    return tuple(zip(*cols))


def signed_permutation(w: LaurentMatrix) -> List[Tuple[int, bool]]:
    """For each column of w, (i, negated): the column's one entry sits in
    row i and is -1 if negated, else 1.  Certifies that w, a Weyl lift such
    as w1 or theta0 of a permutation matrix, is a signed permutation matrix."""
    src = {}
    for i, r in enumerate(w.rows):
        hits = [(j, e) for j, e in enumerate(r) if e]
        certify(len(hits) == 1 and hits[0][1] in (ONE_ENTRY, -ONE_ENTRY)
                and hits[0][0] not in src, "a Weyl lift is not a signed permutation matrix")
        src[hits[0][0]] = (i, hits[0][1] != ONE_ENTRY)
    return [src[j] for j in range(w.n)]


def is_admissible(datum: GroupDatum, lam: Sequence[int], w: Sequence[int]) -> bool:
    """theta0(lambda) = -w^-1 lambda on the cocharacter lattice, read off
    the torus matrix: (E lambda)_i = -lambda_(w[i]) for the permutation w
    (w[i] the image of i).  The spherical level asks it at w1's permutation,
    the Iwahori level at the Weyl part of t^lambda * w."""
    return len(lam) == len(datum.torus) and all(
        sum(e * x for e, x in zip(row, lam)) == -lam[wi] for row, wi in zip(datum.torus, w))


def datum_from_config(cfg: dict) -> GroupDatum:
    """Build a datum from the JSON configuration dictionary; a malformed
    one raises InvalidInputError."""
    try:
        family = cfg["family"]
        n = int(cfg["n"])
        epsilon = int(cfg["epsilon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad datum config: {exc}") from exc
    if n > MAX_CONFIG_RANK:
        raise InvalidInputError(f"rank {n} is above the limit {MAX_CONFIG_RANK}")
    z: QI | int = 1
    if cfg.get("z") is not None:
        z = _config_scalar(cfg["z"], "z")
    datum = build_datum(family, n, epsilon, z)
    if cfg.get("inner_twist") is not None:
        g = matrix_from_config(cfg["inner_twist"], n)
        datum = pure_inner_twist(datum, g)
    return datum


def matrix_from_config(rows: Sequence[Sequence], n: int) -> LaurentMatrix:
    if (not isinstance(rows, (list, tuple)) or len(rows) != n
            or any(not isinstance(r, (list, tuple)) or len(r) != n for r in rows)):
        raise InvalidInputError(f"matrix must be {n}x{n}")
    return LaurentMatrix.from_scalars(
        [[_config_scalar(x, "matrix entry") for x in r] for r in rows])


def _config_scalar(x, what: str) -> QI:
    """A Gaussian rational given as a string, a number, or an object of
    integer parts {num_re, den_re, num_im, den_im}."""
    try:
        if isinstance(x, QI):
            return x
        if isinstance(x, str):
            return qi_from_str(x)
        if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
            return QI(Fraction(x))
        if isinstance(x, dict):
            nr, dr, ni, di = (x.get(k, default) for k, default in (
                ("num_re", 0), ("den_re", 1), ("num_im", 0), ("den_im", 1)))
            if all(type(p) is int for p in (nr, dr, ni, di)):
                return QI(Fraction(nr, dr), Fraction(ni, di))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"bad {what} {x!r}: {exc}") from None
    raise InvalidInputError(f"{what} must be a Gaussian rational string, a number "
                            f"or an object of integer parts, got {x!r}")


# ---------------------------------------------------------------------------
# involutions


@dataclass(frozen=True)
class Side:
    """One loop involution as table data: sigma(gamma) = Ad_c Ad_M f(gamma(s(t))),
    s the t-substitution, M = J on quaternionic_gl, c the inner twist, f the
    inverse transpose on the inverse_transpose families, else the identity.
    Its constant case sigma0 = Ad_M f has neither s nor c."""

    name: str  # "theta" | "eta": what classes and forms carry and JSON writes
    reflect: bool  # s is t -> epsilon/t, conjugated (else epsilon*t): exact Laurent input only
    inverse_transpose: Tuple[str, ...]


THETA = Side("theta", False, (SPLIT_GL, QUATERNIONIC_GL))
ETA = Side("eta", True, (UNITARY,))
SIDES = {side.name: side for side in (THETA, ETA)}  # by the name classes carry


def involution(gamma, datum: GroupDatum, side: Side, invert: bool, gamma_inv,
               constant: bool = False):
    """The involution of side: sigma(gamma), or sigma(gamma)^-1 =
    sigma(gamma^-1) when invert is set; the constant sigma0 (no
    t-substitution, no inner twist) in place of sigma when constant is set.

    An inverse is taken only when f and invert do not cancel: so never for
    sigma(gamma)^-1 on an inverse-transpose family, and from gamma_inv,
    when given, on the others.
    """
    if side.reflect and not isinstance(gamma, LaurentMatrix):
        raise InvalidInputError(f"{side.name} requires an exact Laurent matrix")
    transpose = datum.family in side.inverse_transpose
    g = gamma
    if invert != transpose:
        g = gamma_inv if gamma_inv is not None else gamma.inverse()
    if not constant:
        g = g.substitute(ONE if datum.epsilon == 1 else MINUS_ONE,
                         invert=side.reflect, conj=side.reflect)
    elif side.reflect:
        g = g.substitute(ONE, invert=False, conj=True)
    if transpose:
        g = g.transpose()
    # the constants below have valuation 0, so a series g keeps its precision
    if datum.family == QUATERNIONIC_GL:
        j = datum.w1  # build_datum sets w1 = J here, and inner twists keep it
        g = j * g * -j  # J^-1 = -J
    if datum.twist is not None and not constant:
        g = datum.twist * g * datum.twist.inverse()
    return g


def theta0(m: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """The base datum's constant symmetric-subgroup involution (no inner twist)."""
    return involution(m, datum, THETA, False, None, constant=True)


def eta0(m: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """The base datum's constant real-form involution (no inner twist)."""
    return involution(m, datum, ETA, False, None, constant=True)


def apply_theta(gamma, datum: GroupDatum):
    """theta(gamma)(t) = theta0(gamma(epsilon t)), conjugated by the inner
    twist when one is present.  Accepts LaurentMatrix or SeriesMatrix
    (precision is tracked by the series arithmetic)."""
    return involution(gamma, datum, THETA, False, None)


def apply_theta_inv(gamma, datum: GroupDatum, gamma_inv=None):
    """theta(gamma)^-1 = theta(gamma^-1).  No inverse is taken on split_gl
    and quaternionic_gl; on unitary, gamma_inv is used when given.  On G(O)
    series inputs the precision equals that of apply_theta(gamma).inverse()."""
    return involution(gamma, datum, THETA, True, gamma_inv)


def apply_eta(gamma: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """eta(gamma)(t) = eta0(gamma(epsilon t^-1)), with exact coefficientwise
    conjugation.  Laurent matrices only."""
    return involution(gamma, datum, ETA, False, None)


def apply_eta_inv(gamma: LaurentMatrix, datum: GroupDatum,
                  gamma_inv: Optional[LaurentMatrix] = None) -> LaurentMatrix:
    """eta(gamma)^-1 = eta(gamma^-1).  No inverse is taken on unitary; on
    split_gl and quaternionic_gl, gamma_inv is used when given."""
    return involution(gamma, datum, ETA, True, gamma_inv)


def d_theta0(y: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """Differential of theta0 at the identity: theta0 itself where theta0
    is linear, and -Ad_M(y^T) on the inverse-transpose families, where the
    table's theta0(y)^-1 takes no inverse and gives Ad_M(y^T)."""
    inv_t = datum.family in THETA.inverse_transpose
    dy = involution(y, datum, THETA, inv_t, None, constant=True)
    return -dy if inv_t else dy


def is_anti_fixed(gamma, datum: GroupDatum, side: Side) -> bool:
    """Whether gamma * sigma_side(gamma) = z, to gamma's precision for a series.
    Where sigma holds the inverse transpose, sigma(gamma)^-1 takes no inverse,
    and gamma = z * sigma(gamma)^-1 is tested instead, at gamma's precision:
    stricter than the product test, which it implies.  A gamma of another
    size than the datum's rank is invalid input."""
    _check_rank(gamma, datum)
    if datum.family in side.inverse_transpose:
        return gamma == involution(gamma, datum, side, True, None).scale(datum.z)
    prod = gamma * (apply_eta if side.reflect else apply_theta)(gamma, datum)
    return (prod - LaurentMatrix.diag_scalars([datum.z] * datum.n)).is_zero()


def _check_rank(x, datum: GroupDatum) -> None:
    if x.n != datum.n:
        raise InvalidInputError(f"the loop is {x.n}x{x.n} but the datum has rank {datum.n}")


def is_anti_fixed_theta(gamma, datum: GroupDatum) -> bool:
    return is_anti_fixed(gamma, datum, THETA)


def is_anti_fixed_eta(gamma: LaurentMatrix, datum: GroupDatum) -> bool:
    return is_anti_fixed(gamma, datum, ETA)


def eta_anti_fixed_is_unit(datum: GroupDatum, lam: Sequence[int]) -> bool:
    """Whether an eta-anti-fixed loop whose Birkhoff reduction ended at lam
    is invertible over Q(i)[t, t^-1], with no determinant taken: always where
    eta holds no inverse transpose, else iff sum(lam) = 0 (the argument is in
    exact_algebra.birkhoff_factor)."""
    return datum.family not in ETA.inverse_transpose or sum(lam) == 0


# ---------------------------------------------------------------------------
# pure inner twists


def twist_scalar(datum: GroupDatum, g: LaurentMatrix, side: Side) -> QI:
    """For a candidate inner twist g, the scalar s with g * sigma0(g) = s * I,
    sigma0 the constant involution of side; raises unless s exists and is a
    4th root of unity."""
    prod = g * involution(g, datum, side, False, None, constant=True)
    s = prod.coeff(0, 0, 0)
    if prod != LaurentMatrix.diag_scalars([s] * datum.n):
        raise InvalidInputError(f"g * {side.name}0(g) is not a scalar matrix")
    if s ** 4 != ONE:
        raise InvalidInputError(f"g * {side.name}0(g) must be a 4th root of unity")
    return s


def pure_inner_twist(datum: GroupDatum, g: LaurentMatrix) -> GroupDatum:
    """Replace both involutions by their Ad_g twists.  Requires g * eta0(g)
    and g * theta0(g) scalar (4th roots of unity); w1 is unchanged.  Each
    side's base datum, at z times its scalar, is built here once, and the
    sides share it when their scalars agree."""
    if datum.twist is not None:
        raise InvalidInputError("datum is already twisted; twist the base datum")
    if not g.is_constant():
        raise InvalidInputError("inner twist must be a constant matrix")
    scalars = {side: twist_scalar(datum, g, side) for side in (ETA, THETA)}
    if g == LaurentMatrix.identity(datum.n):
        return datum
    by_scalar = {s: build_datum(datum.family, datum.n, datum.epsilon, datum.z * s)
                 for s in set(scalars.values())}
    bases = {side.name: by_scalar[s] for side, s in scalars.items()}
    real = datum.real_form + " (inner twist)"
    signs = [g.coeff(i, i, 0) for i in range(datum.n)]
    if (datum.family == UNITARY and g == LaurentMatrix.diag_scalars(signs)
            and all(v in (QI(1), QI(-1)) for v in signs)):
        real = f"U({signs.count(QI(1))},{signs.count(QI(-1))})"
    return replace(datum, twist=g, real_form=real, bases=bases)


def transport_to_base(x, datum: GroupDatum):
    """Carry a z-anti-fixed loop of the twisted datum to an anti-fixed loop
    of base_datum(datum, side), on either side: x -> x * c.  A series x
    keeps its precision."""
    _check_rank(x, datum)
    if datum.twist is None:
        return x
    return x * datum.twist


def transport_from_base(x: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """The mirror of transport_to_base on Laurent matrices: x -> x * c^-1."""
    if datum.twist is None:
        return x
    return x * datum.twist.inverse()


def carry_from_base(obj, datum: GroupDatum, r: Optional[LaurentMatrix] = None):
    """A class or canonical form computed at base_datum(datum, obj.side) as
    one of datum: loop_rep -> loop_rep * c^-1 and g0 -> g0 * r^-1 * c^-1 * r,
    where r = w1 for a representative t^lam * g0 * w1^-1 (spherical level)
    and r = 1 for t~w * g0 (Iwahori level).  A canonical form's orbit class
    is carried with it; labels, arguments and torus problems are shared.
    The carried representative is certified anti-fixed."""
    if datum.twist is None:
        return obj
    # a canonical form holds its orbit class, a class its datum
    if hasattr(obj, "orbit_class"):
        changes = {"orbit_class": carry_from_base(obj.orbit_class, datum, r)}
    else:
        changes = {"datum": datum}
    if obj.loop_rep is not None:
        loop = transport_from_base(obj.loop_rep, datum)
        certify(is_anti_fixed(loop, datum, SIDES[obj.side]),
                f"twisted {obj.side} representative carried from the base datum "
                "is not anti-fixed")
        g0 = (transport_from_base(obj.g0, datum) if r is None
              else transport_from_base(obj.g0 * r.inverse(), datum) * r)
        changes.update(loop_rep=loop, g0=g0)
    return replace(obj, **changes)


def base_datum(datum: GroupDatum, side: Side) -> GroupDatum:
    """The untwisted datum whose anti-fixed set for side the transport
    x -> x * c reaches from this datum's: its central sector is z times the
    scalar c * sigma0(c).  pure_inner_twist built it; an untwisted datum is
    its own base."""
    return datum.bases.get(side.name, datum)
