"""Bundles on the real twistor line and Kottwitz-set points.

An eta-anti-fixed loop determines a bundle on P^1 with a real structure:
the canonical form t^lam * g0 * w1^{-1} reads off the splitting type
(the dominant coweight) and the constant gluing datum c.  Iwahori-level
inputs additionally carry a line at 0 and its image at infinity.  The
same canonical forms enumerate the (extended) Kottwitz set: pairs
(lam, g) with g * eta0(g) = lam(eps) * z and Ad_{g^-1}(lam(t)) equal to
theta0(lam(t^-1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import group_catalog as gc
from .canonicalize import canonicalize_eta, iwahori_reduce_eta
from .coweight_orbits import classify_eta, enumerate_admissible, eps_lambda
from .errors import InvalidInputError, certify
from .gaussian import QI
from .group_catalog import GroupDatum
from .iwahori_orbits import AffineWeylElement, build_torus_problem, classes_at_tw
from .laurent import Entry, LaurentMatrix

Line = Tuple[QI, ...]

# Aut(E, c, l0, linf)_red for the parabolic catalog entries; keyed by
# (family, epsilon, whether the position permutes the coordinate lines)
_PARABOLIC_AUT = {
    ("split_gl", 1, False): "R* x R*",
    ("split_gl", 1, True): "C*",
}


@dataclass(frozen=True)
class RealBundleDatum:
    epsilon: int
    z: QI
    splitting: Tuple[int, ...]
    gluing: LaurentMatrix  # constant matrix c with t^lam * c anti-fixed
    aut_label: str
    lines: Optional[Tuple[Line, Line]] = None  # (l0, linf = c(l0))


@dataclass(frozen=True)
class KottwitzPoint:
    lam: Tuple[int, ...]
    g: LaurentMatrix
    z: QI


def _normalize_line(col: List[QI]) -> Line:
    lead = next((v for v in col if not v.is_zero()), None)
    if lead is None:
        raise InvalidInputError("gluing datum annihilates the marked line")
    inv = lead.inv()
    return tuple(v * inv for v in col)


def loop_to_bundle(x, datum: GroupDatum) -> RealBundleDatum:
    """The splitting type and gluing datum of an anti-fixed loop."""
    form = canonicalize_eta(x, datum)
    c = form.g0 * datum.w1.inverse()
    rep = LaurentMatrix.t_power(list(form.lam)) * c
    certify(gc.is_anti_fixed_eta(rep, datum), "bundle representative t^lam * c is not anti-fixed")
    return RealBundleDatum(
        epsilon=datum.epsilon,
        z=datum.z,
        splitting=form.lam,
        gluing=c,
        aut_label=form.orbit_class.aut_label or "unlabeled",
    )


def loop_to_parabolic_bundle(x: LaurentMatrix, tw: AffineWeylElement,
                             datum: GroupDatum) -> RealBundleDatum:
    """Bundle with marked lines from an Iwahori-positioned loop t~w * g."""
    g = tw.loop().inverse() * x
    form = iwahori_reduce_eta(tw, g, datum,
                             classes_at_tw(datum, tw, gc.ETA, build_torus_problem(datum, tw.w)))
    c = tw.lift * form.g0  # loop_rep = t^lam * (w-part * torus)
    n = datum.n
    l0 = _normalize_line([QI(1) if i == 0 else QI(0) for i in range(n)])
    linf = _normalize_line([c.coeff(i, 0, 0) for i in range(n)])
    permutes = linf != l0
    aut = _PARABOLIC_AUT.get((datum.family, datum.epsilon, permutes),
                             "unlabeled")
    return RealBundleDatum(
        epsilon=datum.epsilon,
        z=datum.z,
        splitting=tuple(sorted(tw.lam, reverse=True)),
        gluing=c,
        aut_label=aut,
        lines=(l0, linf),
    )


def enumerate_bundles(datum: GroupDatum, bound: int) -> List[RealBundleDatum]:
    """One bundle datum per eta-class with splitting bounded by bound, read
    off the class: its representative t^lam * g0 * w1^-1, which the
    classifier certified anti-fixed, is already in canonical form."""
    w1_inv = datum.w1.inverse()
    return [RealBundleDatum(epsilon=datum.epsilon, z=datum.z, splitting=cls.lam,
                            gluing=cls.g0 * w1_inv, aut_label=cls.aut_label or "unlabeled")
            for lam in enumerate_admissible(datum, bound)
            for cls in classify_eta(datum, lam)]


def kottwitz_validate(p: KottwitzPoint, datum: GroupDatum) -> bool:
    """Exact check of the defining identities of a Kottwitz pair."""
    n = datum.n
    if len(p.lam) != n or p.g.n != n or not p.g.is_constant():
        return False
    base = gc.base_datum(datum, gc.ETA)
    if base is not datum:
        # the identities hold at the base datum, reached by x -> x * c
        p = KottwitzPoint(p.lam, gc.transport_to_base(p.g, datum), p.z * (base.z / datum.z))
        datum = base
    want = eps_lambda(datum, p.lam).scale(p.z)
    if p.g * gc.eta0(p.g, datum) != want:
        return False
    # g * eta0(g) is a nonzero scalar, so g is invertible and
    # g^-1 lam(t) g = theta0(lam(t^-1)) is a comparison of products
    lam_t = LaurentMatrix.t_power(list(p.lam))
    lam_tinv = LaurentMatrix.t_power([-v for v in p.lam])
    return lam_t * p.g == p.g * gc.theta0(lam_tinv, datum)


def kottwitz_to_loop(p: KottwitzPoint, datum: GroupDatum) -> LaurentMatrix:
    """gamma(t) = lam(t) * g; exactly anti-fixed when the point validates."""
    if not kottwitz_validate(p, datum):
        raise InvalidInputError("invalid Kottwitz point")
    loop = LaurentMatrix.t_power(list(p.lam)) * p.g
    certify(gc.is_anti_fixed_eta(loop, datum), "loop of a valid Kottwitz point is not anti-fixed")
    return loop


def enumerate_kottwitz(datum: GroupDatum, bound: int) -> List[KottwitzPoint]:
    """One Kottwitz point per eta-class up to the coweight bound."""
    out = []
    for lam in enumerate_admissible(datum, bound):
        for cls in classify_eta(datum, lam):
            p = KottwitzPoint(lam=lam,
                              g=cls.g0 * datum.w1.inverse(), z=datum.z)
            certify(kottwitz_validate(p, datum),
                    f"classifier representative at {lam} fails the Kottwitz identities")
            out.append(p)
    return out


def twist_kottwitz(p: KottwitzPoint, h: LaurentMatrix,
                   datum: GroupDatum) -> KottwitzPoint:
    """The equivalent point (h lam h^-1, h g eta0(h)^-1), taken at the base
    datum for a twisted one.

    h must be a constant matrix normalizing lam(t); in the diagonal
    torus picture that means permuting equal entries of lam.
    """
    lam_t = LaurentMatrix.t_power(list(p.lam))
    conj = h * lam_t * h.inverse()
    new_lam = []
    for i in range(datum.n):
        e = conj.entry(i, i)
        if any(j != i and conj.entry(i, j) for j in range(datum.n)) or e != Entry.term(e.val(), 1):
            raise InvalidInputError("h does not normalize the cocharacter")
        new_lam.append(e.val())
    g = h * gc.transport_to_base(p.g, datum) * gc.eta0(h, datum).inverse()
    return KottwitzPoint(lam=tuple(new_lam), g=gc.transport_from_base(g, datum), z=p.z)
