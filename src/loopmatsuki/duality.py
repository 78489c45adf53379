"""Matching of theta-side and eta-side orbit classes.

The two classifications are indexed by the same dominant coweights (or
affine Weyl elements) and carry the same labels; pairing them up is the
duality.  Pairs can be spot-checked by twisting the shared representative
with exact compact elements: theta- and eta-twisting agree on constants
in U(n), and the canonical labels must not move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import group_catalog as gc
from .canonicalize import (
    canonicalize_eta,
    canonicalize_theta,
    iwahori_reduce_eta,
    iwahori_reduce_theta,
)
from .coweight_orbits import SphericalClass, enumerate_spherical
from .errors import InvalidInputError, certify
from .exact_algebra import conj_transpose
from .group_catalog import GroupDatum
from .iwahori_orbits import IwahoriClass, enumerate_iwahori
from .laurent import LaurentMatrix, SeriesMatrix
from .randgen import (
    FOURTH_ROOTS,
    random_compact,
    random_compact_symmetric,
    random_signed_permutation,
)

OrbitClass = Union[SphericalClass, IwahoriClass]


@dataclass(frozen=True)
class MatchedPair:
    theta_class: OrbitClass
    eta_class: OrbitClass
    common_rep: Optional[LaurentMatrix]
    level: str  # "spherical" | "iwahori"
    # each side's classes at the pair's lambda or t~w, for verify_intersection
    theta_classes: Tuple[OrbitClass, ...] = field(compare=False, repr=False)
    eta_classes: Tuple[OrbitClass, ...] = field(compare=False, repr=False)


def _common_rep(datum: GroupDatum, *candidates) -> Optional[LaurentMatrix]:
    for x in candidates:
        if x is None:
            continue
        if gc.is_anti_fixed_theta(x, datum) and gc.is_anti_fixed_eta(x, datum):
            return x
    return None


def _match(datum: GroupDatum, classes: Dict[str, List[OrbitClass]], level: str,
           position: Callable, key: Callable) -> List[MatchedPair]:
    """The pairs of one level: at each position, sorted, the theta and eta
    classes of equal key, sorted.  Certifies that each position's keys match
    one to one and that paired classes have equal component groups."""
    at = ({}, {})
    for side_at, side in zip(at, ("theta", "eta")):
        for c in classes[side]:
            side_at.setdefault(position(c), []).append(c)
    pairs = []
    for pos in sorted(at[0].keys() | at[1].keys()):
        theta_classes, eta_classes = (tuple(side_at.get(pos, ())) for side_at in at)
        theta_keys, eta_keys = ([key(c) for c in cs] for cs in (theta_classes, eta_classes))
        certify(sorted(theta_keys) == sorted(eta_keys) == sorted(set(eta_keys)),
                f"classes at {level} position {pos} do not match one to one: "
                f"theta {sorted(theta_keys)} vs eta {sorted(eta_keys)}")
        etas = dict(zip(eta_keys, eta_classes))
        for th in sorted(theta_classes, key=key):
            et = etas[key(th)]
            certify(th.component_group == et.component_group,
                    f"component group mismatch at {level} position {pos}, class {key(th)}")
            pairs.append(MatchedPair(
                theta_class=th,
                eta_class=et,
                common_rep=_common_rep(datum, et.loop_rep, th.loop_rep),
                level=level,
                theta_classes=theta_classes,
                eta_classes=eta_classes,
            ))
    return pairs


def match_spherical(datum: GroupDatum, bound: int) -> List[MatchedPair]:
    """One matched pair per (admissible coweight, label)."""
    return _match(datum, enumerate_spherical(datum, bound), "spherical",
                  lambda c: c.lam, lambda c: c.label)


def match_iwahori(datum: GroupDatum, bound: int) -> List[MatchedPair]:
    """One matched pair per (admissible t~w, torus class)."""
    return _match(datum, enumerate_iwahori(datum, bound), "iwahori",
                  lambda c: (c.tw.lam, c.tw.w), lambda c: c.g0_args)


def _compact_sample(datum: GroupDatum, level: str, index: int,
                    rng: random.Random) -> LaurentMatrix:
    if level == "iwahori":
        return LaurentMatrix.diag_scalars([rng.choice(FOURTH_ROOTS) for _ in range(datum.n)])
    kind = index % 3
    if kind == 0:
        return random_signed_permutation(datum.n, rng)
    if kind == 1:
        return random_compact(datum.n, rng)
    return random_compact_symmetric(datum, rng)


def _labels_match(pair: MatchedPair, xt: LaurentMatrix,
                  datum: GroupDatum) -> Optional[str]:
    """None if the twisted loop canonicalizes to the pair's lambda and labels,
    each looked up in the pair's classes, which hold at its lambda only."""
    if pair.level == "spherical":
        lam = pair.theta_class.lam
        xs = SeriesMatrix.from_laurent(xt, (xt.maxdeg() or 0) - (xt.val() or 0) + 10)
        for side, reduce, x, want, classes in (
                ("eta", canonicalize_eta, xt, pair.eta_class, pair.eta_classes),
                ("theta", canonicalize_theta, xs, pair.theta_class, pair.theta_classes)):
            form = reduce(x, datum, {lam: classes})
            if form.lam != lam:
                return f"{side} lambda moved: {form.lam} != {lam}"
            if form.orbit_class.label != want.label:
                return f"{side} label moved: {form.orbit_class.label} != {want.label}"
        return None
    # the reducers take t~w from the pair, so lambda cannot move here
    tw = pair.theta_class.tw
    g = tw.loop().inverse() * xt
    # g carries no t^lam, but the reducer inverts t~w * g, whose valuation
    # min(lam) costs precision in proportion to the coweight spread
    hi = (g.maxdeg() or 0) - (g.val() or 0) + 2 * (max(tw.lam) - min(tw.lam))
    for side, reduce, x, want, classes in (
            ("eta", iwahori_reduce_eta, g, pair.eta_class, pair.eta_classes),
            ("theta", iwahori_reduce_theta, SeriesMatrix.from_laurent(g, hi + 10),
             pair.theta_class, pair.theta_classes)):
        if reduce(tw, x, datum, classes).orbit_class.g0_args != want.g0_args:
            return f"{side} torus class moved"
    return None


def verify_intersection(pair: MatchedPair, samples: int, seed: int) -> dict:
    """Twist the common representative by exact compact elements.

    For each sample k in U(n) (torus-valued for Iwahori pairs), checks
    that the theta- and eta-twists of the representative coincide exactly
    and that both canonical labels are unchanged.
    """
    if samples < 0:
        raise InvalidInputError("the sample count must be nonnegative")
    if pair.common_rep is None:
        raise InvalidInputError("pair has no exact common representative")
    datum = pair.theta_class.datum
    x = pair.common_rep
    rng = random.Random(seed)
    failures = []
    for s in range(samples):
        k = _compact_sample(datum, pair.level, s, rng)
        # every sample is unitary by construction, so its inverse is its adjoint
        k_inv = conj_transpose(k)
        certify(k * k_inv == LaurentMatrix.identity(datum.n), "compact sample is not unitary")
        th_inv = gc.apply_theta_inv(k, datum, k_inv)
        if th_inv != gc.apply_eta_inv(k, datum, k_inv):
            failures.append({"sample": s,
                             "reason": "theta and eta twists differ"})
            continue
        xt = k * x * th_inv
        reason = _labels_match(pair, xt, datum)
        if reason is not None:
            failures.append({"sample": s, "reason": reason})
    return {"samples": samples, "failures": failures}


def finite_matsuki(datum: GroupDatum) -> dict:
    """The constant-group specialization of both matchers.

    Spherical pairs at lambda = 0 are the orbits of the two involutions
    on the group itself; Iwahori pairs at t~w in W are the classical
    Borel-level orbit matching on the flag variety.
    """
    spherical = [p for p in match_spherical(datum, 0)
                 if not any(p.theta_class.lam)]
    borel = [p for p in match_iwahori(datum, 0)
             if not any(p.theta_class.tw.lam)]
    return {"spherical": spherical, "borel": borel}
