"""Spherical orbit classification for both loop involutions.

For a dominant coweight lambda satisfying lambda = -w1^{-1} theta0(lambda),
the twisted orbit sets at level lambda are classified by constant matrices
g0 in the Levi L_lambda solving

  theta side:  g0 = w2 * Ad_{w1^-1}(theta0(g0)^-1) * eps^lambda * z
  eta side:    g0 = w2 * Ad_{w1^-1}(eta0(g0^-1))   * eps^lambda * z

(w2 = theta0(w1) * w1): exactly the g0 whose loop representative
t^lambda * g0 * w1^-1 is anti-fixed, which is what gets certified.  Per
family the per-block solutions reduce to classical form theory:

  split_gl / quaternionic_gl: on a block of size m with lambda-value mu the
    equation reads B = c * transpose(B) (theta) or B * conj(B) = c (eta) for
    a sign c; c = +1 gives the symmetric/real type (rep I_m), c = -1 the
    alternating/quaternionic type (rep the standard skew form, m even), and
    anything else is empty.
  unitary: mirror-paired blocks carry a unique class; the middle block
    carries an involution (theta) or Hermitian form (eta) M = R * B and the
    classes are eigenvalue-multiplicity / signature pairs (p, q).

Both sides produce the same compact representatives, so one matrix serves as
x_lambda on either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import List, Optional, Sequence, Tuple

from .errors import CertificateError, InvalidInputError, UnsupportedFamilyError, certify
from .exact_algebra import hermitian_signature
from .gaussian import QI, ONE
from .group_catalog import (
    ETA, SPLIT_GL, QUATERNIONIC_GL, THETA, GroupDatum, Side,
    base_datum, carry_from_base, check_bound, is_admissible, is_anti_fixed,
    j_matrix, signed_permutation,
)
from .laurent import LaurentMatrix

Block = Tuple[int, int, int]  # (start, size, lambda-value)


def blocks_of(lam: Sequence[int]) -> List[Block]:
    """Maximal constant runs of lambda, the Levi block structure."""
    out: List[Block] = []
    i = 0
    while i < len(lam):
        j = i
        while j < len(lam) and lam[j] == lam[i]:
            j += 1
        out.append((i, j - i, lam[i]))
        i = j
    return out


def is_dominant(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def _w1_admissible(datum: GroupDatum, lam: Sequence[int]) -> bool:
    """lambda = -w1^-1 theta0(lambda): the torus predicate at w1's permutation."""
    return is_admissible(datum, lam, [i for i, _ in signed_permutation(datum.w1)])


def enumerate_admissible(datum: GroupDatum, bound: int) -> List[Tuple[int, ...]]:
    """The dominant admissible coweights with |lambda_i| <= bound, sorted."""
    check_bound(bound, datum.n)
    vals = range(-bound, bound + 1)
    # each multiset comes once, and sorting it is injective: no duplicates
    dominant = (tuple(sorted(tup, reverse=True))
                for tup in combinations_with_replacement(vals, datum.n))
    return sorted(lam for lam in dominant if _w1_admissible(datum, lam))


@dataclass(frozen=True)
class SphericalClass:
    datum: GroupDatum
    lam: Tuple[int, ...]
    side: str  # "theta" | "eta"
    label: str
    g0: LaurentMatrix
    loop_rep: LaurentMatrix
    component_group: Tuple[int, ...]
    aut_label: Optional[str] = None


# ---------------------------------------------------------------------------
# classification


def _sign_power(eps: int, mu: int) -> QI:
    return QI(1) if eps == 1 or mu % 2 == 0 else QI(-1)


def _real_z(z: QI) -> QI:
    if z not in (QI(1), QI(-1)):
        raise UnsupportedFamilyError(
            "classification supports central twist z in {1,-1} only")
    return z


def _classify_symalt(datum: GroupDatum, lam: Tuple[int, ...], side: Side) -> List[SphericalClass]:
    """split_gl and quaternionic_gl: at most one class, of per-block
    symmetric/alternating types."""
    z = _real_z(datum.z)
    flip = QI(-1) if datum.family == QUATERNIONIC_GL else QI(1)
    parts = []
    types = []
    blocks = blocks_of(lam)
    for (_, size, mu) in blocks:
        c = flip * _sign_power(datum.epsilon, mu) * z
        if c == ONE:
            parts.append(LaurentMatrix.identity(size))
            types.append(("Sym", size))
        elif c == QI(-1) and size % 2 == 0:
            parts.append(j_matrix(size))
            types.append(("Alt", size))
        else:
            return []
    g0 = LaurentMatrix.block_diag(parts)
    label = "|".join(t for t, _ in types)
    return [_finish_class(datum, lam, side, label, g0, types)]


def _classify_unitary(datum: GroupDatum, lam: Tuple[int, ...], side: Side) -> List[SphericalClass]:
    z = _real_z(datum.z)
    blocks = blocks_of(lam)
    r = len(blocks)
    half = r // 2
    mid = blocks[half] if r % 2 == 1 else None

    # mirror-paired blocks: one class, B_i = I, B_{r-1-i} = eps^{lambda} * z
    pair_parts = {}
    for i in range(half):
        _, size, _ = blocks[i]
        _, size2, mu2 = blocks[r - 1 - i]
        certify(size == size2, f"mirror blocks {i} and {r - 1 - i} differ in size")
        pair_parts[i] = LaurentMatrix.identity(size)
        pair_parts[r - 1 - i] = LaurentMatrix.diag_scalars(
            [_sign_power(datum.epsilon, mu2) * z] * size)

    out = []
    if mid is None:
        g0 = LaurentMatrix.block_diag([pair_parts[i] for i in range(r)])
        out.append(_finish_class(datum, lam, side, "(0,0)", g0,
                                 [("Pair", blocks[i][1]) for i in range(half)],
                                 sig=(0, 0)))
        return out

    m = mid[1]
    s = QI(1) if z == ONE else QI(0, 1)  # M^2 = z needs eigenvalues sqrt(z)
    for p in range(m, -1, -1):
        q = m - p
        # B = s * R * M_{p,q} for the antidiagonal R
        mid_part = LaurentMatrix.permutation(range(m - 1, -1, -1),
                                             [s if a < p else -s for a in range(m)])
        g0 = LaurentMatrix.block_diag([pair_parts[i] if i != half else mid_part
                                       for i in range(r)])
        out.append(_finish_class(datum, lam, side, f"({p},{q})", g0,
                                 [("Pair", blocks[i][1]) for i in range(half)],
                                 sig=(p, q)))
    return out


def middle_label(datum: GroupDatum, lam: Sequence[int], g0: LaurentMatrix, side: Side) -> str:
    """The label of the unitary class of a reduced g0, read off its middle
    (lambda = 0) block B by inverting _classify_unitary's B = s * R * M_{p,q}:
    with M = s^-1 * R * B, p - q = tr M on theta and (p, q) is the signature
    of M on eta.  A g0 of no class gets a label no class carries, and an eta
    block that is no nondegenerate Hermitian form fails a certificate."""
    start, m = next((start, size) for start, size, mu in blocks_of(lam) if mu == 0)
    # z is 1 or -1: the classifier ran first and rejects any other z
    s_inv = ONE if datum.z == ONE else QI(0, -1)
    mm = [[s_inv * g0.coeff(start + r, start + c, 0) for c in range(m)]
          for r in reversed(range(m))]
    if not side.reflect:
        p = sum((mm[r][r] for r in range(m)), QI(m)) / 2
        return f"({p},{m - p})"
    try:
        return "({},{})".format(*hermitian_signature(mm))
    except InvalidInputError as exc:
        raise CertificateError(f"certificate failed: reduced middle block: {exc}") from None


def _finish_class(datum: GroupDatum, lam: Tuple[int, ...], side: Side,
                  label: str, g0: LaurentMatrix, types, sig=None) -> SphericalClass:
    loop = LaurentMatrix.t_power(list(lam)) * g0 * datum.w1.inverse()
    where = f"{side.name} class {label} at lambda={lam}"
    certify(is_anti_fixed(loop, datum, side), f"{where}: representative not anti-fixed")
    # an eta class is a real bundle, labelled by its automorphism group
    aut = _aut_label(datum, types, sig) if side.reflect else None
    return SphericalClass(datum, lam, side.name, label, g0, loop,
                          tuple(_component_group(types)), aut)


def eps_lambda(datum: GroupDatum, lam: Sequence[int]) -> LaurentMatrix:
    """The constant diagonal matrix eps^lambda = diag(epsilon^lambda_i)."""
    return LaurentMatrix.diag_scalars(
        [_sign_power(datum.epsilon, mu) for mu in lam])


# component groups: the theta side counts components of complexified
# centralizers (O(m,C), Sp(m,C), GL_p x GL_q, block GL_m), the eta side those
# of the compact/real forms (O(m), compact Sp, U(p) x U(q), diagonal U(m)).
# Both are products of the per-block component groups, and they agree.

def _component_group(types) -> List[int]:
    out = []
    for t in types:
        if t[0] == "Sym":  # centralizer O(m, C) or O(m), two components
            out.append(2)
        # Alt -> Sp(m, C) or compact Sp, Pair -> GL_m(C) or U(m): connected
    # unitary middle: GL_p(C) x GL_q(C) or U(p) x U(q), connected
    return sorted(out)


def _aut_label(datum: GroupDatum, types, sig) -> str:
    parts = []
    for t in types:
        kind, m = t[0], t[1]
        if kind == "Sym":
            parts.append("R*" if m == 1 else f"GL{m}(R)")
        elif kind == "Alt":
            parts.append(f"GL{m // 2}(H)")
        elif kind == "Pair":
            parts.append("{(z,zbar)}" if m == 1 else f"GL{m}(C)")
    if sig is not None and sum(sig) > 0:
        parts.append(f"U({sig[0]},{sig[1]})")
    return " x ".join(parts) if parts else "GL0"


# ---------------------------------------------------------------------------
# public classifiers


def classify_theta(datum: GroupDatum, lam: Sequence[int]) -> List[SphericalClass]:
    return _classify(datum, lam, THETA)


def classify_eta(datum: GroupDatum, lam: Sequence[int]) -> List[SphericalClass]:
    return _classify(datum, lam, ETA)


def _classify(datum: GroupDatum, lam: Sequence[int], side: Side) -> List[SphericalClass]:
    lam = tuple(int(x) for x in lam)
    if not is_dominant(lam):
        raise InvalidInputError(f"coweight {lam} is not dominant")
    if not _w1_admissible(datum, lam):
        raise InvalidInputError(f"coweight {lam} fails the admissibility equation")
    base = base_datum(datum, side)
    if base is not datum:
        return [carry_from_base(cls, datum, datum.w1) for cls in _classify(base, lam, side)]
    if datum.family in (SPLIT_GL, QUATERNIONIC_GL):
        return _classify_symalt(datum, lam, side)
    return _classify_unitary(datum, lam, side)
