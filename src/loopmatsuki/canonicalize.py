"""Canonical forms of anti-fixed loops.

The tau maps land arbitrary loops in the anti-fixed sets.  The two
spherical canonicalizers reduce an anti-fixed loop to its normal form
t^lam * g0 * w1^{-1}: exactly on the eta side, and to a certified
residual precision on the theta side.  The Iwahori reducers take
pre-positioned loops t~w * g with g in the Iwahori subgroup and return the
torus form t~w * d; the library's own callers (intersection sampling and
parabolic bundles) send compact torus twists, whose t~w^-1 * x is already
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm
from typing import List, Mapping, Optional, Sequence, Tuple

from . import group_catalog as gc
from .coweight_orbits import (
    SphericalClass,
    blocks_of,
    classify_eta,
    classify_theta,
    middle_label,
)
from .errors import InvalidInputError, NotAntiFixedError, PrecisionError, certify
from .exact_algebra import (
    NOT_INVERTIBLE,
    birkhoff_factor,
    smith_over_dvr,
    unipotent_sqrt,
    valuation_coweight,
)
from .gaussian import QI
from .group_catalog import ETA, THETA, GroupDatum, Side
from .intlat import FractionFree, eliminate
from .iwahori_orbits import AffineWeylElement, IwahoriClass
from .laurent import (
    Entry,
    LaurentMatrix,
    SeriesMatrix,
    series_exp,
)

MIN_RESIDUAL_PRECISION = 4

ClassTable = Mapping[Tuple[int, ...], Sequence[SphericalClass]]  # one side's, by lambda


@dataclass(frozen=True)
class CanonicalForm:
    lam: Tuple[int, ...]
    g0: LaurentMatrix
    orbit_class: object  # SphericalClass, or IwahoriClass for Iwahori reductions
    certificate: object  # the accumulated conjugator (series or Laurent)
    residual_precision: Optional[int]  # None means exact
    side: str
    loop_rep: LaurentMatrix


# ---------------------------------------------------------------------------
# tau maps


def tau_theta(gamma, datum: GroupDatum):
    """gamma * theta(gamma)^{-1}; anti-fixed with z = 1."""
    return gamma * gc.apply_theta_inv(gamma, datum)


def tau_eta(gamma: LaurentMatrix, datum: GroupDatum) -> LaurentMatrix:
    """The paper's tau on the eta side: gamma * eta(gamma)^{-1}, anti-fixed
    with z = 1 for every exact loop gamma."""
    return gamma * gc.apply_eta_inv(gamma, datum)


# ---------------------------------------------------------------------------
# small helpers


def _block_index(lam: Sequence[int]) -> List[int]:
    idx = [0] * len(lam)
    for b, (start, size, _) in enumerate(blocks_of(lam)):
        for i in range(start, start + size):
            idx[i] = b
    return idx


# ---------------------------------------------------------------------------
# class matching


def _match_spherical_class(datum: GroupDatum, lam: Sequence[int], g0: LaurentMatrix,
                           side: Side, classes: List[SphericalClass]) -> SphericalClass:
    """The class of side's classes at lam that the reduced g0 belongs to."""
    # the input passed its anti-fixedness check, so a miss here is an internal fault
    certify(bool(classes), "reduced to a coweight with no anti-fixed classes")
    if len(classes) == 1:
        return classes[0]
    certify(0 in lam, "several classes and no middle-block invariant to separate them")
    want = middle_label(datum, lam, g0, side)
    match = next((cls for cls in classes if cls.label == want), None)
    certify(match is not None, "reduced g0 matches no classified class")
    return match


# ---------------------------------------------------------------------------
# theta side


def _carry(cur: SeriesMatrix, h_acc: SeriesMatrix) -> int:
    """How far h * cur, (h * cur) * theta(h)^-1 and h * h_acc read a
    valuation-0 conjugator h: by min(Na + vB, Nb + vA) each keeps its other
    factor's precision N and reads h below N - v(that factor) only."""
    return max(cur.precision - cur.val(), h_acc.precision - h_acc.val())


def _layer_conjugators(ell: LaurentMatrix, lam: Sequence[int], datum: GroupDatum):
    """conjugator(k, re, im, d): the y whose exp kills, to first order, the
    layer (re + i*im) / d of g = t^-lam * x * w1 at t^k (row by row, d > 0),
    or None when no y does; g's constant term is the Levi part ell.

    The layers are solved on g itself, over Z[i].  ell is constant and
    invertible, so g and ell^-1 * g vanish in the same layers, and g's layer
    system is (ell (x) I) times that of ell^-1 * g.  The first-order
    responses at ell are E_ij * ell on the left (its row i is row j of ell)
    and ell * w1^-1 d_theta0(E_ij) w1 on the right; read over one common
    denominator `scale`, they make the system A / scale with A over Z[i].
    FractionFree's reduced rows are nonzero multiples of the reduced echelon
    rows over Q(i), of either system, with the same pivot columns, and the
    solution zero at the free columns is unique: so each y is the one
    Gauss-Jordan over Q(i) gives, and its normal-form entries are too.
    """
    n = ell.n
    w1_inv = datum.w1.inverse()
    unknowns = [(i, j) for i in range(n) for j in range(n)]
    ell_re, ell_im, ell_d = ell.layer_ints(0)
    right = [(ell * w1_inv * gc.d_theta0(LaurentMatrix.monomial(n, i, j), datum)
              * datum.w1).layer_ints(0) for i, j in unknowns]
    scale = lcm(ell_d, *(d for _, _, d in right))

    # y_(i,j) conjugator coefficients; effect on the t^k layer: left factor
    # for lam_i >= lam_j, right factor for lam_i <= lam_j, the latter signed
    # by epsilon^k, so the system depends on k only through that sign
    def layer_system(sign: int) -> FractionFree:
        """scale times the layer system at epsilon^k = sign: row (r, s) is
        the layer's entry (r, s), column (i, j) the unknown y_(i,j)."""
        re = [[0] * (n * n) for _ in unknowns]
        im = [[0] * (n * n) for _ in unknowns]
        for u, (i, j) in enumerate(unknowns):
            if lam[i] <= lam[j]:
                rr, ri, rd = right[u]
                f = -sign * (scale // rd)
                for q in range(n * n):
                    re[q][u], im[q][u] = f * rr[q], f * ri[q]
            if lam[i] >= lam[j]:
                f = scale // ell_d
                for s in range(n):
                    re[i * n + s][u] += f * ell_re[j * n + s]
                    im[i * n + s][u] += f * ell_im[j * n + s]
        return FractionFree(re, im)

    solvers = {}  # epsilon^k -> its layer system, factored on first use

    def conjugator(k: int, re: List[int], im: List[int], d: int) -> Optional[LaurentMatrix]:
        sign = datum.epsilon ** k
        if sign not in solvers:
            solvers[sign] = layer_system(sign)
        # (A / scale) y = -layer: y = -scale * x / d for A x = re + i*im
        sol = solvers[sign].solve(re, im)
        if sol is None:
            return None
        xr, xi, xd = sol
        return LaurentMatrix([[Entry.int_term(k + max(0, lam[i] - lam[j]), -scale * xr[i * n + j],
                                              -scale * xi[i * n + j], d * xd[i * n + j])
                               for j in range(n)] for i in range(n)])

    return conjugator


def canonicalize_theta(x, datum: Optional[GroupDatum] = None,
                       table: Optional[ClassTable] = None) -> CanonicalForm:
    """Reduce a theta-anti-fixed series loop to t^lam * g0 * w1^{-1}.

    g0 is exact and satisfies the spherical equation; the certificate
    conjugator verifies the reduction to residual_precision.  The class is
    looked up in the caller's table of datum's classes by lambda if it has
    lam, else classified.
    """
    if datum is None:
        raise InvalidInputError("canonicalize_theta needs a group datum")
    if not isinstance(x, SeriesMatrix):
        raise InvalidInputError("canonicalize_theta takes a series loop")
    return _reduce_on_base(_reduce_theta, x, datum, THETA,
                           lambda base, lam: (table or {}).get(lam) or classify_theta(base, lam))


def _reduce_theta(x: SeriesMatrix, datum: GroupDatum) -> CanonicalForm:
    """canonicalize_theta's reduction at an untwisted datum, unclassed."""
    n = x.n
    if not gc.is_anti_fixed_theta(x, datum):
        raise NotAntiFixedError("loop is not theta-anti-fixed to its precision")
    prec_in = x.precision
    lam = valuation_coweight(x)
    spread = lam[0] - lam[-1]
    residual = prec_in - spread
    if residual < MIN_RESIDUAL_PRECISION:
        raise PrecisionError(
            f"residual precision {residual} below the floor {MIN_RESIDUAL_PRECISION}"
        )

    g1, lam2, h_acc = smith_over_dvr(x)
    certify(lam2 == lam, "Smith positioning disagrees with the valuation coweight")

    def conjugate(cur: SeriesMatrix, h: SeriesMatrix,
                  h_inv: Optional[SeriesMatrix]) -> SeriesMatrix:
        return h * cur * gc.apply_theta_inv(h, datum, h_inv)

    # No working precision: each exact factor is carried as far as its
    # product reads it (gform, _carry).  Conjugation by G(O) never lifts
    # cur's precision above prec_in, and val(cur) >= lam[-1] >= -max|lam|.
    cur = conjugate(x, h_acc, g1)

    w1_cols = gc.signed_permutation(datum.w1)
    w1_inv = datum.w1.inverse()

    def gform(xc: SeriesMatrix) -> SeriesMatrix:
        """t^-lam * xc * w1 as index moves: row i shifts by -lam_i, then
        column j is column i of that, negated where w1's entry (i, j) is -1.
        Both factors are exact and t^-lam has valuation -lam_0, so by
        min(Na + vB, Nb + vA) the product keeps xc.precision - lam_0."""
        shifted = [[e.shift(-s) for e in r] for s, r in zip(lam, xc.rows)]
        return SeriesMatrix([[-r[i] if negate else r[i] for i, negate in w1_cols]
                             for r in shifted], xc.precision - lam[0])

    g = gform(cur)
    bidx = _block_index(lam)

    # layer 0: the constant term sits in the standard parabolic P_lam;
    # strip its unipotent radical part.
    c0 = g.constant_matrix()
    certify(all(c0[i][j].is_zero() for i in range(n) for j in range(n) if bidx[i] > bidx[j]),
            "constant term escapes the parabolic P_lambda")
    ell_rows = [[c0[i][j] if bidx[i] == bidx[j] else QI(0) for j in range(n)] for i in range(n)]
    ell = LaurentMatrix.from_scalars(ell_rows)
    u0 = ell.inverse() * LaurentMatrix.from_scalars(c0)
    if u0 != LaurentMatrix.identity(n):
        h0 = w1_inv * gc.theta0(u0, datum) * datum.w1
        h0s = SeriesMatrix.from_laurent(h0, _carry(cur, h_acc))
        cur = conjugate(cur, h0s, None)
        h_acc = h0s * h_acc
        g = gform(cur)
        certify(LaurentMatrix.from_scalars(g.constant_matrix()) == ell,
                "layer-0 conjugation left a unipotent constant term")

    conjugator = _layer_conjugators(ell, lam, datum)
    for k in range(1, g.precision):
        re, im, d = g.layer_ints(k)
        if not any(re) and not any(im):
            continue
        y = conjugator(k, re, im, d)
        certify(y is not None, f"layer {k} has no killing conjugator")
        # exp(y mod t^p) = exp(y) mod t^p for val(y) >= 1; p > k keeps layer k
        h, h_inv = series_exp(SeriesMatrix.from_laurent(y, max(_carry(cur, h_acc), k + 1)))
        cur = conjugate(cur, h, h_inv)
        h_acc = h * h_acc
        g = gform(cur)
        certify(g.is_zero_between(1, k + 1), f"layers 1..{k} are not killed")

    g0 = ell
    loop_rep = LaurentMatrix.t_power(lam) * g0 * w1_inv
    # for g0 in the Levi, anti-fixedness of loop_rep is the spherical equation
    if not gc.is_anti_fixed(loop_rep, datum, THETA):
        raise PrecisionError("constant term equation not certified at this precision")
    # the certified window: g was cleaned to its own precision, and row i of
    # the loop carries an extra t^{lam_i}; the worst row bounds the claim
    residual = min(residual, cur.precision, g.precision + min(lam[-1], 0))
    if residual < MIN_RESIDUAL_PRECISION:
        raise PrecisionError(
            f"residual precision {residual} below the floor {MIN_RESIDUAL_PRECISION}"
        )
    defect = cur - loop_rep
    certify(all(not e for row in defect.retruncate(residual).rows for e in row),
            f"theta defect is nonzero below the residual precision {residual}")
    return CanonicalForm(tuple(lam), g0, None, h_acc, residual, THETA.name, loop_rep)


# ---------------------------------------------------------------------------
# eta side


def canonicalize_eta(x, datum: Optional[GroupDatum] = None,
                     table: Optional[ClassTable] = None) -> CanonicalForm:
    """Reduce an eta-anti-fixed Laurent loop to t^lam * g0 * w1^{-1}, exactly;
    table is as in canonicalize_theta, of eta classes."""
    if datum is None:
        raise InvalidInputError("canonicalize_eta needs a group datum")
    return _reduce_on_base(_reduce_eta, x, datum, ETA,
                           lambda base, lam: (table or {}).get(lam) or classify_eta(base, lam))


def _reduce_eta(x: LaurentMatrix, datum: GroupDatum) -> CanonicalForm:
    """canonicalize_eta's reduction at an untwisted datum, unclassed."""
    if not gc.is_anti_fixed_eta(x, datum):
        raise NotAntiFixedError("loop is not eta-anti-fixed")

    n = x.n
    gplus, lam, gminus, h_acc = birkhoff_factor(x)
    if not gc.eta_anti_fixed_is_unit(datum, lam):
        raise InvalidInputError(NOT_INVERTIBLE)
    # Birkhoff certified gplus * t^lam * gminus == x and h_acc * gplus == 1,
    # so h_acc * x * eta(h_acc)^-1 = t^lam * positioned
    positioned = gminus * gc.apply_eta_inv(h_acc, datum, gplus)
    m = positioned * datum.w1
    bidx = _block_index(lam)
    ell_rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            e = m.entry(i, j)
            if bidx[i] > bidx[j]:
                certify(not e, "positioned loop escapes the parabolic")
            elif bidx[i] == bidx[j]:
                certify(not e or e.val() == e.deg() == 0,
                        "Levi part of the positioned loop is not constant")
                ell_rows[i][j] = e.coeff(0)
    ell = LaurentMatrix.from_scalars(ell_rows)
    # m is ell on the Levi blocks and zero below them, so u is unipotent
    u = m * ell.inverse()
    tlam = LaurentMatrix.t_power(lam)
    tlam_inv = LaurentMatrix.t_power([-v for v in lam])
    h, cur = _unipotent_step(tlam * positioned, tlam, tlam_inv, u, datum)
    hv = h.val()
    certify(hv is None or hv >= 0, "eta unipotent conjugator has negative valuation")
    h_acc = h * h_acc

    g0 = ell
    loop_rep = tlam * g0 * datum.w1.inverse()
    # cur is a twisted conjugate of the anti-fixed input: the equation holds too
    certify(cur == loop_rep, "eta reduction does not replay to the representative")
    return CanonicalForm(tuple(lam), g0, None, h_acc, None, ETA.name, loop_rep)


def _reduce_on_base(reduce, x, datum: GroupDatum, side: Side, classes,
                    tw: Optional[AffineWeylElement] = None) -> CanonicalForm:
    """Reduce the loop x of datum at its base datum for side, which x -> x * c
    carries it to (an untwisted datum is its own base; x is the positioned
    factor of t~w * x when tw is given), class the form there and carry it
    back.  classes is the caller's list of datum's classes at t~w, or on the
    spherical level classes(base, lam): datum's classes at lam from the
    caller's table, or else base's, classified.  A twisted exact form, which
    only eta gives, has its certificate replayed on the loop."""
    xc, base = gc.transport_to_base(x, datum), gc.base_datum(datum, side)
    form = reduce(xc, base) if tw is None else reduce(tw, xc, base)
    # a class carried to datum keeps its label, arguments and torus problem
    if tw is None:
        cls = _match_spherical_class(base, form.lam, form.g0, side, classes(base, form.lam))
        if cls.datum != datum:  # classified at the base: carry only the class picked
            cls = gc.carry_from_base(cls, datum, datum.w1)
    else:
        cls = _torus_class(form.g0, classes)
    form = replace(form, orbit_class=cls)
    if base is datum:
        return form
    form = gc.carry_from_base(form, datum, datum.w1 if tw is None else None)
    if form.residual_precision is None:
        h = form.certificate
        loop = x if tw is None else tw.loop() * x
        certify(h * loop * gc.apply_eta_inv(h, datum) == form.loop_rep,
                "twisted eta certificate does not replay")
    return form


# ---------------------------------------------------------------------------
# Iwahori-level reduction (inputs must be pre-positioned as t~w * g)


def _first_dirt(red: SeriesMatrix) -> Optional[Tuple[int, int]]:
    """Lexicographic defect position of red vs the identity.

    Returns (k, s): k the lowest t-degree with a defect, s the least
    superdiagonal offset j - i carrying one at that degree.
    """
    n = red.n
    best: Optional[Tuple[int, int]] = None
    for i in range(n):
        for j in range(n):
            for k, *_ in red.entry(i, j).int_terms():
                # red = d^-1 * gcur, so its diagonal constant terms are 1
                if k == 0 and i == j:
                    continue
                key = (k, j - i)
                if best is None or key < best:
                    best = key
    return best


def _torus_class(d: LaurentMatrix, classes: Sequence[IwahoriClass]) -> IwahoriClass:
    """The class among the caller's classes at t~w that the reduced torus
    element d lies in."""
    re, im, _ = d.layer_ints(0)
    diag = list(zip(re[::d.n + 1], im[::d.n + 1]))  # over one positive denominator
    if (0, 0) in diag:
        raise InvalidInputError("reduced torus element is singular")
    match = next((cls for cls in classes if cls.contains(diag)), None)
    certify(match is not None, "reduced torus element matches no classified class")
    return match


def _unipotent_step(x: LaurentMatrix, carrier: LaurentMatrix, carrier_inv: LaurentMatrix,
                    u: LaurentMatrix, datum: GroupDatum):
    """h and h * x * eta(h)^-1 for h = carrier * sqrt(u)^-1 * carrier^-1."""
    root, root_inv = unipotent_sqrt(u)
    h = carrier * root_inv * carrier_inv
    return h, h * x * gc.apply_eta_inv(h, datum, carrier * root * carrier_inv)


def _theta_layer_steps(datum: GroupDatum, carrier: LaurentMatrix,
                       carrier_inv: LaurentMatrix, red: SeriesMatrix,
                       key: Tuple[int, int], lam_span: int) -> List[SeriesMatrix]:
    """Conjugators whose combined first-order effect clears the dirty layer.

    Candidates are the elementary Iwahori elements I + Ad_{t~w d}(t^m E_ij);
    each response is read off d_theta0 at the clean torus point.  A move
    that fails to make progress in the layer order stalls the caller's
    loop, which then raises PrecisionError.
    """
    n = red.n
    k, off = key
    stripe = [(i, j) for i in range(n) for j in range(n)
              if j - i == off and not (k == 0 and i == j)]
    target = [-red.coeff(i, j, k) for (i, j) in stripe]
    eps = QI(datum.epsilon)
    ident = LaurentMatrix.identity(n)
    cols: List[List[QI]] = []
    moves: List[LaurentMatrix] = []
    for i0 in range(n):
        for j0 in range(n):
            for m in range(0, k + 2 * lam_span + 3):
                if m == 0 and i0 >= j0:
                    continue
                if (m, j0 - i0) < key:
                    # a coefficient of order the current dirt would feed
                    # its own square back into this layer
                    continue
                yb = LaurentMatrix.monomial(n, i0, j0, m)
                ad = carrier * yb * carrier_inv
                av = ad.val()
                if av is None or av < 0:
                    continue
                if av == 0:
                    c0 = ad.constant_matrix()
                    if any(not c0[i][j].is_zero()
                           for i in range(n) for j in range(i + 1)):
                        continue  # would leave the Iwahori subgroup
                # theta(I + ad)^-1 = I - d_theta0(ad(eps t)) exactly when
                # ad^2 = 0; a diagonal ad squares to degree >= 2m > k,
                # beyond this layer and above the key
                resp = -gc.d_theta0(ad.substitute(eps), datum)
                # at the clean torus point, red responds to first order by
                # yb + resp; a product term left in the layer keeps the key
                # from rising, and the caller's stall check refuses that
                col = [yb.coeff(i, j, k) + resp.coeff(i, j, k) for (i, j) in stripe]
                if all(v.is_zero() for v in col):
                    continue
                cols.append(col)
                moves.append(ad)
    rows = [[cols[b][r] for b in range(len(cols))] for r in range(len(stripe))]
    sol = eliminate(rows)[2](target)
    if sol is None:
        raise InvalidInputError(
            "no admissible reduction step at this layer; "
            "the input is not in the positioned Iwahori slice")
    steps = []
    for y, ad in zip(sol, moves):
        if not y.is_zero():
            steps.append(SeriesMatrix.from_laurent(
                ident + ad.scale(y), red.precision + 4 + 2 * lam_span))
    return steps


def iwahori_reduce_theta(tw: AffineWeylElement, g: SeriesMatrix, datum: GroupDatum,
                         classes: Sequence[IwahoriClass]) -> CanonicalForm:
    """Reduce t~w * g (g in the Iwahori subgroup) to its torus form; classes
    are datum's theta classes at tw (classes_at_tw), and the result's is
    one of them.

    residual_precision is that of the positioned factor t~w^-1 * x, which
    the reduction brings to d: t~w^-1 * h * x * theta(h)^-1 = d to it.  It
    is not the loop's, which canonicalize_theta reports: t^lambda shifts row
    i by lambda_i, so h * x * theta(h)^-1 = t~w * d is certified only to
    residual_precision + min(lambda), less when some lambda_i < 0."""
    return _reduce_on_base(_iwahori_theta, g, datum, THETA, classes, tw)


def _iwahori_theta(tw: AffineWeylElement, g: SeriesMatrix, datum: GroupDatum) -> CanonicalForm:
    """iwahori_reduce_theta's reduction at an untwisted datum, unclassed."""
    n = g.n
    tw_loop = tw.loop()
    c = g.constant_matrix()
    if any(not c[i][j].is_zero() for i in range(n) for j in range(i)) or g.val() < 0:
        raise InvalidInputError("g is not an Iwahori element")
    lam_span = max(abs(v) for v in list(tw.lam) + [1])
    x = tw_loop * g
    if not gc.is_anti_fixed_theta(x, datum):
        raise NotAntiFixedError("t~w * g violates the Iwahori membership equation")

    h_acc = SeriesMatrix.identity(n, x.precision + 4)
    tw_inv = tw_loop.inverse()
    last_key: Optional[Tuple[int, int]] = None
    while True:
        gcur = tw_inv * x
        d = LaurentMatrix.diag_scalars([r[i] for i, r in enumerate(gcur.constant_matrix())])
        red = d.inverse() * gcur
        key = _first_dirt(red)
        if key is None:
            break
        # keys (k, j - i) rise strictly and are bounded by the precision
        if last_key is not None and key <= last_key:
            raise PrecisionError("Iwahori reduction stalled; precision exhausted")
        last_key = key
        carrier = tw_loop * d
        steps = _theta_layer_steps(datum, carrier, carrier.inverse(), red, key, lam_span)
        for hs in steps:
            x = hs * x * gc.apply_theta_inv(hs, datum)
            h_acc = hs * h_acc
    return CanonicalForm(tuple(tw.lam), d, None, h_acc, gcur.precision, THETA.name, tw_loop * d)


def iwahori_reduce_eta(tw: AffineWeylElement, g: LaurentMatrix, datum: GroupDatum,
                       classes: Sequence[IwahoriClass]) -> CanonicalForm:
    """Reduce t~w * g (exact, pre-positioned) to its torus form, exactly;
    classes are datum's eta classes at tw."""
    return _reduce_on_base(_iwahori_eta, g, datum, ETA, classes, tw)


def _iwahori_eta(tw: AffineWeylElement, g: LaurentMatrix, datum: GroupDatum) -> CanonicalForm:
    """iwahori_reduce_eta's reduction at an untwisted datum, unclassed."""
    n = g.n
    tw_loop = tw.loop()
    x = tw_loop * g
    if not gc.is_anti_fixed_eta(x, datum):
        raise NotAntiFixedError("t~w * g violates the Iwahori membership equation")

    h_acc = LaurentMatrix.identity(n)
    for _ in range(2 * n + 5):
        gcur = tw_loop.inverse() * x
        d = LaurentMatrix.diag_scalars([r[i] for i, r in enumerate(gcur.constant_matrix())])
        u = d.inverse() * gcur
        if u == LaurentMatrix.identity(n):
            break
        carrier = tw_loop * d
        h, x = _unipotent_step(x, carrier, carrier.inverse(), u, datum)
        h_acc = h * h_acc
    else:
        raise InvalidInputError("Iwahori eta reduction did not terminate")
    return CanonicalForm(tuple(tw.lam), d, None, h_acc, None, ETA.name, tw_loop * d)
