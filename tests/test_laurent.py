import math
import random
from collections.abc import Mapping

import pytest

from loopmatsuki.errors import InvalidInputError, PrecisionError
from loopmatsuki.gaussian import QI
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix, series_exp
from loopmatsuki.randgen import random_arc_element, random_poly_element, \
    random_qi as random_entry_qi


def test_identity_and_t_power():
    ident = LaurentMatrix.identity(3)
    tl = LaurentMatrix.t_power([2, 0, -1])
    assert tl * ident == tl
    assert tl.val() == -1 and tl.maxdeg() == 2
    assert tl.inverse() == LaurentMatrix.t_power([-2, 0, 1])


def test_laurent_inverse_random():
    rng = random.Random(1)
    for _ in range(10):
        m = random_poly_element(3, 2, rng)
        assert m * m.inverse() == LaurentMatrix.identity(3)
        assert m.inverse() * m == LaurentMatrix.identity(3)


def test_transpose_and_substitute():
    m = LaurentMatrix.zeros(2)
    m.rows[0][1] = Entry.of({3: QI(2, 1)})
    mt = m.transpose()
    assert mt.coeff(1, 0, 3) == QI(2, 1)
    s = m.substitute(QI(-1), invert=False, conj=True)
    assert s.coeff(0, 1, 3) == QI(-2, 1)  # (-1)^3 * conj(2+i)
    si = m.substitute(QI(1), invert=True, conj=False)
    assert si.coeff(0, 1, -3) == QI(2, 1)


def test_series_precision_tracking():
    x = SeriesMatrix.from_laurent(LaurentMatrix.t_power([1, 0]), 5)
    y = SeriesMatrix.from_laurent(LaurentMatrix.t_power([-1, 0]), 5)
    p = x * y
    assert p.precision == 4  # the t^-1 factor costs one unit
    with pytest.raises(PrecisionError):
        p.coeff(0, 0, 4)


def test_series_inverse():
    rng = random.Random(3)
    m = SeriesMatrix.from_laurent(random_poly_element(2, 2, rng), 8)
    prod = m * m.inverse()
    ident = SeriesMatrix.identity(2, prod.precision)
    assert prod == ident


def test_series_inverse_rejects_singular():
    m = LaurentMatrix.zeros(2)
    m.rows[0][0] = Entry.of({1: QI(1)})
    s = SeriesMatrix.from_laurent(m, 3)
    with pytest.raises((InvalidInputError, PrecisionError)):
        s.inverse()


def test_series_exp_of_nilpotent_layer():
    y = LaurentMatrix.zeros(2)
    y.rows[0][1] = Entry.of({1: QI(1)})
    e, _ = series_exp(SeriesMatrix.from_laurent(y, 6))
    assert e.coeff(0, 1, 1) == QI(1)
    assert e.coeff(0, 0, 0) == QI(1)
    assert e * e.inverse() == SeriesMatrix.identity(2, e.precision)
    # the pair carries exp(-y) too; a non-nilpotent y uses every term sign
    y = SeriesMatrix.from_laurent(LaurentMatrix([[{1: 1}, {1: 3}], [{2: 1}, {1: -2}]]), 8)
    e, e_inv = series_exp(y)
    minus_inv, minus = series_exp(y.scale(-1))
    assert e == minus and e_inv == minus_inv
    assert e_inv.precision == e.precision == 8
    assert e * e_inv == SeriesMatrix.identity(2, 8)


def test_retruncate_only_downward():
    m = SeriesMatrix.identity(2, 6)
    assert m.retruncate(3).precision == 3
    with pytest.raises(PrecisionError):
        m.retruncate(9)


# ---------------------------------------------------------------------------
# property tests of the entry kernel against a schoolbook Dict[int, QI] oracle

from fractions import Fraction  # noqa: E402

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from loopmatsuki import laurent  # noqa: E402
from loopmatsuki.laurent import ZERO_ENTRY, Entry  # noqa: E402


def ref_clean(a):
    return {k: v for k, v in a.items() if not v.is_zero()}


def as_dict(e):
    """The entry's nonzero terms as a dict exponent -> QI, the oracles' form."""
    return {k: e.coeff(k) for k, *_ in e.int_terms()}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out[k] + va * vb if k in out else va * vb
    return ref_clean(out)


def ref_det(rows):
    if len(rows) == 1:
        return ref_clean(rows[0][0])
    out = {}
    for c, e in enumerate(rows[0]):
        minor = [r[:c] + r[c + 1:] for r in rows[1:]]
        term = ref_mul(e, ref_det(minor))
        if c % 2:
            term = {k: -v for k, v in term.items()}
        out = ref_add(out, term)
    return out


def ref_subst(a, unit, invert, conj):
    return ref_clean({(-k if invert else k): (c.conj() if conj else c) * unit ** k
                      for k, c in a.items()})


def ref_reciprocal(u, precision):
    inv0 = u[0].inv()
    out = {0: inv0}
    for k in range(1, precision):
        acc = QI(0)
        for j in range(1, k + 1):
            if j in u and k - j in out:
                acc = acc + u[j] * out[k - j]
        if not acc.is_zero():
            out[k] = -inv0 * acc
    return out


# coefficients above 700 bits and mixed denominators, as theta_twist reaches
numerators = st.one_of(st.integers(-6, 6), st.integers(-(2 ** 760), 2 ** 760))
denominators = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 9, 12]),
                         st.integers(1, 2 ** 720))
rationals = st.builds(Fraction, numerators, denominators)
scalars = st.builds(QI, rationals, rationals)
exponents = st.integers(-6, 20)
single = st.dictionaries(exponents, scalars, max_size=1)
sparse = st.dictionaries(exponents, scalars, max_size=6)
dense = st.builds(lambda start, cs: dict(enumerate(cs, start)),
                  st.integers(-6, 6), st.lists(scalars, min_size=8, max_size=30))
entries = st.one_of(single, sparse, dense)

KERNEL = settings(max_examples=60, deadline=None)


@KERNEL
@given(entries, entries)
def test_entry_mul_matches_schoolbook(a, b):
    prod = Entry.of(a) * Entry.of(b)
    assert as_dict(prod) == ref_mul(a, b)
    assert prod == Entry.of(ref_mul(a, b))
    assert len(prod) == len(ref_mul(a, b))


nonzero = scalars.filter(lambda q: not q.is_zero())


def _gapped(start, head, gap, body, tail_gap, tail):
    cs = head + [QI(0)] * gap + body + ([QI(0)] * tail_gap + tail if tail else [])
    return dict(enumerate(cs, start))


# interior zero runs, the shape of a layer conjugator's diagonal 1 + O(t^k):
# c0 + c_k t^k + ..., with a run of zeros on one side of the body or on both
gapped = st.builds(_gapped, st.integers(-6, 6), st.lists(nonzero, min_size=1, max_size=3),
                   st.integers(1, 12), st.lists(nonzero, min_size=1, max_size=4),
                   st.integers(1, 12), st.lists(nonzero, max_size=3))


def fields(e):
    return e._v, e._re, e._im, e._d


@KERNEL
@given(gapped, st.one_of(gapped, entries))
def test_entry_mul_skips_zero_runs(a, b):
    ea, eb = Entry.of(a), Entry.of(b)
    # the zero skip has work to do
    assert any(not r and not i for r, i in zip(ea._re, ea._im))
    want = Entry.of(ref_mul(a, b))
    assert as_dict(ea * eb) == ref_mul(a, b)
    assert fields(ea * eb) == fields(want)
    assert fields(eb * ea) == fields(want)


# the short product: a * b with an exponent limit forms no term at or above
# it and equals the full product truncated there


def cutoffs(prod, data):
    """A limit at or below the product's valuation, inside it, or past its degree."""
    if not prod:
        return data.draw(st.integers(-20, 40))
    v, d = prod.val(), prod.deg()
    return data.draw(st.one_of(st.integers(v - 6, v), st.integers(v, d + 1),
                               st.integers(d + 1, d + 6)))


@KERNEL
@given(entries, st.one_of(entries, gapped), st.data())
def test_mul_below_is_the_truncated_product(a, b, data):
    ea, eb = Entry.of(a), Entry.of(b)
    prod = ea * eb
    limit = cutoffs(prod, data)
    want = fields(prod.truncate(limit))
    assert fields(ea.mul_below(eb, limit)) == want
    assert fields(eb.mul_below(ea, limit)) == want


# no zero term: the real parts may hold zeros, but no coefficient is zero
gapless = st.builds(lambda start, cs: dict(enumerate(cs, start)),
                    st.integers(-6, 6), st.lists(nonzero, min_size=1, max_size=10))


@KERNEL
@given(st.one_of(single, gapless), gapped, st.data())
def test_mul_below_takes_the_operand_swap(a, b, data):
    # a gapped right operand has more zero terms than a left one of one term
    # or of none, so a.mul_below(b) swaps them whenever both are nonzero
    ea, eb = Entry.of(a), Entry.of(b)
    assert any(not r and not i for r, i in zip(eb._re, eb._im))
    limit = cutoffs(ea * eb, data)
    want = Entry.of({k: c for k, c in ref_mul(a, b).items() if k < limit})
    assert fields(ea.mul_below(eb, limit)) == fields(want)
    assert fields(eb.mul_below(ea, limit)) == fields(want)


def test_mul_below_edges():
    a = Entry.of({-2: QI(Fraction(1, 3), 1), 0: Fraction(2, 9), 3: QI(0, -4)})
    b = Entry.of({-1: Fraction(5, 4), 2: 7})
    assert a.mul_below(ZERO_ENTRY, 5) == ZERO_ENTRY == ZERO_ENTRY.mul_below(a, 5)
    assert a.mul_below(b, -3) == ZERO_ENTRY  # the limit at the valuation -3
    assert a.mul_below(b, -2) == Entry.term(-3, QI(Fraction(5, 12), Fraction(5, 4)))
    assert a.mul_below(b, 6) == a * b  # past the degree 5
    assert a.mul_below(b, 5) == (a * b).truncate(5)


def old_series_mul(x, y):
    """The series product as it was computed before the short product: each
    operand cut first, the exact product formed in full, then truncated."""
    va, vb = x.val(), y.val()
    p = min(x.precision + vb, y.precision + va)
    a = LaurentMatrix([[e.truncate(p - vb) for e in r] for r in x.rows])
    b = LaurentMatrix([[e.truncate(p - va) for e in r] for r in y.rows])
    return SeriesMatrix((a * b).rows, p)


series_entries = st.one_of(single, sparse, st.builds(
    lambda start, cs: dict(enumerate(cs, start)),
    st.integers(-4, 4), st.lists(scalars, min_size=2, max_size=10)))


def series_matrices(n, data):
    rows = [[data.draw(series_entries) for _ in range(n)] for _ in range(n)]
    return SeriesMatrix(rows, data.draw(st.integers(-2, 14)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_series_mul_matches_pretruncated_oracle(n, data):
    x, y = series_matrices(n, data), series_matrices(n, data)
    got, want = x * y, old_series_mul(x, y)
    assert got.precision == want.precision
    assert [[fields(e) for e in r] for r in got.rows] == [[fields(e) for e in r] for r in want.rows]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.data())
def test_det_minor_with_limit_is_the_truncated_minor(n, data):
    rows = series_matrices(n, data).rows
    ridx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    cidx = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=len(ridx),
                                    max_size=len(ridx))))
    full = laurent.det_minor(rows, ridx, cidx)
    limit = cutoffs(full, data)
    assert fields(laurent.det_minor(rows, ridx, cidx, limit)) == fields(full.truncate(limit))


@KERNEL
@given(entries, entries)
def test_entry_add_matches_schoolbook(a, b):
    assert as_dict(Entry.of(a) + Entry.of(b)) == ref_add(a, b)
    # a sum that cancels to zero is the zero entry
    diff = Entry.of(ref_add(a, b)) - Entry.of(b)
    assert diff == Entry.of(a) and as_dict(diff) == ref_clean(a)
    assert not (Entry.of(a) - Entry.of(a)) and Entry.of(a) - Entry.of(a) == ZERO_ENTRY


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.data())
def test_det_matches_cofactor_oracle(n, data):
    rows = [[data.draw(st.one_of(single, sparse)) for _ in range(n)] for _ in range(n)]
    assert as_dict(LaurentMatrix(rows).det()) == ref_det(rows)


@KERNEL
@given(entries, scalars.filter(lambda q: not q.is_zero()), st.integers(0, 16))
def test_series_reciprocal_matches_recurrence(a, c0, precision):
    u = {k: v for k, v in a.items() if 0 < k < 20}
    u[0] = c0
    assert as_dict(Entry.of(u).reciprocal(precision)) == ref_reciprocal(u, precision)


@KERNEL
@given(entries, entries, entries, scalars.filter(lambda q: not q.is_zero()))
def test_entry_normal_form_is_history_free(a, b, c, q):
    ea, eb, ec = Entry.of(a), Entry.of(b), Entry.of(c)
    left, right = (ea * eb) * ec, ea * (eb * ec)
    assert left == right and hash(left) == hash(right)
    assert ea * (eb + ec) == ea * eb + ea * ec
    back = ea * Entry.term(0, q) * Entry.term(0, q.inv())
    assert back == ea and hash(back) == hash(ea)
    assert (ea + eb) - eb == ea
    assert ea.shift(3).shift(-3) == ea
    assert all(isinstance(v, QI) for v in ea.values())
    assert ea.coeff(100) == QI(0)


@KERNEL
@given(entries)
def test_entry_is_a_value_not_a_mapping(a):
    e = Entry.of(a)
    assert not isinstance(e, Mapping)
    assert Entry.term(0, 1) != {0: 1} and not Entry.term(0, 1) == {0: 1}
    # dict entries still come in through the matrix constructors
    assert LaurentMatrix([[a]]).entry(0, 0) == e
    assert SeriesMatrix([[a]], 30).entry(0, 0) == e.truncate(30)
    # the benchmark tracer reads values() and len()
    assert list(e.values()) == [e.coeff(k) for k, *_ in e.int_terms()]
    assert len(e) == len(as_dict(e))


@KERNEL
@given(entries, st.sampled_from([QI(1), QI(-1)]), st.booleans(), st.booleans())
def test_substitute_matches_termwise_oracle(a, unit, invert, conj):
    m = LaurentMatrix([[a]])
    assert as_dict(m.substitute(unit, invert, conj).entry(0, 0)) == ref_subst(a, unit, invert, conj)
    if not invert:
        s = SeriesMatrix.from_laurent(m, 25).substitute(unit, conj=conj)
        assert as_dict(s.entry(0, 0)) == ref_clean(
            {k: v for k, v in ref_subst(a, unit, False, conj).items() if k < 25})


small = st.builds(QI, st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4))


@st.composite
def layer_conjugators(draw):
    """(y, k, p): y of valuation k >= 1 with single-term entries c * t^(k + s),
    as a theta layer builds them, known to some N, and k < p <= N."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rows = [[draw(st.one_of(st.just({}), st.builds(lambda s, c: {k + s: c}, st.integers(0, 3), small)))
             for _ in range(n)] for _ in range(n)]
    rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = {k: draw(small.filter(bool))}
    top = draw(st.integers(k + 1, k + 10))
    return SeriesMatrix(rows, top), k, draw(st.integers(k + 1, top))


@settings(max_examples=40, deadline=None)
@given(layer_conjugators())
def test_series_exp_commutes_with_truncation(case):
    # canonicalize_theta builds each layer's exp(y) only to the precision its
    # products read; this lemma keeps those products unchanged
    y, k, p = case
    assert y.val() == k
    # both halves of the pair: exp(y), then exp(-y)
    for low, full in zip(series_exp(y.retruncate(p)), series_exp(y)):
        full = full.retruncate(p)
        assert low.precision == full.precision == p and low.rows == full.rows


# ---------------------------------------------------------------------------
# the monomial and Newton series inverses against the adjugate / det oracle


def adjugate_inverse(m):
    """(-1)^(i+j) * minor(j, i) / det, from cofactor minors: exact on a
    Laurent matrix with a monomial det; on a G(O) series known to N, the
    truncation's det is a unit series, inverted modulo t^N."""
    n, p = m.n, m.precision
    exact = m if p is None else m.to_laurent()
    d = exact.det()
    if p is None:
        assert len(d) == 1
        k = d.val()
        dinv = Entry.term(-k, d.coeff(k).inv())
    else:
        dinv = d.reciprocal(p)
    idx = list(range(n))

    def cofactor(i, j):
        minor = laurent.det_minor(exact.rows, [r for r in idx if r != j],
                                  [c for c in idx if c != i])
        return minor * Entry.term(0, (-1) ** (i + j)) * dinv

    rows = [[cofactor(i, j) for j in idx] for i in idx]
    return LaurentMatrix(rows) if p is None else SeriesMatrix(rows, p)


@st.composite
def arc_elements(draw):
    """An n x n series in G(O), n in 1..4, known to N in 1..12: an invertible
    constant term plus, unless the input is constant, sparse higher terms
    with gaps between their exponents (some at or past N)."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    const = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(LaurentMatrix.from_scalars(const).det())
    higher = st.just({}) if draw(st.booleans()) else st.dictionaries(
        st.integers(1, 14), small, max_size=3)
    return SeriesMatrix([[{0: c, **draw(higher)} for c in r] for r in const], p)


@settings(max_examples=60, deadline=None)
@given(arc_elements())
def test_series_inverse_is_the_cofactor_inverse(a):
    # the Newton lift equals the adjugate over the unit det, field for field,
    # and keeps the input precision
    inv = a.inverse()
    want = adjugate_inverse(a)
    assert inv.precision == want.precision == a.precision
    assert inv.rows == want.rows


@pytest.mark.parametrize("rows", [
    [[{-1: 1, 0: 1}, {}], [{}, {0: 1}]],  # a negative exponent
    # constant term [[1, 2], [1, 2]], det 2t + t^3 + t^4: not a unit
    [[{0: 1, 1: 1}, {0: 2}], [{0: 1}, {0: 2, 3: 1}]],
])
def test_series_inverse_refuses_a_matrix_outside_the_arc_group(rows):
    with pytest.raises(InvalidInputError, match=r"not invertible in G\(O\)"):
        SeriesMatrix(rows, 6).inverse()


def test_series_inverse_at_rank_eight():
    a = random_arc_element(8, 14, random.Random(8))
    prod = a * a.inverse()
    assert prod.precision == 14 and prod == SeriesMatrix.identity(8, 14)


def counting_det(monkeypatch):
    calls = []
    det = LaurentMatrix.det
    monkeypatch.setattr(LaurentMatrix, "det", lambda self: calls.append(1) or det(self))
    return calls


nonunit_denominators = st.integers(2, 2 ** 40)
gaussian_nonzero = st.builds(QI, st.builds(Fraction, st.integers(-50, 50), nonunit_denominators),
                             st.builds(Fraction, st.integers(-50, 50), nonunit_denominators)
                             ).filter(lambda q: not q.is_zero())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(gaussian_nonzero, min_size=n, max_size=n),
    st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_monomial_inverse_matches_adjugate(case):
    w, cs, ks = case
    n = len(w)
    m = LaurentMatrix.zeros(n)
    for i in range(n):
        m.rows[w[i]][i] = Entry.term(ks[i], cs[i])
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_det(mp)
        inv = m.inverse()
    assert not calls
    assert inv == adjugate_inverse(m)  # Entry equality compares the normal-form fields
    assert m * inv == LaurentMatrix.identity(n)


NEAR_MONOMIAL = [
    [[{0: 1}, {2: QI(Fraction(1, 3), 1)}], [{}, {-1: 2}]],       # second entry in a row
    [[{}, {1: 5}, {}], [{0: 1}, {}, {0: 1, 1: 1}], [{}, {}, {0: 1}]],  # two-term entry
    [[{0: 1, 1: 1}, {0: 1}], [{1: 1}, {0: 1}]],                   # two terms, det 1
]


@pytest.mark.parametrize("rows", NEAR_MONOMIAL)
def test_near_monomial_inverse_takes_cofactor_path(monkeypatch, rows):
    m = LaurentMatrix(rows)
    calls = counting_det(monkeypatch)
    inv = m.inverse()
    assert calls and inv == adjugate_inverse(m)
    assert m * inv == LaurentMatrix.identity(m.n)


@pytest.mark.parametrize("rows", [
    [[{0: 1}, {}], [{}, {}]],                 # zero row
    [[{0: 1}, {}], [{1: 1}, {}]],             # zero column
    [[{0: 1, 1: 1}, {}], [{}, {0: 1}]],       # diag(1 + t, 1)
])
def test_non_invertible_near_monomial_raises(monkeypatch, rows):
    calls = counting_det(monkeypatch)
    with pytest.raises(InvalidInputError):
        LaurentMatrix(rows).inverse()
    assert calls


# ---------------------------------------------------------------------------
# the shared matrix core: one set of entrywise operations for both kinds

import operator  # noqa: E402
from itertools import permutations  # noqa: E402

CORE_A = [[{-1: 2, 1: QI(0, 1)}, {0: Fraction(1, 3)}], [{}, {2: 1, 5: -1}]]
CORE_B = [[{0: 1}, {3: QI(1, -2)}], [{1: -4}, {}]]


def _kind(rows, precision):
    return LaurentMatrix(rows) if precision is None else SeriesMatrix(rows, precision)


PRECISION_PAIRS = [(None, None), (None, 4), (6, None), (3, 7), (7, 3)]


BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@pytest.mark.parametrize("pa,pb", PRECISION_PAIRS)
@pytest.mark.parametrize("op", sorted(BINARY_OPS))
def test_entrywise_ops_keep_the_least_precision(pa, pb, op):
    # + and - keep the least precision; a product is known below
    # min(Na + v(B), Nb + v(A)), an exact factor's N counting as infinite
    a, b = _kind(CORE_A, pa), _kind(CORE_B, pb)
    la, lb = LaurentMatrix(CORE_A), LaurentMatrix(CORE_B)
    shifts = (lb.val(), la.val()) if op == "mul" else (0, 0)
    bounds = [p + v for p, v in zip((pa, pb), shifts) if p is not None]
    want = min(bounds) if bounds else None
    out = BINARY_OPS[op](a, b)
    assert out.precision == want
    assert type(out) is (LaurentMatrix if want is None else SeriesMatrix)
    exact = BINARY_OPS[op](la, lb)
    assert out.rows == (exact if want is None else SeriesMatrix.from_laurent(exact, want)).rows


@pytest.mark.parametrize("p", [None, 4])
def test_an_exact_zero_factor_gives_the_exact_zero(p):
    a, zero = _kind(CORE_A, p), LaurentMatrix.zeros(2)
    for out in (zero * a, a * zero):
        assert type(out) is LaurentMatrix and out == zero


def test_mixed_products_are_series_in_both_orders():
    # a product with a series factor is a series whichever side the exact
    # factor is on: it is read only as far as the series' precision allows
    s = SeriesMatrix([[{0: 1, 5: 1}, {}], [{}, {0: 1}]], 3)
    tp = LaurentMatrix.t_power([1, -1])
    for out in (tp * s, s * tp):
        assert type(out) is SeriesMatrix and out.precision == 2
        assert out.rows == tp.rows


def test_each_kind_keeps_its_own_traced_methods():
    # a benchmark tracer patches these names in each class's own __dict__
    for cls, names in ((LaurentMatrix, ("__mul__", "inverse", "det")),
                       (SeriesMatrix, ("__mul__", "inverse", "det_with_precision"))):
        assert all(name in cls.__dict__ for name in names)


@pytest.mark.parametrize("unit", [QI(0, 1), QI(0, -1), QI(2), QI(Fraction(1, 2), 3)])
def test_substitute_refuses_a_unit_other_than_plus_or_minus_one(unit):
    for m in (LaurentMatrix(CORE_A), SeriesMatrix(CORE_A, 4)):
        with pytest.raises(InvalidInputError, match="must be 1 or -1"):
            m.substitute(unit)


@pytest.mark.parametrize("p", [None, 1, 4])
def test_unary_ops_keep_kind_and_precision(p):
    a = _kind(CORE_A, p)
    exact = LaurentMatrix(CORE_A)
    for got, want in [(-a, exact.scale(-1)), (a.scale(QI(2, 1)), exact.scale(QI(2, 1))),
                      (a.transpose(), LaurentMatrix([list(c) for c in zip(*CORE_A)])),
                      (a.substitute(QI(-1), conj=True), exact.substitute(QI(-1), conj=True))]:
        assert type(got) is type(a) and got.precision == p
        assert got.rows == (want if p is None else SeriesMatrix.from_laurent(want, p)).rows
    assert a.entry(0, 1) == Entry.of({0: Fraction(1, 3)})
    assert a.val() == -1
    assert a.maxdeg() == {None: 5, 1: 0, 4: 2}[p]
    assert not a.is_zero() and not a.is_constant()
    assert _kind([[{0: 3}, {}], [{}, {}]], p).is_constant()


def test_zero_matrix_valuation_is_none_or_the_precision():
    assert LaurentMatrix.zeros(2).val() is None
    assert SeriesMatrix.from_laurent(LaurentMatrix.zeros(2), 5).val() == 5


def test_series_only_refusals():
    s = SeriesMatrix(CORE_A, 2)
    with pytest.raises(PrecisionError):
        s.coeff(0, 0, 2)
    with pytest.raises(PrecisionError):
        SeriesMatrix(CORE_A, 0).constant_matrix()
    with pytest.raises(PrecisionError):
        s.substitute(QI(1), invert=True)
    exact = LaurentMatrix(CORE_A)
    assert exact.coeff(1, 1, 5) == QI(-1)
    assert exact.substitute(QI(1), invert=True).coeff(0, 0, 1) == QI(2)
    assert s.constant_matrix()[0][1] == QI(Fraction(1, 3))


@pytest.mark.parametrize("p", [None, 5])
def test_operands_of_different_sizes_are_refused(p):
    a, b = _kind(CORE_A, p), _kind([[{0: 1}]], p)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(InvalidInputError, match="2x2 against 1x1|1x1 against 2x2"):
            op()


def perm_matrix(w):
    """The permutation matrix builder that LaurentMatrix.permutation replaced."""
    n = len(w)
    rows = [[QI(0)] * n for _ in range(n)]
    for i in range(n):
        rows[w[i]][i] = QI(1)
    return LaurentMatrix.from_scalars(rows)


def test_permutation_matches_the_old_builder():
    for n in range(0, 6):
        for w in permutations(range(n)):
            m = LaurentMatrix.permutation(w)
            assert m == perm_matrix(w) and m.n == n
            assert all(fields(a) == fields(b) for ra, rb in zip(m.rows, perm_matrix(w).rows)
                       for a, b in zip(ra, rb))
    cs = [QI(2), QI(0, -1), Fraction(1, 2)]
    want = [[0, 0, Fraction(1, 2)], [QI(2), 0, 0], [0, QI(0, -1), 0]]
    assert LaurentMatrix.permutation((1, 2, 0), cs) == LaurentMatrix.from_scalars(want)
    assert LaurentMatrix.diag_scalars(cs) == LaurentMatrix.permutation(range(3), cs)


def test_block_diag_matches_hand_assembly():
    rng = random.Random(5)
    blocks = [random_poly_element(k, 1, rng) for k in (2, 1, 3)]
    n = 6
    rows = [[{} for _ in range(n)] for _ in range(n)]
    start = 0
    for b in blocks:
        for i in range(b.n):
            for j in range(b.n):
                rows[start + i][start + j] = b.entry(i, j)
        start += b.n
    assert LaurentMatrix.block_diag(blocks) == LaurentMatrix(rows)
    assert LaurentMatrix.block_diag([LaurentMatrix.identity(1)] * 4) == LaurentMatrix.identity(4)


def _plain_exp_sum(a, sign, count):
    """sum_{m <= count} (sign * a)^m / m!, one power at a time."""
    ident = SeriesMatrix.identity(a.n, a.precision)
    out, power = ident, ident
    for m in range(1, count + 1):
        power = power * a.scale(sign)
        out = out + power.scale(Fraction(1, math.factorial(m)))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(2, 9), st.randoms(use_true_random=False))
def test_series_exp_on_positive_valuation_series(n, v, p, rng):
    a = SeriesMatrix([[{k: random_entry_qi(rng) for k in range(v, p) if rng.random() < 0.4}
                       for _ in range(n)] for _ in range(n)], p)
    # a's valuation is at least v, so a^m vanishes modulo t^p past terms
    terms = (p - 1) // v
    e, e_inv = series_exp(a)
    assert e.precision == e_inv.precision == p
    assert e * e_inv == SeriesMatrix.identity(n, p)
    assert e == _plain_exp_sum(a, 1, terms) and e_inv == _plain_exp_sum(a, -1, terms)


# Scaling multiplies each entry's integers by c's numerator and its
# denominator by c's denominator; the oracle is the old route, an entry
# product with the monomial c.  The normal form is unique, so the fields
# (and so the bytes) must be equal.
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.one_of(st.integers(-5, 5), rationals, scalars), st.data())
def test_scale_is_the_product_with_the_constant(n, c, data):
    m = series_matrices(n, data)
    for a in (m, m.to_laurent()):
        got, q = a.scale(c), Entry.term(0, c)
        assert got.precision == a.precision
        assert ([[fields(e) for e in r] for r in got.rows]
                == [[fields(e * q) for e in r] for r in a.rows])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_layer_ints_and_zero_windows_read_the_coefficients(n, data):
    m = series_matrices(n, data)
    for k in range(-6, m.precision):
        re, im, d = m.layer_ints(k)
        assert d > 0
        want = [m.coeff(i, j, k) for i in range(n) for j in range(n)]
        assert [QI(Fraction(x, d), Fraction(y, d)) for x, y in zip(re, im)] == want
        for lo in range(-6, k + 1):
            assert m.is_zero_between(lo, k + 1) == all(
                m.coeff(i, j, kk).is_zero() for kk in range(lo, k + 1)
                for i in range(n) for j in range(n))
    with pytest.raises(PrecisionError):
        m.layer_ints(m.precision)
    with pytest.raises(PrecisionError):
        m.is_zero_between(0, m.precision + 1)


@KERNEL
@given(exponents, numerators, numerators, denominators)
def test_int_term_is_the_monomial_in_normal_form(k, re, im, d):
    got = Entry.int_term(k, re, im, d)
    want = Entry.term(k, QI(Fraction(re, d), Fraction(im, d)))
    assert fields(got) == fields(want)
