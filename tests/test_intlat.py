import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from loopmatsuki.gaussian import QI
from loopmatsuki.intlat import (
    FractionFree, as_fractions, eliminate, integer_left_kernel_basis, lattice_basis, mat_mul,
    snf_diagonal, snf_int,
)


# Gauss-Jordan over the field itself, entry by entry in Fraction or QI: the
# oracle for the library's fraction-free elimination over Z[i].

def field_eliminate(a):
    """(reduced rows, pivot columns, solve) by Gauss-Jordan over the field of
    a's entries; solve(b) replays the row operations on b and returns the
    solution zero at the free columns, or None if a*x = b has none."""
    m = len(a)
    cols = len(a[0]) if m else 0
    rows = [list(r) for r in a]
    ops, pivots = [], []
    for c in range(cols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv() if isinstance(rows[r][c], QI) else 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        fs = []
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                fs.append((i, f))
        ops.append((r, pr, inv, fs))
        pivots.append(c)
    rank = len(pivots)
    zero = type(a[0][0])(0) if cols else None

    def solve(b):
        b = list(b)
        for pr, swap, inv, fs in ops:
            b[pr], b[swap] = b[swap], b[pr]
            b[pr] = b[pr] * inv
            for i, f in fs:
                b[i] = b[i] - f * b[pr]
        if any(b[rank:]):
            return None
        x = [zero] * cols
        for i, c in enumerate(pivots):
            x[c] = b[i]
        return x

    return rows, pivots, solve


# The right kernel over a field, read off the reduced rows of eliminate: an
# oracle independent of the kernels the library reads off Smith forms and
# Birkhoff row reductions, against which they are tested.

def kernel_basis(rows, pivots) -> list:
    """Basis of the right kernel, read off the reduced rows of ``eliminate``.

    One vector per free column, in column order: 1 at that column and
    minus the pivot rows' entries there at the pivots.
    """
    cols = len(rows[0]) if rows else 0
    if not cols:
        return []
    kind = type(rows[0][0])
    zero, one = kind(0), kind(1)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [zero] * cols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(v)
    return basis


def _random_int_matrix(rng, rows, cols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def test_snf_random():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        u, d, v = snf_int(m)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = snf_diagonal(d)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        # U is unimodular: U x = e_i has an integral solution for every i
        solve = eliminate(as_fractions(u))[2]
        for i in range(len(m)):
            x = solve([int(r == i) for r in range(len(m))])
            assert x is not None and all(c.denominator == 1 for c in x)


def test_solve_rational():
    solve = eliminate(as_fractions([[2, 0], [0, 3]]))[2]
    assert solve([1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert eliminate(as_fractions([[1, 1], [1, 1]]))[2]([0, 1]) is None


def test_kernels():
    rows, pivots, _ = eliminate(as_fractions([[1, -1, 0], [0, 0, 2]]))
    assert kernel_basis(rows, pivots) == [[1, 1, 0]]
    lk = integer_left_kernel_basis([[2, 4], [1, 2]])
    assert len(lk) == 1
    k = lk[0]
    assert k[0] * 2 + k[1] * 1 == 0 and k[0] * 4 + k[1] * 2 == 0


def test_lattice_membership():
    half, zero, one = Fraction(1, 2), Fraction(0), Fraction(1)
    basis = lattice_basis([[half, zero], [zero, one]])
    assert basis == [[half, zero], [zero, one]]
    # a redundant generator: Z(1/2, 1/2) + Z^2 has index 2 over Z^2
    basis = lattice_basis([[half, half], [one, zero], [zero, one]])
    assert len(basis) == 2
    solve = eliminate([list(col) for col in zip(*basis)])[2]
    for v, member in (([half, half], True), ([one, zero], True),
                      ([half, zero], False), ([Fraction(3, 2), Fraction(5, 2)], True)):
        coords = solve(v)
        assert all(c.denominator == 1 for c in coords) == member
    assert all(c.denominator == 1 for c in solve([zero, one]))


# ---------------------------------------------------------------------------
# the elimination kernel against an independent cofactor-determinant oracle


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _rank(m):
    """Size of the largest nonzero minor."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        if any(_det([[m[i][j] for j in cs] for i in rs]) != 0
               for rs in combinations(range(rows), k)
               for cs in combinations(range(cols), k)):
            return k
    return 0


def _apply(a, x, zero):
    return [sum((ai * xi for ai, xi in zip(row, x)), zero) for row in a]


@st.composite
def _systems(draw):
    """(a, b, b_in_span) over Fraction or QI: square, wide, tall, and of
    rank at most `cap` (rank-deficient when cap < min(rows, cols))."""
    field = draw(st.sampled_from([Fraction, QI]))
    small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def scalar():
        if field is Fraction:
            return draw(small)
        return QI(draw(small), draw(small))

    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cap = draw(st.integers(0, min(rows, cols)))
    left = [[scalar() for _ in range(cap)] for _ in range(rows)]
    right = [[scalar() for _ in range(cols)] for _ in range(cap)]
    zero = field(0)
    a = [[sum((left[i][k] * right[k][j] for k in range(cap)), zero)
          for j in range(cols)] for i in range(rows)]
    in_span = draw(st.booleans())
    if in_span:
        b = _apply(a, [scalar() for _ in range(cols)], zero)
    else:
        b = [scalar() for _ in range(rows)]
    return a, b, in_span


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_eliminate_against_rank_oracle(system):
    a, b, in_span = system
    zero = type(a[0][0])(0)
    rank = _rank(a)
    rows, pivots, solve = eliminate(a)
    assert len(pivots) == rank
    # reduced row echelon form: unit pivots, alone in their columns
    for i, row in enumerate(rows):
        for k, c in enumerate(pivots):
            assert row[c] == (1 if i == k else 0)
        if i >= rank:
            assert not any(row)

    x = solve(b)
    outside = _rank([row + [v] for row, v in zip(a, b)]) > rank
    assert (x is None) == outside
    if in_span:
        assert x is not None
    if x is not None:
        assert _apply(a, x, zero) == b

    basis = kernel_basis(rows, pivots)
    assert len(basis) == len(a[0]) - rank
    for v in basis:
        assert _apply(a, v, zero) == [zero] * len(a)
    if basis:
        assert _rank(basis) == len(basis)


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_eliminate_is_gauss_jordan_over_the_field(system):
    """The fraction-free elimination gives the field's reduced rows, pivots
    and solutions, of the field's type, value for value."""
    a, b, _ = system
    rows, pivots, solve = eliminate(a)
    want_rows, want_pivots, want_solve = field_eliminate(a)
    assert pivots == want_pivots
    assert rows == want_rows
    assert all(type(x) is type(a[0][0]) for row in rows for x in row)
    x, want = solve(b), want_solve(b)
    assert x == want
    assert x is None or all(type(v) is type(a[0][0]) for v in x)


def test_fraction_free_rows_are_integer_multiples_of_the_reduced_rows():
    # [[2, 4], [3, 5]] over Q: pivot rows end with positive integer pivots
    ff = FractionFree([[2, 4], [3, 5]], [[0, 0], [0, 0]])
    assert ff.pivots == [0, 1]
    for r, (re, im) in enumerate(ff.rows):
        assert re[r] > 0 and not re[1 - r] and not any(im)
    xr, xi, xd = ff.solve([2, 3], [0, 0])  # x = (1, 0)
    assert [Fraction(u, d) for u, d in zip(xr, xd)] == [1, 0] and not any(xi)
    assert ff.solve([1, 1], [0, 0]) is not None
    rank_one = FractionFree([[1, 1], [2, 2]], [[0, 1], [0, 2]])  # rows (1, 1+i), 2 * that
    assert rank_one.pivots == [0]
    assert rank_one.solve([1, 2], [0, 0]) == ([1, 0], [0, 0], [1, 1])
    assert rank_one.solve([1, 3], [0, 0]) is None
