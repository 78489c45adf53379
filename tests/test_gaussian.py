from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loopmatsuki.gaussian import FOURTH_ROOTS, QI, qi_from_str, qi_to_str

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64)


@given(rationals, rationals, rationals, rationals)
def test_field_axioms_sample(a, b, c, d):
    x = QI(a, b)
    y = QI(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y).conj() == x.conj() + y.conj()
    if not y.is_zero():
        assert (x / y) * y == x


@given(rationals, rationals)
def test_str_round_trip(a, b):
    x = QI(a, b)
    assert qi_from_str(qi_to_str(x)) == x


@pytest.mark.parametrize("s, want", [
    ("0/1+1/1*i", QI(0, 1)), ("1+i", QI(1, 1)), ("-i", QI(0, -1)), ("+i", QI(0, 1)),
    ("2/4", QI(Fraction(1, 2))), (" -3/5 - 2/6*i ", QI(Fraction(-3, 5), Fraction(-1, 3))),
    ("7*i", QI(0, 7)), ("+2", QI(2)),
])
def test_wire_grammar_accepts(s, want):
    assert qi_from_str(s) == want


@pytest.mark.parametrize("s", [
    "1.5", "1e3", "1e1000000", "1_000", "1+2", "i+1", "", "+", "1+", "1+-i", "--1", "1i",
    "i*2", "2*i*i", "1/2/3", "x", "inf", "\u0661", "1" * 5000,
])
def test_wire_grammar_rejects(s):
    with pytest.raises(ValueError):
        qi_from_str(s)


def test_inverse_and_pow():
    x = QI(Fraction(3, 2), Fraction(-1, 3))
    assert x * x.inv() == QI(1)
    assert x ** -2 == (x.inv()) ** 2
    assert x ** 0 == QI(1)


def test_fourth_roots():
    i = QI(0, 1)
    assert i * i == QI(-1)
    assert i ** 4 == QI(1)
    for r in FOURTH_ROOTS:
        assert r ** 4 == QI(1)


def test_is_real():
    assert QI(Fraction(5, 3)).is_real()
    assert not QI(0, 1).is_real()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)
