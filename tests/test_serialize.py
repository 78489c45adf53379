"""JSON/TSV round trips and the re-ingestion property of emitted rows."""

import json
import random
from fractions import Fraction

import loopmatsuki.group_catalog as gc
from loopmatsuki.bundles_kottwitz import enumerate_kottwitz, kottwitz_validate
from loopmatsuki.canonicalize import canonicalize_eta
from loopmatsuki.coweight_orbits import classify_eta, enumerate_admissible
from loopmatsuki.gaussian import QI, qi_from_str, qi_to_str
from loopmatsuki.laurent import Entry, LaurentMatrix, SeriesMatrix
from loopmatsuki.randgen import random_arc_element, random_poly_element
from loopmatsuki.serialize import (
    TSV_COLUMNS,
    const_matrix_to_json,
    dumps,
    kottwitz_to_json,
    laurent_from_json,
    laurent_to_json,
    orbit_row,
    rows_to_tsv,
)


def test_laurent_roundtrip():
    rng = random.Random(21)
    for _ in range(10):
        m = random_poly_element(3, 2, rng) * LaurentMatrix.t_power([-1, 0, 2])
        doc = laurent_to_json(m)
        assert "precision" not in doc
        back = laurent_from_json(json.loads(json.dumps(doc)))
        assert isinstance(back, LaurentMatrix)
        assert back == m


def test_series_roundtrip_keeps_precision():
    rng = random.Random(22)
    s = random_arc_element(2, 5, rng)
    doc = laurent_to_json(s)
    assert doc["precision"] == 5
    back = laurent_from_json(doc)
    assert isinstance(back, SeriesMatrix)
    assert back == s


def as_dict(e):
    """The entry's nonzero terms as a dict exponent -> QI."""
    return {k: e.coeff(k) for k, *_ in e.int_terms()}


def _oracle_json(m):
    """laurent_to_json's entries through each coefficient as QI and qi_to_str."""
    return [[{str(k): qi_to_str(v) for k, v in as_dict(e).items()} for e in row]
            for row in m.rows]


def _random_coefficient(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice((QI(1), QI(-1), QI(0, 1), QI(0, -1)))
    part = lambda: Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 12, 35)))
    if kind == 1:
        return QI(part(), 0)  # zero imaginary part
    if kind == 2:
        return QI(0, part())  # zero real part
    return QI(part(), part())


def test_integer_json_path_matches_the_qi_path():
    rng = random.Random(24)
    for trial in range(300):
        n = rng.randint(1, 3)
        rows = [[Entry.of({rng.randint(-4, 4): _random_coefficient(rng)
                           for _ in range(rng.randint(0, 4))}) for _ in range(n)]
                for _ in range(n)]
        m = LaurentMatrix(rows)
        doc = laurent_to_json(m)
        assert doc == {"n": n, "entries": _oracle_json(m)}
        assert json.dumps(doc) == json.dumps({"n": n, "entries": _oracle_json(m)})
        s = SeriesMatrix(rows, trial % 7)
        assert laurent_to_json(s) == {"n": n, "entries": _oracle_json(s),
                                      "precision": trial % 7}


def test_integer_json_path_on_coefficient_edge_cases():
    cases = [QI(1), QI(-1), QI(0, 1), QI(0, -1), QI(Fraction(2, 4)), QI(0, Fraction(-6, 8)),
             QI(Fraction(1, 3), Fraction(-1, 6)), QI(Fraction(-5, 7), 1), QI(3, -1),
             QI(Fraction(1, 2), Fraction(1, 2))]
    for c in cases:
        for k in (-3, 0, 2):
            m = LaurentMatrix([[Entry.term(k, c), Entry.of({})], [Entry.of({}), Entry.term(k, c)]])
            assert laurent_to_json(m)["entries"] == _oracle_json(m)
            assert laurent_to_json(m)["entries"][0][0] == {str(k): qi_to_str(c)}
    assert laurent_to_json(LaurentMatrix([[Entry.of({})]]))["entries"] == [[{}]]


def test_const_matrix_roundtrip():
    rng = random.Random(23)
    from loopmatsuki.randgen import random_constant_invertible
    m = random_constant_invertible(3, rng)
    assert gc.matrix_from_config(const_matrix_to_json(m), 3) == m


def test_kottwitz_roundtrip():
    d = gc.build_datum("split_gl", 2, -1)
    for p in enumerate_kottwitz(d, 1):
        doc = json.loads(json.dumps(kottwitz_to_json(p)))
        assert tuple(doc["lambda"]) == p.lam
        assert gc.matrix_from_config(doc["g"], d.n) == p.g
        assert qi_from_str(doc["z"]) == p.z
        assert kottwitz_validate(p, d)


def test_tsv_projection():
    d = gc.build_datum("unitary", 2, 1)
    rows = [orbit_row(c) for a in enumerate_admissible(d, 0)
            for c in classify_eta(d, a)]
    text = rows_to_tsv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "\t".join(TSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    for line in lines[1:]:
        assert len(line.split("\t")) == len(TSV_COLUMNS)


def test_dumps_deterministic():
    doc = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    out = dumps(doc)
    assert out == dumps({"a": {"x": 2, "y": 1}, "b": [1, 2]})
    assert out.endswith("\n")
    assert out.index('"a"') < out.index('"b"')


def test_emitted_rows_reingest():
    """An emitted representative parses back, is anti-fixed, and
    re-canonicalizes to the same (lambda, label)."""
    for family, eps in [("split_gl", -1), ("quaternionic_gl", 1),
                        ("unitary", 1)]:
        d = gc.build_datum(family, 2, eps)
        for adm in enumerate_admissible(d, 1):
            for cls in classify_eta(d, adm):
                row = json.loads(dumps(orbit_row(cls)))
                rep = laurent_from_json(row["representative"])
                assert gc.is_anti_fixed_eta(rep, d)
                form = canonicalize_eta(rep, d)
                assert list(form.lam) == row["lambda"]
                assert form.orbit_class.label == row["label"]
