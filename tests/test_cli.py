"""In-process CLI tests: goldens, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from loopmatsuki import cli
from loopmatsuki.cli import main
from loopmatsuki.serialize import TSV_COLUMNS


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


DIAG_T2_T = {"n": 2, "entries": [[{"2": "1"}, {}], [{}, {"1": "1"}]]}
QUAT_LOOP = {"n": 2, "entries": [[{}, {"1": "1"}], [{"1": "-1"}, {}]]}


def test_orbits_counts_and_tsv(capsys):
    rc, out, _ = run(capsys, "orbits", "--family", "unitary", "--bound", "0",
                     "--side", "eta")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert {r["aut_label"] for r in rows} == {"U(2,0)", "U(1,1)", "U(0,2)"}
    rc, out, _ = run(capsys, "orbits", "--family", "unitary", "--bound", "0",
                     "--side", "eta", "--format", "tsv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "\t".join(TSV_COLUMNS)
    assert len(lines) == 4


def test_match_golden(capsys):
    rc, out, _ = run(capsys, "match", "--family", "unitary", "--bound", "1",
                     "--verify-samples", "20", "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 4
    assert doc["total_failures"] == 0


def test_match_verifies_a_quaternionic_pole(capsys):
    """GL_2(H) at epsilon = -1 has a common representative with a pole at
    lambda = (1, 1, 1, -1); its theta anti-fixedness test takes no inverse,
    so the twisted loop needs no precision beyond its own."""
    rc, out, _ = run(capsys, "match", "--family", "quaternionic_gl", "--n", "4",
                     "--epsilon", "-1", "--bound", "1", "--verify-samples", "3", "--seed", "7")
    assert rc == 0
    assert json.loads(out)["total_failures"] == 0


def test_match_deterministic(tmp_path, capsys):
    argv = ["match", "--family", "split_gl", "--epsilon", "-1",
            "--bound", "1", "--verify-samples", "5", "--seed", "3"]
    outputs = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        rc = main(argv + ["--out", str(p)])
        assert rc == 0
        outputs.append(p.read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_from_environment(tmp_path, capsys, monkeypatch):
    argv = ["match", "--family", "split_gl", "--bound", "1",
            "--verify-samples", "5"]
    monkeypatch.setenv("LOOPMATSUKI_SEED", "42")
    a = tmp_path / "env.json"
    assert main(argv + ["--out", str(a)]) == 0
    b = tmp_path / "flag.json"
    assert main(argv + ["--seed", "42", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_kottwitz_count(capsys):
    rc, out, _ = run(capsys, "kottwitz", "--family", "split_gl",
                     "--epsilon", "-1", "--bound", "1")
    assert rc == 0
    assert len(json.loads(out)) == 3


def test_canonicalize_theta_golden(tmp_path, capsys):
    path = write_json(tmp_path / "x.json", DIAG_T2_T)
    rc, out, _ = run(capsys, "canonicalize", "--family", "split_gl",
                     "--side", "theta", "--input", path, "--precision", "8")
    assert rc == 0
    doc = json.loads(out)
    assert doc["lambda"] == [2, 1]
    assert doc["orbit_class"]["label"] == "Sym|Sym"


def test_canonicalize_eta_golden(tmp_path, capsys):
    path = write_json(tmp_path / "x.json", QUAT_LOOP)
    rc, out, _ = run(capsys, "canonicalize", "--family", "split_gl",
                     "--epsilon", "-1", "--side", "eta", "--input", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["lambda"] == [1, 1]
    assert doc["orbit_class"]["aut_label"] == "GL1(H)"


def test_config_file_and_inner_twist(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "family": "unitary", "n": 2, "epsilon": 1,
        "inner_twist": [["1", "0"], ["0", "-1"]]})
    rc, out, _ = run(capsys, "orbits", "--config", cfg, "--bound", "0",
                     "--side", "eta")
    assert rc == 0
    assert len(json.loads(out)) == 3


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "loopmatsuki.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # main() builds its parser once per process; later calls, a --side the
    # first call did not pick, and an argparse error after a successful call
    # read as they do in a process of their own
    monkeypatch.setenv("COLUMNS", "100")  # argparse wraps usage to the terminal
    calls = [["orbits", "--family", "unitary", "--bound", "0", "--side", "eta"],
             ["orbits", "--family", "split_gl", "--bound", "1", "--level", "iwahori",
              "--side", "theta"],
             ["orbits", "--family", "split_gl", "--epsilon", "-1", "--bound", "1",
              "--format", "tsv"]]
    for argv in calls:
        assert run(capsys, *argv) == _fresh_process(argv)
    assert cli.build_parser() is cli.build_parser()
    bad = ["orbits", "--family", "nope"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert (2, got.out, got.err) == _fresh_process(bad)
    assert "invalid choice: 'nope'" in got.err


def test_exit_codes(tmp_path, capsys):
    # 2: invalid input (missing datum flags)
    rc, _, err = run(capsys, "orbits")
    assert rc == 2
    # 2: tsv outside orbit tables
    rc, _, err = run(capsys, "kottwitz", "--family", "split_gl",
                     "--format", "tsv")
    assert rc == 2
    # 2: malformed JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "canonicalize", "--family", "split_gl",
                     "--side", "eta", "--input", str(bad))
    assert rc == 2
    # 2: missing file
    rc, _, err = run(capsys, "canonicalize", "--family", "split_gl",
                     "--side", "eta", "--input", str(tmp_path / "none.json"))
    assert rc == 2
    # 3: unsupported family via config
    cfg = write_json(tmp_path / "cfg.json",
                     {"family": "symplectic", "n": 2, "epsilon": 1})
    rc, _, err = run(capsys, "orbits", "--config", cfg)
    assert rc == 3
    # 4: precision floor
    path = write_json(tmp_path / "x.json", DIAG_T2_T)
    rc, _, err = run(capsys, "canonicalize", "--family", "split_gl",
                     "--side", "theta", "--input", path, "--precision", "4")
    assert rc == 4
    # 5: not anti-fixed
    path = write_json(tmp_path / "y.json",
                      {"n": 2, "entries": [[{"1": "1"}, {}], [{}, {"0": "1"}]]})
    rc, _, err = run(capsys, "canonicalize", "--family", "split_gl",
                     "--epsilon", "-1", "--side", "eta", "--input", path)
    assert rc == 5


def test_bundle_enumeration(capsys):
    rc, out, _ = run(capsys, "bundle", "--family", "split_gl",
                     "--epsilon", "-1", "--bound", "1")
    assert rc == 0
    docs = json.loads(out)
    assert {d["aut_label"] for d in docs} >= {"GL2(R)", "GL1(H)"}


def test_selftest_passes(capsys):
    rc, out, _ = run(capsys, "selftest")
    assert rc == 0
    results = json.loads(out)
    assert all(r["ok"] for r in results)
    assert len(results) == 10


@pytest.mark.parametrize("argv, doc, code", [
    (["canonicalize", "--side", "eta"],
     {"n": 2, "entries": [[{"0": 1}, {}], [{}, {"0": "1"}]]}, 2),
    (["canonicalize", "--side", "eta"],
     {"n": 2, "entries": [[{"0": "1/0"}, {}], [{}, {"0": "1"}]]}, 2),
    (["canonicalize", "--side", "eta"], {"n": 2, "entries": 5}, 2),
    (["canonicalize", "--side", "eta"], {"n": 0, "entries": []}, 2),
    (["orbits", "--z", "i"], None, 3),
    (["canonicalize", "--side", "eta"], {**DIAG_T2_T, "precision": 8}, 2),
    (["canonicalize", "--side", "theta"], DIAG_T2_T, 2),
], ids=["int-scalar", "zero-denominator", "entries-not-list", "n-zero", "z-i",
        "eta-series", "theta-exact-without-precision"])
def test_malformed_input_exit_codes(tmp_path, capsys, argv, doc, code):
    if doc is not None:
        argv = argv + ["--input", write_json(tmp_path / "x.json", doc)]
    rc, out, err = run(capsys, *argv, "--family", "split_gl")
    assert rc == code
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("extra", [
    {"z": [1]},
    {"z": {"num_re": "x"}},
    {"z": {"den_re": 0}},
    {"inner_twist": 5},
    {"inner_twist": [[1, 0], [0, "1/0"]]},
], ids=["z-list", "z-string-part", "z-zero-denominator", "twist-int", "twist-zero-denominator"])
def test_malformed_config_exits_2(tmp_path, capsys, extra):
    cfg = write_json(tmp_path / "cfg.json",
                     {"family": "unitary", "n": 2, "epsilon": 1, **extra})
    rc, out, err = run(capsys, "orbits", "--config", cfg, "--bound", "0")
    assert rc == 2
    assert out == "" and err.startswith("error: ")


# each file flag pointed at a directory, or at a file its user cannot read or write
FILE_FLAG_CALLS = {
    "--config": ["orbits", "--config"],
    "--inner-twist": ["orbits", "--family", "unitary", "--inner-twist"],
    "--input": ["canonicalize", "--family", "split_gl", "--side", "eta", "--input"],
    "--out": ["kottwitz", "--family", "split_gl", "--bound", "0", "--out"],
}


@pytest.mark.parametrize("kind", ["directory", pytest.param("unreadable", marks=pytest.mark.skipif(
    os.geteuid() == 0, reason="root reads and writes any file"))])
@pytest.mark.parametrize("flag", list(FILE_FLAG_CALLS))
def test_unusable_file_flag_exits_2(tmp_path, capsys, flag, kind):
    path = tmp_path
    if kind == "unreadable":
        path = tmp_path / "locked.json"
        path.write_text("{}")
        path.chmod(0)
    rc, out, err = run(capsys, *FILE_FLAG_CALLS[flag], str(path))
    assert rc == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--family", "split_gl"), ("--n", "5"), ("--epsilon", "-1"), ("--z", "-1"),
    ("--inner-twist", None),
], ids=["family", "n", "epsilon", "z", "inner-twist"])
def test_config_with_datum_flag_exits_2(tmp_path, capsys, flag, value):
    cfg = write_json(tmp_path / "cfg.json", {"family": "unitary", "n": 2, "epsilon": 1})
    if value is None:
        value = write_json(tmp_path / "c.json", [["1", "0"], ["0", "-1"]])
    rc, out, err = run(capsys, "orbits", "--config", cfg, flag, value, "--bound", "0")
    assert rc == 2
    assert out == "" and flag in err


@pytest.mark.parametrize("argv, doc", [
    (["orbits", "--family", "split_gl", "--n", "100000"], None),
    (["canonicalize", "--family", "split_gl", "--side", "eta"],
     {"n": 2, "entries": [[{"0": "1", "1000000000": "1"}, {}], [{}, {"0": "1"}]]}),
], ids=["rank", "exponent-span"])
def test_unbounded_inputs_exit_2_at_once(tmp_path, capsys, argv, doc):
    if doc is not None:
        argv = argv + ["--input", write_json(tmp_path / "x.json", doc)]
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert out == "" and "limit" in err


# sha256 of the JSON n = 4 Iwahori orbit tables on stdout
N4_IWAHORI_DIGESTS = {
    ("split_gl", "1"): "4e6c75c97bdc63f4a0b9025ccf845d1777be4494d428fd10e4bf07bcc1bafa88",
    ("unitary", "1"): "88aa125f3814a20da186dcde0cc585407980cc18340d6708f070aae1edbcc0ed",
    ("quaternionic_gl", "-1"): "69a8ee8bca053ff2ed4de24c9aa287eb415bab40ae2874dd530efc496886c60e",
}


@pytest.mark.parametrize("family,eps", list(N4_IWAHORI_DIGESTS))
def test_iwahori_orbits_n4_golden(capsys, family, eps):
    rc, out, _ = run(capsys, "orbits", "--family", family, "--n", "4", "--epsilon", eps,
                     "--level", "iwahori", "--bound", "1", "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N4_IWAHORI_DIGESTS[family, eps]


# sha256 of the JSON n = 5 Iwahori orbit tables on stdout
N5_IWAHORI_DIGESTS = {
    ("split_gl", "1"): "ebcf41411e32d70babc1c08aabfa2fc44a22cfac32fb59744c58fe82290ae34a",
    ("split_gl", "-1"): "6cf8d8e82f7d1afbecf322f3e93e472ba24ebe15c07444b857bd6c83a04a712a",
    ("unitary", "1"): "e0402393fcc4108a50a54d8df08efc2586d450a70f42f1c13a2f17866e9793b8",
}


@pytest.mark.parametrize("family,eps", list(N5_IWAHORI_DIGESTS))
def test_iwahori_orbits_n5_golden(capsys, family, eps):
    rc, out, _ = run(capsys, "orbits", "--family", family, "--n", "5", "--epsilon", eps,
                     "--level", "iwahori", "--bound", "1", "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == N5_IWAHORI_DIGESTS[family, eps]


def test_iwahori_tables_at_z_i(capsys):
    """At z = i unitary n = 2 has Iwahori classes without a representative;
    the table lists them and match pairs them with a null common_rep."""
    datum = ["--family", "unitary", "--n", "2", "--level", "iwahori", "--bound", "1",
             "--z", "i"]
    rc, out, _ = run(capsys, "orbits", *datum)
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 14
    assert sum("representative" not in r for r in rows) == 8
    rc, out, _ = run(capsys, "match", *datum, "--verify-samples", "2")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 7
    assert sum(p["common_rep"] is None for p in doc["pairs"]) == 4
    assert doc["total_failures"] == 0
