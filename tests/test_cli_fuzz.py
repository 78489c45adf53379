"""Fuzz the CLI with JSON documents: every input, however malformed, must end
in a documented exit code (0, or 2-5 for rejected input) and never in a
traceback.  Exit 1 is reserved for failed checks, which no input may cause.

Integers and exponents stay small in the general fuzz: a datum of rank n
allocates n x n matrices, and an entry stores a dense list as long as its
exponent span.  Exponents up to 10^9 and ranks above the config limit have a
test of their own: they must exit 2 before anything of that size is built.
So do documents nested 10^5 deep, which the JSON parser cannot read,
coweight bounds whose box of (2 * bound + 1)^n coweights is past its limit,
and Iwahori walks of n! * (2 * bound + 1)^n positions past theirs.
"""

import contextlib
import io
import json
import os
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from loopmatsuki.cli import MAX_VERIFY_SAMPLES, main
from loopmatsuki.coweight_orbits import classify_eta, classify_theta, enumerate_admissible
from loopmatsuki.duality import match_spherical, verify_intersection
from loopmatsuki.errors import InvalidInputError
from loopmatsuki.group_catalog import MAX_CONFIG_RANK, build_datum, check_bound
from loopmatsuki.iwahori_orbits import check_walk
from loopmatsuki.serialize import MAX_LOOP_SLOTS, laurent_to_json

EXIT_CODES = {0, 2, 3, 4, 5}
FAMILIES = ["split_gl", "quaternionic_gl", "unitary"]

small_ints = st.integers(-8, 8)
arbitrary_json = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)

units = st.sampled_from(["1", "-1", "i", "-i", "2", "1/2"])
scalars = units | st.sampled_from(
    ["0", "-3/5", "0/1+1/1*i", "1+i", "1/0", "", "x", 1, 0, -1, 0.5, None, True, [],
     {"num_re": 1}, {"num_re": 1, "den_re": 0}]) | arbitrary_json


def square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def sign_twist(n):
    """diag(1, -1, ...): a valid inner twist of unitary and of split_gl."""
    return [["0" if i != j else ("1" if i % 2 == 0 else "-1") for j in range(n)]
            for i in range(n)]


def twists(n):
    return st.just(sign_twist(n)) | square(n, units) | square(n, scalars) | arbitrary_json


exponents = st.integers(-8, 8).map(str) | st.sampled_from(["x", "1.5", "", "+2"])
entries = (st.builds(lambda k, c: {str(k): c}, small_ints, units)
           | st.dictionaries(exponents, scalars, max_size=3) | arbitrary_json)


def diagonal_loops(n):
    """Diagonals of signed t-powers: anti-fixed for many data."""
    terms = st.builds(lambda k, c: {str(k): c}, st.integers(-3, 3), units)
    return st.lists(terms, min_size=n, max_size=n).map(lambda diag: {
        "n": n, "entries": [[diag[i] if i == j else {} for j in range(n)]
                            for i in range(n)]})


def loop_documents(n):
    """Loops of rank n with a wrong rank, shape, entry or precision now and then."""
    return st.fixed_dictionaries(
        {"n": st.sampled_from([n, n, n, 0, -1, 4, "2", None]),
         "entries": square(n, entries) | arbitrary_json},
        optional={"precision": st.integers(-2, 12) | arbitrary_json}) | arbitrary_json


@st.composite
def configs(draw, n):
    cfg = {"family": draw(st.sampled_from(FAMILIES + ["symplectic", 3, None])),
           "n": draw(st.just(n) | st.sampled_from([0, -1, "2", 2.5, None])),
           "epsilon": draw(st.sampled_from([1, -1, 0, 2, "1", None]))}
    if draw(st.booleans()):
        cfg["z"] = draw(st.sampled_from(["1", "-1", "i"]) | scalars)
    if draw(st.booleans()):
        cfg["inner_twist"] = draw(twists(n))
    dropped = draw(st.sampled_from([None, None, None, "family", "n", "epsilon"]))
    if dropped is not None:
        del cfg[dropped]
    return cfg


@st.composite
def invocations(draw):
    """argv, with the JSON documents it names, for one CLI call.  A tame call
    keeps the datum and loop well formed, so that the canonicalizers and
    enumerators run to their own checks; the others are fuzzed throughout."""
    tame = draw(st.booleans())
    n = draw(st.integers(1, 3))
    docs = {}
    command = draw(st.sampled_from(["canonicalize", "orbits", "kottwitz", "bundle"]))
    argv = [command]
    # the CLI reads --inner-twist only when no --config is given
    if not tame and draw(st.booleans()):
        docs["config"] = draw(configs(n) | arbitrary_json)
        argv += ["--config", "config"]
    else:
        argv += ["--family", draw(st.sampled_from(FAMILIES)), "--n", str(n),
                 "--epsilon", draw(st.sampled_from(["1", "-1"]))]
        if draw(st.booleans()):
            docs["twist"] = draw(st.just(sign_twist(n)) if tame else twists(n))
            argv += ["--inner-twist", "twist"]
    if command == "canonicalize" or (command == "bundle" and draw(st.booleans())):
        docs["loop"] = draw(diagonal_loops(n) if tame else loop_documents(n))
        argv += ["--input", "loop"]
    if command == "canonicalize":
        argv += ["--side", draw(st.sampled_from(["theta", "eta"]))]
        precision = draw(st.integers(6, 12) if tame else st.integers(-2, 12) | st.none())
        if precision is not None:
            argv += ["--precision", str(precision)]
    else:
        argv += ["--bound", draw(st.sampled_from(["0", "1"]))]
        if command == "orbits":
            argv += ["--level", draw(st.sampled_from(["spherical", "iwahori"]))]
    return argv, docs


def run_cli(argv, docs):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(doc, f)
        argv = [os.path.join(tmp, a) if a in docs else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invocations())
def test_cli_json_inputs_end_in_a_documented_exit_code(invocation):
    assert run_cli(*invocation) in EXIT_CODES


# each JSON file flag given a document nested 10^5 deep, as arrays or objects
DEEP_JSON_CALLS = [
    ["orbits", "--config"],
    ["orbits", "--family", "unitary", "--inner-twist"],
    ["canonicalize", "--family", "split_gl", "--side", "eta", "--input"],
]


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")],
                         ids=["arrays", "objects"])
@pytest.mark.parametrize("argv", DEEP_JSON_CALLS, ids=lambda argv: argv[-1])
def test_deeply_nested_json_exits_2(tmp_path, argv, opener, closer):
    path = tmp_path / "deep.json"
    path.write_text(opener * 10 ** 5 + "0" + closer * 10 ** 5)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + [str(path)])
    assert code == 2
    assert out.getvalue() == "" and "nested too deeply" in err.getvalue()
    assert "Traceback" not in err.getvalue()


BIG = 10 ** 9


@st.composite
def wide_loops(draw, n):
    """Rank-n loops whose entries' exponent spans add up past MAX_LOOP_SLOTS:
    one entry with exponents up to +-10^9, or every entry a little wide."""
    if draw(st.booleans()):
        lo = draw(st.integers(-BIG, BIG - MAX_LOOP_SLOTS))
        hi = draw(st.integers(lo + MAX_LOOP_SLOTS, BIG))
        wide = {"i": draw(st.integers(0, n - 1)), "j": draw(st.integers(0, n - 1)),
                "entry": {str(lo): draw(units), str(hi): draw(units)}}
        return {"n": n, "entries": [
            [wide["entry"] if (i, j) == (wide["i"], wide["j"]) else ({"0": "1"} if i == j else {})
             for j in range(n)] for i in range(n)]}
    span = MAX_LOOP_SLOTS // (n * n) + 1
    return {"n": n, "entries": [[{"0": "1", str(span - 1): "1"}] * n for _ in range(n)]}


@st.composite
def oversized_invocations(draw):
    """argv and documents with a loop past MAX_LOOP_SLOTS or a rank past
    MAX_CONFIG_RANK, as a --config document or as --n."""
    n = draw(st.integers(1, 3))
    command = draw(st.sampled_from(["canonicalize", "orbits", "kottwitz", "bundle", "match"]))
    docs = {}
    argv = [command]
    # quaternionic_gl needs an even rank, or the datum exits 3 first
    family = draw(st.sampled_from(FAMILIES if n % 2 == 0 else FAMILIES[::2]))
    if draw(st.booleans()):
        argv += ["--family", family, "--n", str(n)]
        docs["loop"] = draw(wide_loops(n))
    else:
        rank = draw(st.integers(MAX_CONFIG_RANK + 1, BIG))
        if draw(st.booleans()):
            docs["config"] = {"family": family, "n": rank, "epsilon": 1}
            argv += ["--config", "config"]
        else:
            argv += ["--family", family, "--n", str(rank)]
        if command in ("canonicalize", "bundle"):
            docs["loop"] = draw(diagonal_loops(n))
    if "loop" in docs:
        command = argv[0] = draw(st.sampled_from(["canonicalize", "bundle"]))
        argv += ["--input", "loop"]
    if command == "canonicalize":
        argv += ["--side", draw(st.sampled_from(["theta", "eta"])), "--precision", "8"]
    return argv, docs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(oversized_invocations())
def test_oversized_loops_and_ranks_exit_2_without_allocating(invocation):
    tracemalloc.start()
    try:
        code = run_cli(*invocation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 2 ** 22


@pytest.mark.parametrize("argv", [
    ["orbits", "--level", "iwahori"], ["orbits", "--level", "spherical"],
    ["match", "--level", "iwahori"], ["match", "--level", "spherical"],
    ["bundle"], ["kottwitz"],
], ids=lambda argv: "-".join(argv))
def test_bound_past_the_coweight_box_exits_2_at_once(argv):
    # the enumerations would walk 200001^2 coweights
    start = time.perf_counter()
    code = run_cli(argv + ["--family", "split_gl", "--n", "2", "--bound", "100000"], {})
    assert time.perf_counter() - start < 1
    assert code == 2


@pytest.mark.parametrize("command", ["orbits", "match"])
def test_iwahori_walk_past_its_limit_exits_2_at_once(command):
    # n = 8 at bound 1 passes the coweight box, 3^8, but walks 8! * 3^8 positions
    start = time.perf_counter()
    code = run_cli([command, "--family", "split_gl", "--n", "8", "--level", "iwahori",
                    "--bound", "1"], {})
    assert time.perf_counter() - start < 2
    assert code == 2


def test_iwahori_walk_limit_is_exact():
    check_walk(1, 7)  # 7! * 3^7 = 11,022,480 positions, checked without the walk
    check_walk(0, 10)
    for bound, n in ((1, 8), (0, 11), (0, 256)):
        with pytest.raises(InvalidInputError, match="limit"):
            check_walk(bound, n)


def test_coweight_box_limit_is_exact():
    check_bound(4, 4)  # 9^4 = 6561 coweights
    check_bound(1, 8)  # 3^8
    for bound, n in ((5, 4), (1, 9), (5000, 1), (10 ** 100, 256)):
        with pytest.raises(InvalidInputError, match="limit"):
            check_bound(bound, n)


@pytest.mark.parametrize("level", ["spherical", "iwahori"])
def test_negative_verify_samples_exit_2(level, capsys):
    # a negative sample count used to verify nothing and exit 0
    assert main(["match", "--family", "split_gl", "--level", level,
                 "--verify-samples", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: --verify-samples must be nonnegative\n")
    pair = next(p for p in match_spherical(build_datum("split_gl", 2, 1), 1)
                if p.common_rep is not None)
    with pytest.raises(InvalidInputError, match="nonnegative"):
        verify_intersection(pair, -3, 0)


@pytest.mark.parametrize("level", ["spherical", "iwahori"])
def test_verify_samples_past_the_limit_exit_2_at_once(level, capsys):
    # a count of 10^9 used to be admitted and run for days
    assert MAX_VERIFY_SAMPLES >= 20  # the largest count any test or selftest uses
    start = time.perf_counter()
    code = main(["match", "--family", "split_gl", "--level", level,
                 "--verify-samples", str(MAX_VERIFY_SAMPLES + 1)])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert capsys.readouterr() == ("", f"error: --verify-samples {MAX_VERIFY_SAMPLES + 1} "
                                       f"is above the limit {MAX_VERIFY_SAMPLES}\n")


def _class_reps(family, n, eps):
    datum = build_datum(family, n, eps)
    return [cls.loop_rep for lam in enumerate_admissible(datum, 1)
            for cls in classify_theta(datum, lam) + classify_eta(datum, lam)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("eps", ["1", "-1"])
def test_loop_of_another_rank_exits_2(family, eps, tmp_path, capsys):
    """Every bound-1 class representative of one rank, handed to a datum of
    another (twisted, too), is invalid input whose message names both sizes,
    on both sides and in bundle, before any product could mix the sizes."""
    path = str(tmp_path / "x.json")
    twist = None
    if family != "quaternionic_gl":  # diag(1, -1) twists split_gl and unitary
        twist = str(tmp_path / "c.json")
        with open(twist, "w") as f:
            json.dump(sign_twist(2), f)
    checked = 0
    for src, dst in [(3, 2), (2, 3), (4, 2), (1, 2)]:
        if family == "quaternionic_gl" and (src % 2 or dst % 2):
            continue
        datum = ["--family", family, "--n", str(dst), "--epsilon", eps]
        calls = [["canonicalize", *datum, "--side", "eta", "--input", path],
                 ["canonicalize", *datum, "--side", "theta", "--precision", "8", "--input", path],
                 ["bundle", *datum, "--input", path]]
        if twist and dst == 2:
            calls.append(["canonicalize", *datum, "--inner-twist", twist, "--side", "eta",
                          "--input", path])
        for rep in _class_reps(family, src, int(eps)):
            with open(path, "w") as f:
                json.dump(laurent_to_json(rep), f)
            for argv in calls:
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err == f"error: the loop is {src}x{src} but the datum has rank {dst}\n"
                checked += 1
    assert checked >= 12
