"""Certificates are explicit checks, so they still guard results under ``python -O``.

A subprocess runs with ``-O`` (which strips every ``assert``), injects a
fault into the entry multiply and expects ``CertificateError`` from
``canonicalize_theta`` and exit code 1 from the ``canonicalize`` command.
Faults in the spherical classifier and the duality matcher must likewise
end in exit code 1, with and without ``-O``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The fault switches on when Smith positioning starts, after the input has
# passed its anti-fixedness check, and then adds 1 to the numerator of the
# lowest coefficient of every entry product ("every") or of the first one
# only ("first").
SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_theta
from loopmatsuki.errors import CertificateError
from loopmatsuki.laurent import Entry, SeriesMatrix
from loopmatsuki.randgen import random_arc_element

assert False, "asserts must be stripped"
workdir, mode = sys.argv[1], sys.argv[2]
d = gc.build_datum("split_gl", 2, 1)
(cls,) = classify_theta(d, (1, 0))
h = SeriesMatrix.from_laurent(random_arc_element(2, 8, random.Random(3)).to_laurent(), 14)
x = h * SeriesMatrix.from_laurent(cls.loop_rep, 14) * gc.apply_theta(h, d).inverse()
print(canonicalize.canonicalize_theta(x, d).orbit_class.label)
path = workdir + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

fault = {"on": False, "left": 0}
mul, smith = Entry.__mul__, canonicalize.smith_over_dvr

def faulty_mul(a, b):
    e = mul(a, b)
    if fault["on"] and e and fault["left"]:
        fault["left"] -= 1
        return e + Entry.term(e.val(), 1)
    return e

def smith_then_fault(s):
    fault["on"] = True
    fault["left"] = 1 if mode == "first" else -1
    return smith(s)

Entry.__mul__ = faulty_mul
canonicalize.smith_over_dvr = smith_then_fault
try:
    canonicalize.canonicalize_theta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
fault["on"] = False
print(cli.main(["canonicalize", "--family", "split_gl", "--side", "theta",
                "--input", path]))
"""


@pytest.mark.parametrize("mode, failed_check", [
    ("every", "certificate failed"),
    # one corrupted product breaks the layer-0 parabolic shape, which an
    # input that passed the anti-fixedness check cannot lack
    ("first", "certificate failed: constant term escapes the parabolic P_lambda"),
])
def test_injected_fault_is_caught_under_optimize(tmp_path, mode, failed_check):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT, str(tmp_path), mode],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    label, caught, code = proc.stdout.split("\n")[:3]
    assert label == "Sym|Sym"
    assert caught.startswith("CertificateError: " + failed_check)
    assert code == "1"
    assert failed_check in proc.stderr


# The classifier's anti-fixedness check is forced to fail ("classify"), or
# the eta classes handed to the duality matcher carry one extra component
# ("match"); either way the CLI must exit 1 and never trace back.
CLASSIFY_SCRIPT = r"""
import dataclasses, sys
from loopmatsuki import cli, coweight_orbits, duality, group_catalog as gc
from loopmatsuki.errors import CertificateError

mode = sys.argv[1]
if mode == "classify":
    coweight_orbits.is_anti_fixed_theta = lambda loop, datum: False
    try:
        coweight_orbits.classify_theta(gc.build_datum("split_gl", 2, 1), (1, 0))
        print("no error")
    except CertificateError as exc:
        print("CertificateError:", exc)
    argv = ["orbits", "--family", "split_gl", "--bound", "1"]
else:
    classify_eta = duality.classify_eta
    duality.classify_eta = lambda datum, adm: [
        dataclasses.replace(c, component_group=c.component_group + (2,))
        for c in classify_eta(datum, adm)]
    print("-")
    argv = ["match", "--family", "split_gl", "--bound", "1"]
print(cli.main(argv))
"""


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("mode, failed_check", [
    ("classify", "representative not anti-fixed"),
    ("match", "component group mismatch"),
])
def test_classifier_and_matcher_faults_exit_1(mode, failed_check, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", CLASSIFY_SCRIPT, mode],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    caught, code = proc.stdout.split("\n")[:2]
    if mode == "classify":
        assert caught == ("CertificateError: certificate failed: theta class "
                          "Sym|Sym at lambda=(1, 0): representative not anti-fixed")
    assert code == "1"
    assert proc.stderr.startswith("error: certificate failed: ")
    assert failed_check in proc.stderr
