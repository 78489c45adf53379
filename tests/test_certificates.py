"""Certificates are explicit checks, so they still guard results under ``python -O``.

A subprocess runs with ``-O`` (which strips every ``assert``), injects a
fault into the entry multiply and expects ``CertificateError`` from
``canonicalize_theta`` and exit code 1 from the ``canonicalize`` command.
A corrupted g_plus inverse from the Birkhoff row reduction, a wrong g_minus
handed back by it, a Birkhoff step that lowers no row degree, or a wrong
inverse of the unipotent square root, must likewise stop ``canonicalize_eta``.
Faults in the spherical classifier, the duality matcher, the selftest, the
internal checks of the exact algebra, the Smith forms of the Iwahori torus
problem and the compact symmetric sampler must likewise end in exit code 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopmatsuki import cli, exact_algebra, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta

SRC = Path(__file__).resolve().parent.parent / "src"

# The fault switches on when Smith positioning starts, after the input has
# passed its anti-fixedness check, and then adds 1 to the numerator of the
# lowest coefficient of every entry product ("every") or of the first one
# only ("first").  Short products (``Entry.mul_below``) run through
# ``Entry.__mul__`` with a limit, so the one patch reaches them too.
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

def faulty_mul(a, b, limit=None):
    e = mul(a, b, limit)
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
    # the one corrupted product is the first of the Newton steps for the
    # first pivot's reciprocal 1/u: row k of g1^-1 is divided by that wrong
    # reciprocal while column k of g1 is multiplied by u, so Smith
    # positioning's own certificate g1^-1 * g1 = I fails
    ("first", "certificate failed: Smith g1 inverse does not invert g1"),
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


# The first product birkhoff_factor takes on the identity that its g_plus
# inverse starts from, an entry of the first row operation, is off by 1 in
# its lowest coefficient.  g_plus, built from the inverse operations, stays
# right, so the factors still multiply back; birkhoff_factor's own
# certificate g_plus_inv * g_plus = 1 must stop canonicalize_eta, and the
# canonicalize command must exit 1 without printing a form.
BIRKHOFF_SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta
from loopmatsuki.errors import CertificateError
from loopmatsuki.laurent import ONE_ENTRY, Entry
from loopmatsuki.randgen import random_poly_element

assert False, "asserts must be stripped"
d = gc.build_datum("split_gl", 3, 1)
(cls,) = classify_eta(d, (1, 0, -1))
h = random_poly_element(3, 3, random.Random(4))
x = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
print(canonicalize.canonicalize_eta(x, d).orbit_class.label)
path = sys.argv[1] + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

fault = {"left": 0}
mul, birkhoff = Entry.__mul__, canonicalize.birkhoff_factor

def faulty_mul(a, b, limit=None):
    e = mul(a, b, limit)
    if fault["left"] and a is ONE_ENTRY and e:
        fault["left"] -= 1
        return e + Entry.term(e.val(), 1)
    return e

def birkhoff_with_fault(gamma):
    fault["left"] = 1
    return birkhoff(gamma)

Entry.__mul__ = faulty_mul
canonicalize.birkhoff_factor = birkhoff_with_fault
try:
    canonicalize.canonicalize_eta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(cli.main(["canonicalize", "--family", "split_gl", "--n", "3", "--side", "eta",
                "--input", path]))
"""


def test_corrupted_birkhoff_inverse_is_caught_under_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", BIRKHOFF_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    failed_check = "certificate failed: Birkhoff g_plus inverse does not invert g_plus"
    assert proc.stdout.split("\n") == [
        "Sym|Sym|Sym", "CertificateError: " + failed_check, "1", ""]
    assert proc.stderr == f"error: {failed_check}\n"


# canonicalize_eta builds the positioned loop t^lam * g_minus * eta(h)^-1 from
# Birkhoff's own g_minus instead of multiplying h * x * eta(h)^-1 out, since
# birkhoff_factor certified g_plus * t^lam * g_minus == x.  A birkhoff_factor
# that returns g_minus with 1 added to its (0, 0) entry bypasses that
# certificate; the reduction's own checks must still stop canonicalize_eta,
# and the canonicalize command must exit 1 without printing a form.
GMINUS_SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta
from loopmatsuki.errors import CertificateError
from loopmatsuki.laurent import ONE_ENTRY, LaurentMatrix
from loopmatsuki.randgen import random_poly_element

print(__debug__)
d = gc.build_datum("split_gl", 3, 1)
(cls,) = classify_eta(d, (1, 0, -1))
h = random_poly_element(3, 3, random.Random(4))
x = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
print(canonicalize.canonicalize_eta(x, d).orbit_class.label)
path = sys.argv[1] + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

birkhoff = canonicalize.birkhoff_factor

def birkhoff_with_wrong_gminus(gamma):
    gplus, lam, gminus, gplus_inv = birkhoff(gamma)
    rows = [list(r) for r in gminus.rows]
    rows[0][0] = rows[0][0] + ONE_ENTRY
    return gplus, lam, LaurentMatrix(rows), gplus_inv

canonicalize.birkhoff_factor = birkhoff_with_wrong_gminus
try:
    canonicalize.canonicalize_eta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(cli.main(["canonicalize", "--family", "split_gl", "--n", "3", "--side", "eta",
                "--input", path]))
"""


@pytest.mark.parametrize("optimize", [True, False])
def test_wrong_birkhoff_gminus_is_caught(tmp_path, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", GMINUS_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    failed_check = "certificate failed: Levi part of the positioned loop is not constant"
    assert proc.stdout.split("\n") == [
        str(not optimize), "Sym|Sym|Sym", "CertificateError: " + failed_check, "1", ""]
    assert proc.stderr == f"error: {failed_check}\n"


# The unipotent square root's inverse (1 + x)^(-1/2) is doubled (argument
# "inverse"), or the root (1 + x)^(1/2) itself ("square"); the certificate
# v * v^-1 = I, or v * v = u, must stop canonicalize_eta, and the
# canonicalize command must exit 1 without printing a form.
UNIPOTENT_SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, exact_algebra, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta
from loopmatsuki.errors import CertificateError
from loopmatsuki.randgen import random_poly_element

assert False, "asserts must be stripped"
d = gc.build_datum("split_gl", 3, 1)
(cls,) = classify_eta(d, (1, 0, -1))
h = random_poly_element(3, 3, random.Random(4))
x = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
print(canonicalize.canonicalize_eta(x, d).orbit_class.label)
path = sys.argv[1] + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

roots = exact_algebra._binomial_roots

def faulty_roots(x):
    # unipotent_sqrt takes (1 + x)^(1/2) and its inverse from one call
    v, v_inv = roots(x)
    return (v, v_inv.scale(2)) if sys.argv[2] == "inverse" else (v.scale(2), v_inv)

exact_algebra._binomial_roots = faulty_roots
try:
    canonicalize.canonicalize_eta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(cli.main(["canonicalize", "--family", "split_gl", "--n", "3", "--side", "eta",
                "--input", path]))
"""


def _run_unipotent_fault(tmp_path, fault, failed_check):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", UNIPOTENT_SCRIPT, str(tmp_path), fault],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "Sym|Sym|Sym", "CertificateError: " + failed_check, "1", ""]
    assert proc.stderr == f"error: {failed_check}\n"


def test_wrong_unipotent_sqrt_inverse_is_caught_under_optimize(tmp_path):
    _run_unipotent_fault(tmp_path, "inverse",
                         "certificate failed: square root inverse does not invert it")


def test_unipotent_sqrt_that_fails_to_square_back_is_caught_under_optimize(tmp_path):
    _run_unipotent_fault(tmp_path, "square",
                         "certificate failed: square root failed to square back")


# The classifier's anti-fixedness check is forced to fail ("classify"), or
# the eta classes handed to the duality matcher carry one extra component
# ("match"); either way the CLI must exit 1 and never trace back.
CLASSIFY_SCRIPT = r"""
import dataclasses, sys
from loopmatsuki import cli, coweight_orbits, duality, group_catalog as gc
from loopmatsuki.errors import CertificateError

mode = sys.argv[1]
if mode == "classify":
    coweight_orbits.is_anti_fixed = lambda loop, datum, side: False
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


# The selftest's own checks are certificates too: with the finite Matsuki
# tables emptied, ``loopmatsuki selftest`` must fail under -O.
SELFTEST_SCRIPT = r"""
from loopmatsuki import cli, selftest

selftest.finite_matsuki = lambda datum: {"spherical": [], "borel": []}
print(cli.main(["selftest"]))
"""


def test_selftest_fault_exits_1_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", SELFTEST_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout[:proc.stdout.rindex("]") + 1])
    failed = [r["name"] for r in results if not r["ok"]]
    assert failed == ["finite_matsuki"]
    assert "CertificateError" in results[-1]["detail"]
    assert proc.stdout.split("\n")[-2] == "1"


def _eta_reduction_with_faulty_roots(tmp_path, monkeypatch, fault):
    d = gc.build_datum("split_gl", 2, 1)
    (cls,) = classify_eta(d, (1, 0))
    path = tmp_path / "x.json"
    path.write_text(json.dumps(serialize.laurent_to_json(cls.loop_rep)))
    roots = exact_algebra._binomial_roots
    monkeypatch.setattr(exact_algebra, "_binomial_roots", lambda x: fault(*roots(x)))
    return cli.main(["canonicalize", "--family", "split_gl", "--side", "eta",
                     "--input", str(path)])


def test_internal_fault_in_eta_reduction_exits_1(tmp_path, monkeypatch, capsys):
    """A unipotent square root that fails to square back is an internal
    fault (exit 1), not malformed input (exit 2)."""
    code = _eta_reduction_with_faulty_roots(tmp_path, monkeypatch,
                                          lambda v, v_inv: (v.scale(2), v_inv.scale(2)))
    assert code == 1
    assert "certificate failed: square root failed to square back" in capsys.readouterr().err


def test_wrong_unipotent_sqrt_inverse_exits_1(tmp_path, monkeypatch, capsys):
    code = _eta_reduction_with_faulty_roots(tmp_path, monkeypatch,
                                          lambda v, v_inv: (v, v_inv.scale(2)))
    assert code == 1
    assert "certificate failed: square root inverse does not invert it" in capsys.readouterr().err


# A twisted datum's classes and canonical forms are computed at its base
# datum and carried back by x -> x * c^-1 (group_catalog.transport_from_base).
# The fault multiplies that carry by i, which the input checks never read; on
# unitary, x * i * eta(x * i) = -x * eta(x), so the carried representative's
# anti-fixedness certificate must fail and the command exit 1 with nothing
# on stdout.  The spherical case canonicalizes a U(1,1) class representative,
# the Iwahori case tabulates the U(1,1) Iwahori eta orbits.
TWISTED_SCRIPT = r"""
import json, sys
from loopmatsuki import cli, coweight_orbits, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.gaussian import QI

level, workdir = sys.argv[1:]
twist = [["1", "0"], ["0", "-1"]]
d = gc.datum_from_config({"family": "unitary", "n": 2, "epsilon": 1, "inner_twist": twist})
cls = coweight_orbits.classify_eta(d, (0, 0))[0]
with open(workdir + "/twist.json", "w") as f:
    json.dump(twist, f)
with open(workdir + "/x.json", "w") as f:
    json.dump(serialize.laurent_to_json(cls.loop_rep), f)
transport_from_base = gc.transport_from_base
gc.transport_from_base = lambda x, datum: transport_from_base(x, datum).scale(QI(0, 1))
datum_flags = ["--family", "unitary", "--n", "2", "--inner-twist", workdir + "/twist.json"]
if level == "spherical":
    argv = ["canonicalize", *datum_flags, "--side", "eta", "--input", workdir + "/x.json"]
else:
    argv = ["orbits", *datum_flags, "--level", "iwahori", "--side", "eta", "--bound", "1"]
sys.exit(cli.main(argv))
"""


def _run_twisted_fault(tmp_path, optimize, level):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", TWISTED_SCRIPT, level, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: certificate failed: twisted eta representative carried "
                           "from the base datum is not anti-fixed\n")


@pytest.mark.parametrize("optimize", [True, False])
def test_twisted_transport_fault_exits_1(tmp_path, optimize):
    _run_twisted_fault(tmp_path, optimize, "spherical")


@pytest.mark.parametrize("optimize", [True, False])
def test_twisted_iwahori_transport_fault_exits_1(tmp_path, optimize):
    _run_twisted_fault(tmp_path, optimize, "iwahori")


# The torus problem's Smith forms come from iwahori_orbits.snf_int, patched
# here: "reproduce" returns a D off by one in its first entry, which the
# multiply-back must refuse; "zero" returns U = 0 and D = 0, which pass the
# multiply-back, so the rank certificate must refuse them.
SMITH_SCRIPT = r"""
import sys
from loopmatsuki import cli, iwahori_orbits

mode = sys.argv[1]
snf_int = iwahori_orbits.snf_int

def faulty_snf(m):
    u, d, v = snf_int(m)
    n = len(m)
    if mode == "reproduce":
        d[0][0] += 1
        return u, d, v
    zero = [[0] * n for _ in range(n)]
    return zero, [row[:] for row in zero], v

iwahori_orbits.snf_int = faulty_snf
sys.exit(cli.main(["orbits", "--family", "split_gl", "--n", "2", "--level", "iwahori",
                   "--bound", "1"]))
"""


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("mode, failed_check", [
    ("reproduce", "the Smith form of M_eq does not reproduce it"),
    ("zero", "equation kernel escapes the action image"),
])
def test_torus_smith_form_faults_exit_1(mode, failed_check, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", SMITH_SCRIPT, mode],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: certificate failed: {failed_check}\n"


# theta0 of a torus t-power must be exactly t^(E e_k): a non-monomial image
# ("sum": theta0 + I) or a coefficient other than 1 ("scale": 2 * theta0)
# must stop build_datum, and the CLI must exit 1.
TORUS_SCRIPT = r"""
import sys
from loopmatsuki import cli, group_catalog as gc
from loopmatsuki.errors import CertificateError
from loopmatsuki.laurent import LaurentMatrix

theta0 = gc.theta0
if sys.argv[1] == "sum":
    gc.theta0 = lambda m, datum: theta0(m, datum) + LaurentMatrix.identity(datum.n)
else:
    gc.theta0 = lambda m, datum: theta0(m, datum).scale(2)
try:
    gc.build_datum("split_gl", 2, 1)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(cli.main(["orbits", "--family", "split_gl", "--bound", "1"]))
"""


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("mode", ["sum", "scale"])
def test_torus_matrix_certificate_exits_1(mode, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", TORUS_SCRIPT, mode],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    failed_check = "certificate failed: theta0 of a torus t-power is not a t-power"
    assert proc.stdout.split("\n") == ["CertificateError: " + failed_check, "1", ""]
    assert proc.stderr == f"error: {failed_check}\n"


# A reduced g0 has passed its anti-fixedness check, so a middle block that is
# no nondegenerate Hermitian form can only be an internal fault: the class
# matcher must fail a certificate (exit 1), not report invalid input (exit 2).
MIDDLE_SCRIPT = r"""
import json, sys
from loopmatsuki import canonicalize, group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta
from loopmatsuki.errors import CertificateError
from loopmatsuki.laurent import LaurentMatrix

d = gc.build_datum("unitary", 2, 1)
g0 = LaurentMatrix.from_scalars(json.loads(sys.argv[1]))
try:
    canonicalize._match_spherical_class(d, (0, 0), g0, gc.ETA, classify_eta(d, (0, 0)))
    print("no error")
except CertificateError as exc:
    print(f"CertificateError, exit {exc.exit_code}: {exc}")
"""


@pytest.mark.parametrize("optimize", [True, False])
@pytest.mark.parametrize("g0, fault", [
    ([[0, 1], [0, 2]], "matrix is not Hermitian"),
    ([[0, 0], [1, 0]], "Hermitian form is degenerate"),
], ids=["non-hermitian", "degenerate"])
def test_faulty_middle_block_is_certificate_error(g0, fault, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", MIDDLE_SCRIPT, json.dumps(g0)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("CertificateError, exit 1: certificate failed: "
                           f"reduced middle block: {fault}\n")


# A K_c sample is the Cayley unitary of a skew-Hermitian S projected by
# (S + d_theta0(S)) / 2; with d_theta0 patched to the identity the projection
# is S itself, whose Cayley unitary theta0 moves, so the third verification
# sample of a split_gl match must fail its certificate and the command exit 1.
COMPACT_SCRIPT = r"""
import sys
from loopmatsuki import cli, randgen

randgen.d_theta0 = lambda y, datum: y
sys.exit(cli.main(["match", "--family", "split_gl", "--verify-samples", "3"]))
"""


@pytest.mark.parametrize("optimize", [True, False])
def test_compact_symmetric_sample_not_fixed_by_theta0_exits_1(optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", COMPACT_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: certificate failed: Cayley unitary is not fixed by theta0\n"


# The theta layer solve over Z[i] returns each unknown over its pivot; the
# patch drops that scale factor (xd set to 1), as a replay that forgets one
# would.  The wrong conjugator leaves its layer standing, so the "layers
# 1..k are not killed" certificate must stop canonicalize_theta, and the
# canonicalize command must exit 1 without printing a form.
LAYER_SCALE_SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_theta
from loopmatsuki.errors import CertificateError
from loopmatsuki.intlat import FractionFree
from loopmatsuki.laurent import SeriesMatrix
from loopmatsuki.randgen import random_arc_element

d = gc.build_datum("split_gl", 2, 1)
(cls,) = classify_theta(d, (1, 0))
h = SeriesMatrix.from_laurent(random_arc_element(2, 8, random.Random(3)).to_laurent(), 14)
x = h * SeriesMatrix.from_laurent(cls.loop_rep, 14) * gc.apply_theta(h, d).inverse()
print(canonicalize.canonicalize_theta(x, d).orbit_class.label)
path = sys.argv[1] + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

solve = FractionFree.solve
dropped = []

def solve_without_pivot_scale(self, re, im):
    sol = solve(self, re, im)
    if sol is None:
        return None
    xr, xi, xd = sol
    dropped.append(any(v != 1 for v in xd))
    return xr, xi, [1] * len(xd)

FractionFree.solve = solve_without_pivot_scale
try:
    canonicalize.canonicalize_theta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(dropped[-1])
print(cli.main(["canonicalize", "--family", "split_gl", "--side", "theta", "--input", path]))
"""


@pytest.mark.parametrize("optimize", [True, False])
def test_dropped_layer_scale_is_caught(tmp_path, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", LAYER_SCALE_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    label, caught, dropped, code = proc.stdout.split("\n")[:4]
    assert label == "Sym|Sym"
    assert caught.startswith("CertificateError: certificate failed: layers 1..")
    assert caught.endswith("are not killed")
    assert dropped == "True"  # the fault really changed a solution
    assert code == "1"
    assert "are not killed" in proc.stderr


# The forward pass that finds the first dependent leading row returns
# t + e_0 instead of the transform t, so row 0's leading coefficient no
# longer cancels and the Birkhoff step leaves row i0's degree where it was.
# The loop ends only because each step lowers a degree; the certificate on
# that progress must stop canonicalize_eta at once instead of letting it spin,
# and the canonicalize command must exit 1 without printing a form.
DEPENDENCY_SCRIPT = r"""
import json, random, sys
from loopmatsuki import canonicalize, cli, exact_algebra, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.coweight_orbits import classify_eta
from loopmatsuki.errors import CertificateError
from loopmatsuki.randgen import random_poly_element

d = gc.build_datum("split_gl", 3, 1)
(cls,) = classify_eta(d, (1, 0, -1))
h = random_poly_element(3, 3, random.Random(4))
x = h * cls.loop_rep * gc.apply_eta(h, d).inverse()
print(canonicalize.canonicalize_eta(x, d).orbit_class.label)
path = sys.argv[1] + "/x.json"
with open(path, "w") as f:
    json.dump(serialize.laurent_to_json(x), f)

first_dependency = exact_algebra.first_dependency
perturbed = []

def dependency_plus_e0(re, im):
    dep = first_dependency(re, im)
    if dep is None:
        return None
    f, tr, ti = dep
    perturbed.append(f)
    return f, [tr[0] + 1] + tr[1:], ti

exact_algebra.first_dependency = dependency_plus_e0
try:
    canonicalize.canonicalize_eta(x, d)
    print("no error")
except CertificateError as exc:
    print("CertificateError:", exc)
print(len(perturbed) > 0)
print(cli.main(["canonicalize", "--family", "split_gl", "--n", "3", "--side", "eta",
                "--input", path]))
"""


@pytest.mark.parametrize("optimize", [True, False])
def test_birkhoff_step_without_progress_is_caught(tmp_path, optimize):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", DEPENDENCY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    failed_check = "certificate failed: Birkhoff row reduction did not lower a row degree"
    assert proc.stdout.split("\n") == [
        "Sym|Sym|Sym", "CertificateError: " + failed_check, "True", "1", ""]
    assert proc.stderr == f"error: {failed_check}\n"
