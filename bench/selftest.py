#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark: ``python3 bench/selftest.py``.

Runs every workload on one two-op round, untraced and traced, and asserts that
every metric named in BENCHMARK.json prints with its unit, that the bypass
predictions hold, that a wrong expected label or a raising op is counted as
failed instead of aborting the run, and that a traced run fails when a
layer it expects records no call.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import shutil

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs the library on the path)

TINY_ROUNDS = {
    "theta_twist": (
        (("split_gl", 2, -1), (0, 0), "Sym"),
        (("split_gl", 3, -1), (0, 0, 0), "Sym"),
    ),
    "eta_rank": (
        (workloads.U11, (0, 0), "(1,1)"),
        (("split_gl", 3, 1), (1, 0, -1), "Sym|Sym|Sym"),
    ),
    "cli_session": (
        ("match", ("split_gl", 2, -1), "iwahori"),
        ("canonicalize", ("split_gl", 3, -1), ("eta", (0, -1, -1), "Sym|Alt")),
    ),
}


def expect(ok: bool, what) -> None:
    """A check that ``python -O`` cannot switch off, unlike ``assert``."""
    if not ok:
        raise SystemExit(f"bench selftest failed: {what}")


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return rc, (json.loads(lines[-1]) if rc == 0 else None)


def check_metrics_print(spec) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = {}
    for name in TINY_ROUNDS:
        for trace, expected in ((0, units), (1, layer_units)):
            rc, doc = run_main(["--workload", name, "--seed", "3",
                                "--seconds", "0", "--trace", str(trace)])
            expect(rc == 0 and doc["correct"] and doc["failed"] == 0, (name, trace, doc))
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            expect(got == expected, (name, trace, set(got) ^ set(expected)))
            if trace:
                layers[name] = {k: v["value"] for k, v in doc["metrics"].items()}
    # the bypass predictions of the layer map
    for name, layer, fires in (
            ("eta_rank", "laurent.SeriesMatrix.mul.calls", False),
            ("eta_rank", "laurent.SeriesMatrix.inverse.calls", False),
            ("theta_twist", "exact_algebra.birkhoff_factor.calls", False),
            ("cli_session", "duality.verify_intersection.calls", True),
            ("theta_twist", "duality.verify_intersection.calls", False),
            ("eta_rank", "duality.verify_intersection.calls", False)):
        expect((layers[name][layer] > 0) == fires, (name, layer, layers[name][layer]))


class WrongLabel(workloads.EtaRank):
    """Expects a label that no class has on op 0 and raises on op 1."""

    ROUND = TINY_ROUNDS["eta_rank"] + TINY_ROUNDS["eta_rank"][:1]

    def op(self, i):
        op = super().op(i)
        if i == 0:
            op.expect = (op.expect[0], "no such label")
        if i == 1:
            def boom():
                raise ValueError("injected fault")
            op.call = boom
        return op


def check_failures_counted() -> None:
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            records = run.run_ops(WrongLabel(5, workdir), 0.0, len(WrongLabel.ROUND))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect([r.ok for r in records] == [False, False, True], records)


def check_missing_layer_fails() -> None:
    workloads.EtaRank.EXPECTED_LAYERS = ("cli.main",)
    with contextlib.redirect_stderr(io.StringIO()):
        rc, _ = run_main(["--workload", "eta_rank", "--seed", "1",
                          "--seconds", "0", "--trace", "1"])
    expect(rc == 1, f"traced run with a missing layer exited {rc}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, rnd in TINY_ROUNDS.items():
        cls = workloads.WORKLOADS[name]
        cls.ROUND = rnd
        cls.EXPECTED_LAYERS = ()
        cls.min_ops = classmethod(lambda c: len(c.ROUND))
    check_metrics_print(spec)
    check_failures_counted()
    check_missing_layer_fails()
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
