#!/usr/bin/env python3
"""Layered benchmark of loopmatsuki.

    python3 bench/run.py --workload theta_twist --seed 1 --seconds 20 --trace 0

Runs one workload (theta_twist, eta_rank or cli_session) as a closed loop
with one caller until its timed calls add up to --seconds, checks every
output outside the timed calls, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json.
Their times are scaled to a reference speed: each op's wall time is
multiplied by REF_NOMINAL_S over the time a fixed bout of Fraction
arithmetic (``reference_seconds``) takes just before and just after the op.
A machine that shares its cores with other tenants can change speed by
1.8x over seconds; the scaling takes most of that out.  The unscaled
wall-clock figures are printed on a ``#`` line.

With --trace 1 they are the per-layer ones, from TRACE_ROUNDS rounds of ops
whatever --seconds says, so that the counts repeat exactly: the run records
spans and counts (see tracer.py) with the wrappers installed around each
traced call alone, and calls every op once more with the wrappers removed,
to measure the tracing overhead and to check that tracing changed no output
byte.

Run it from any directory; it finds the library in ``src/`` beside this
file's directory and writes only under ``.bench_out/`` there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
TRACE_ROUNDS = 2
WALL_LIMIT_S = 75.0  # no op starts after this much wall time in one pass
# the time reference_seconds() takes on a machine of reference speed
REF_NOMINAL_S = 0.002

# times, in a fresh interpreter, importing the library (through the
# benchmark's workloads module, which imports every library module) and
# building the workload's group data; then times the reference work
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
for key in workloads.WORKLOADS[sys.argv[3]].data_keys():
    workloads.build_data(key)
setup = time.perf_counter() - t0
import run
print(repr(setup), repr(sorted(run.reference_seconds() for _ in range(3))[1]))
"""


@dataclass
class Record:
    rank: int
    seconds: float
    scale: float  # REF_NOMINAL_S over the reference time around the call
    ok: bool
    data: bytes
    untraced_seconds: float = 0.0  # the untraced twin call, in a traced run

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def reference_seconds() -> float:
    """Wall time of a fixed bout of Fraction arithmetic, the library's own
    kind of work.  The cyclic collector is off meanwhile, so that the size
    of the library's heap does not change the cost."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        a, s = Fraction(1, 3), Fraction(0)
        for k in range(1, 400):
            s = s + a * Fraction(k, k + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_once(workload: str) -> Tuple[float, float]:
    """(import plus data construction, reference time), measured inside
    one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), workload],
        capture_output=True, text=True, timeout=60, check=True)
    setup, ref = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(ref)


def timed_call(op, tracer=None):
    """(output, exception, seconds) of one call, traced when a tracer is given."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed op is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out, error, dt


def run_ops(wl, seconds: float, min_ops: int, tracer=None,
            setup_times: Optional[List[Tuple[float, float]]] = None) -> List[Record]:
    """The closed loop: generate op i, time its call, check it, repeat.

    Stops at the first end of a round after the timed calls add up to
    ``seconds`` and at least ``min_ops`` ops have run.  With a ``tracer``
    every op is also called untraced, with the wrappers removed, just before
    or just after the traced call in alternating order, so that the two
    timings see the same machine state; the twin's output must match byte
    for byte.

    With ``setup_times`` it also times SETUP_REPEATS fresh-process set-ups,
    spread evenly over the run between ops, because a machine's speed can
    drift over seconds and one burst of set-ups would sample one moment.
    """
    records: List[Record] = []
    timed = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        if setup_times is not None and len(setup_times) < SETUP_REPEATS \
                and timed >= seconds * len(setup_times) / SETUP_REPEATS:
            setup_times.append(setup_once(wl.name))
            continue
        if (timed >= seconds and i >= min_ops and i % len(wl.ROUND) == 0) \
                or time.perf_counter() - start > WALL_LIMIT_S:
            break
        op = wl.op(i)
        ref = reference_seconds()
        twin = None
        if tracer is not None and i % 2:
            twin = timed_call(op)
        out, error, dt = timed_call(op, tracer)
        if tracer is not None and twin is None:
            twin = timed_call(op)
        scale = 2 * REF_NOMINAL_S / (ref + reference_seconds())
        ok, data = False, b""
        if error is None:
            try:
                ok = bool(op.check(out, op.expect))
                data = op.data(out)
                if twin is not None and (twin[1] is not None or op.data(twin[0]) != data):
                    ok = False
                    print(f"op {i}: the untraced call gave another output", file=sys.stderr)
            except Exception as exc:
                ok, error = False, exc
        if error is not None:
            data = f"error: {type(error).__name__}: {error}".encode()
            print(f"op {i} failed: {type(error).__name__}: {error}", file=sys.stderr)
        elif not ok:
            print(f"op {i} failed its check", file=sys.stderr)
        records.append(Record(op.rank, dt, scale, ok, data,
                              twin[2] if twin is not None else 0.0))
        timed += dt
        i += 1
    while setup_times is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once(wl.name))
    return records


def digest(wl, records: List[Record]) -> str:
    """sha256 over the outputs of the first round of ops, in order."""
    h = hashlib.sha256()
    for r in records[:len(wl.ROUND)]:
        h.update(r.data)
    return h.hexdigest()


def tail(values: List[float], percentile: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def latencies(records: List[Record], scaled: bool = True) -> List[float]:
    """Latencies of the completed ops; of all ops when none completed, so a
    broken run (reported with correct false) still prints every metric."""
    done = [r for r in records if r.ok] or records
    return [r.scaled if scaled else r.seconds for r in done]


def timings(wl, records: List[Record], scaled: bool) -> Dict[str, float]:
    lat = latencies(records, scaled)
    busy = sum(r.scaled if scaled else r.seconds for r in records)
    return {"ops_per_s": sum(1 for r in records if r.ok) / busy,
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail(lat, wl.TAIL_PERCENTILE)}


def end_to_end(wl, records: List[Record],
               setup_times: List[Tuple[float, float]]) -> Dict[str, tuple]:
    units = {"ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s"}
    metrics = {
        "setup_s": (statistics.median(s * REF_NOMINAL_S / ref for s, ref in setup_times), "s"),
        **{k: (v, units[k]) for k, v in timings(wl, records, scaled=True).items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # what the JSON line does not carry: the tail's sample count, the
    # per-rank medians, the failed share and the unscaled wall-clock times
    lat = latencies(records)
    beyond = sum(1 for v in lat if v > metrics["op_tail_s"][0])
    print(f"# {wl.name}: op_tail_s is p{wl.TAIL_PERCENTILE} with {beyond} of "
          f"{len(lat)} samples beyond it")
    ranks = sorted({r.rank for r in records})
    print("# " + " ".join(
        f"op_p50_s.n{n}={statistics.median(v):.6f} s (count {len(v)})"
        for n, v in ((n, latencies([r for r in records if r.rank == n])) for n in ranks)))
    ok = sum(1 for r in records if r.ok)
    print(f"# failed_frac={(len(records) - ok) / len(records):.6f} ratio")
    wall = timings(wl, records, scaled=False)
    print("# unscaled wall clock: " + " ".join(f"{k}={v:.6f}" for k, v in wall.items())
          + f" setup_s={statistics.median(s for s, _ in setup_times):.6f}; "
          f"reference_seconds median {statistics.median(REF_NOMINAL_S / r.scale for r in records):.6f}")
    return metrics


def traced(wl, spans_path: Path):
    """Per-layer metrics, the records, and the layers that recorded no call."""
    from tracer import Tracer

    tracer = Tracer()
    records = run_ops(wl, 0.0, TRACE_ROUNDS * len(wl.ROUND), tracer)
    overhead = (sum(r.seconds for r in records)
                / sum(r.untraced_seconds for r in records) - 1.0)
    tracer.write_spans(spans_path)
    return tracer.metrics(overhead), records, tracer.missing(wl.EXPECTED_LAYERS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopmatsuki" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, records, missing = traced(
                wl, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            if missing:
                print("error: traced layers recorded no call: " + ", ".join(missing),
                      file=sys.stderr)
                return 1
        else:
            setup_times: List[Tuple[float, float]] = []
            records = run_ops(wl, args.seconds, wl.min_ops(), setup_times=setup_times)
            metrics = end_to_end(wl, records, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if not r.ok)
    print(f"# sha256 of the first {min(len(records), len(wl.ROUND))} op outputs: "
          f"{digest(wl, records)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
