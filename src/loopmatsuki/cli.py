"""Command line surface.

Subcommands: orbits, canonicalize, match, bundle, kottwitz, selftest.
JSON output is deterministic (sorted keys); the TSV projection of orbit
tables drops matrices for human diffing.  Exit codes: 2 invalid input,
3 unsupported family, 4 precision floor, 5 not anti-fixed, 1 failed
checks or verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import group_catalog as gc
from .bundles_kottwitz import enumerate_bundles, enumerate_kottwitz, \
    loop_to_bundle
from .canonicalize import canonicalize_eta, canonicalize_theta
from .coweight_orbits import classify_eta, classify_theta, enumerate_admissible
from .duality import match_iwahori, match_spherical, verify_intersection
from .errors import InvalidInputError, LoopMatsukiError
from .iwahori_orbits import enumerate_iwahori
from .laurent import LaurentMatrix, SeriesMatrix
from .selftest import run_all
from .serialize import (
    bundle_to_json,
    canonical_form_to_json,
    dumps,
    kottwitz_to_json,
    laurent_from_json,
    matched_pair_to_json,
    orbit_row,
    rows_to_tsv,
)


def _add_datum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="datum configuration JSON file")
    p.add_argument("--family",
                   choices=["split_gl", "quaternionic_gl", "unitary"])
    p.add_argument("--n", type=int, help="rank (default 2)")
    p.add_argument("--epsilon", type=int, choices=[1, -1], help="default 1")
    p.add_argument("--z", default=None,
                   help="central sector, e.g. '1', '-1' or '0/1+1/1*i'")
    p.add_argument("--inner-twist", dest="inner_twist",
                   help="JSON file with a constant matrix (row-major strings)")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.add_argument("--out", help="output path (default stdout)")


def _datum_of(args) -> gc.GroupDatum:
    if args.config:
        given = [f for f in ("family", "n", "epsilon", "z", "inner_twist")
                 if getattr(args, f) is not None]
        if given:
            raise InvalidInputError("--config cannot be combined with " + ", ".join(
                "--" + f.replace("_", "-") for f in given))
        return gc.datum_from_config(_read_json(args.config))
    if not args.family:
        raise InvalidInputError("either --config or --family is required")
    cfg = {"family": args.family, "n": 2 if args.n is None else args.n,
           "epsilon": 1 if args.epsilon is None else args.epsilon}
    if args.z is not None:
        cfg["z"] = args.z
    if args.inner_twist:
        cfg["inner_twist"] = _read_json(args.inner_twist)
    return gc.datum_from_config(cfg)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _seed_of(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("LOOPMATSUKI_SEED", "0"))


def _read_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except RecursionError:
            raise InvalidInputError(f"{path}: JSON nested too deeply") from None


def _load_loop(path: str):
    return laurent_from_json(_read_json(path))


def cmd_orbits(args) -> int:
    datum = _datum_of(args)
    rows: List[dict] = []
    if args.level == "spherical":
        classify = {gc.THETA: classify_theta, gc.ETA: classify_eta}
        for lam in enumerate_admissible(datum, args.bound):
            for side in args.side:
                rows.extend(orbit_row(c) for c in classify[side](datum, lam))
    else:
        for classes in enumerate_iwahori(datum, args.bound, args.side).values():
            rows.extend(orbit_row(c) for c in classes)
    rows.sort(key=lambda r: (r["lambda"], r.get("w", []),
                             r["side"], r["label"]))
    _emit(args, rows_to_tsv(rows) if args.format == "tsv" else dumps(rows))
    return 0


def _canonicalize_theta(x, datum: gc.GroupDatum, precision: Optional[int]):
    if isinstance(x, LaurentMatrix):
        if precision is None:
            raise InvalidInputError("the theta side needs --precision for exact input")
        x = SeriesMatrix.from_laurent(x, precision)
    return canonicalize_theta(x, datum)


def _canonicalize_eta(x, datum: gc.GroupDatum, precision: Optional[int]):
    if isinstance(x, SeriesMatrix):
        raise InvalidInputError("the eta side needs an exact Laurent loop")
    return canonicalize_eta(x, datum)


def cmd_canonicalize(args) -> int:
    datum = _datum_of(args)
    form = args.side(_load_loop(args.input), datum, args.precision)
    _emit(args, dumps(canonical_form_to_json(form)))
    return 0


def cmd_match(args) -> int:
    if args.verify_samples < 0:
        raise InvalidInputError("--verify-samples must be nonnegative")
    datum = _datum_of(args)
    matcher = match_spherical if args.level == "spherical" else match_iwahori
    pairs = matcher(datum, args.bound)
    seed = _seed_of(args)
    docs = []
    total_failures = 0
    for pair in pairs:
        report = None
        if args.verify_samples > 0 and pair.common_rep is not None:
            report = verify_intersection(pair, args.verify_samples, seed)
            total_failures += len(report["failures"])
        docs.append(matched_pair_to_json(pair, report))
    _emit(args, dumps({"pairs": docs, "total_failures": total_failures}))
    return 1 if total_failures else 0


def cmd_bundle(args) -> int:
    datum = _datum_of(args)
    if args.input:
        doc = bundle_to_json(loop_to_bundle(_load_loop(args.input), datum))
    else:
        doc = [bundle_to_json(b)
               for b in enumerate_bundles(datum, args.bound)]
    _emit(args, dumps(doc))
    return 0


def cmd_kottwitz(args) -> int:
    datum = _datum_of(args)
    points = enumerate_kottwitz(datum, args.bound)
    _emit(args, dumps([kottwitz_to_json(p) for p in points]))
    return 0


def cmd_selftest(args) -> int:
    results = run_all()
    _emit(args, dumps(results))
    return 0 if all(r["ok"] for r in results) else 1


class _Pick(argparse.Action):
    """Stores the value that the choices dict holds for the given choice."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, self.choices[value])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.  It holds no library
    function (commands look theirs up when they run), so a tree built while
    the benchmark tracer rebinds library names keeps none of its wrappers."""
    # --side maps once, here: orbits to sides, canonicalize to a reducer
    orbit_sides = {"theta": (gc.THETA,), "eta": (gc.ETA,), "both": (gc.THETA, gc.ETA)}
    reducers = {"theta": _canonicalize_theta, "eta": _canonicalize_eta}
    parser = argparse.ArgumentParser(
        prog="loopmatsuki",
        description="Exact Matsuki duality for loop groups of classical "
                    "matrix groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="enumerate orbit tables")
    _add_datum_flags(p)
    p.add_argument("--level", choices=["spherical", "iwahori"],
                   default="spherical")
    p.add_argument("--side", choices=orbit_sides, action=_Pick, default=orbit_sides["both"])
    p.add_argument("--bound", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("canonicalize", help="canonical form of a loop")
    _add_datum_flags(p)
    p.add_argument("--side", choices=reducers, action=_Pick, required=True)
    p.add_argument("--input", required=True, help="loop matrix JSON file")
    p.add_argument("--precision", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_canonicalize)

    p = sub.add_parser("match", help="match theta- and eta-classes")
    _add_datum_flags(p)
    p.add_argument("--level", choices=["spherical", "iwahori"],
                   default="spherical")
    p.add_argument("--bound", type=int, default=1)
    p.add_argument("--verify-samples", dest="verify_samples", type=int,
                   default=0)
    p.add_argument("--seed", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("bundle", help="real bundle data of eta-orbits")
    _add_datum_flags(p)
    p.add_argument("--input", help="loop matrix JSON file (else enumerate)")
    p.add_argument("--bound", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_bundle)

    p = sub.add_parser("kottwitz", help="enumerate Kottwitz-set points")
    _add_datum_flags(p)
    p.add_argument("--bound", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_kottwitz)

    p = sub.add_parser("selftest", help="run the published-table checks")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "format", "json") == "tsv" and args.command != "orbits":
        print("tsv output is only available for orbit tables",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except LoopMatsukiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
