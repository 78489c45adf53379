"""Per-layer trace of the library, recorded from outside it.

``Tracer.install`` wraps the public functions listed in ``SPANNED`` and
rebinds each wrapper in every ``loopmatsuki`` module that holds the
function by name (``from .x import f`` copies the reference, so patching
the defining module alone would miss those callers).  It also patches the
listed methods of ``LaurentMatrix``, ``SeriesMatrix`` and ``QI``.

The wrappers are in place only between ``install`` and ``uninstall``, so
the benchmark installs them around the traced calls alone.  A wrapped call
records a span (id, parent id, name, start, end) in memory; a layer's self
time is its span's duration minus the time its child spans cover.  ``QI``
arithmetic is only counted, because a span per scalar operation would dwarf
the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from loopmatsuki.errors import PrecisionError
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix

# (module, function): spanned under the name "<module>.<function>"
SPANNED: Tuple[Tuple[str, str], ...] = (
    ("laurent", "series_exp"),
    ("exact_algebra", "valuation_coweight"),
    ("exact_algebra", "smith_over_dvr"),
    ("exact_algebra", "birkhoff_factor"),
    ("exact_algebra", "unipotent_sqrt"),
    ("exact_algebra", "cayley_unitary"),
    ("exact_algebra", "hermitian_signature"),
    ("group_catalog", "apply_theta"),
    ("group_catalog", "apply_eta"),
    ("group_catalog", "is_anti_fixed_theta"),
    ("group_catalog", "is_anti_fixed_eta"),
    ("coweight_orbits", "enumerate_admissible"),
    ("coweight_orbits", "classify_theta"),
    ("coweight_orbits", "classify_eta"),
    ("iwahori_orbits", "enumerate_admissible_tw"),
    ("iwahori_orbits", "classes_at_tw"),
    ("iwahori_orbits", "build_torus_problem"),
    ("intlat", "snf_int"),
    ("intlat", "integer_left_kernel_basis"),
    ("canonicalize", "canonicalize_theta"),
    ("canonicalize", "canonicalize_eta"),
    ("canonicalize", "iwahori_reduce_theta"),
    ("canonicalize", "iwahori_reduce_eta"),
    ("duality", "match_spherical"),
    ("duality", "match_iwahori"),
    ("duality", "verify_intersection"),
    ("bundles_kottwitz", "enumerate_bundles"),
    ("bundles_kottwitz", "enumerate_kottwitz"),
    ("serialize", "dumps"),
    ("serialize", "laurent_from_json"),
    ("cli", "main"),
)

# (class, attribute, span name); det and det_with_precision share one name
SPANNED_METHODS = (
    (LaurentMatrix, "__mul__", "laurent.LaurentMatrix.mul"),
    (SeriesMatrix, "__mul__", "laurent.SeriesMatrix.mul"),
    (LaurentMatrix, "inverse", "laurent.LaurentMatrix.inverse"),
    (SeriesMatrix, "inverse", "laurent.SeriesMatrix.inverse"),
    (LaurentMatrix, "det", "laurent.det"),
    (SeriesMatrix, "det_with_precision", "laurent.det"),
)

# QI attributes counted (not spanned) under gaussian.QI.<name>.calls
COUNTED_QI = (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
              ("__radd__", "add"), ("__sub__", "add"), ("inv", "inv"))

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in SPANNED) + tuple(
    dict.fromkeys(name for _, _, name in SPANNED_METHODS))
COUNT_NAMES = tuple(f"gaussian.QI.{n}" for n in dict.fromkeys(n for _, n in COUNTED_QI))
DERIVED_NAMES = (
    "gaussian.max_coeff_bits", "laurent.entry_term_products",
    "laurent.entry_terms_mean", "canonicalize.precision_errors",
    "canonicalize.certified_precision_frac", "duality.verify.samples",
    "serialize.dumps.bytes", "trace_overhead_frac")
CANONICALIZERS = ("canonicalize.canonicalize_theta", "canonicalize.canonicalize_eta",
                  "canonicalize.iwahori_reduce_theta", "canonicalize.iwahori_reduce_eta")


def per_layer_metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every metric ``Tracer.metrics`` reports."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"{name}.calls", "count") for name in COUNT_NAMES]
    units = {"gaussian.max_coeff_bits": "bits", "laurent.entry_terms_mean": "terms",
             "canonicalize.certified_precision_frac": "ratio",
             "serialize.dumps.bytes": "bytes", "trace_overhead_frac": "ratio"}
    out += [(name, units.get(name, "count")) for name in DERIVED_NAMES]
    return out


def _matrix_bits(m) -> int:
    """Largest numerator + denominator bit length over the matrix's coefficients."""
    best = 0
    for row in m.rows:
        for e in row:
            for v in e.values():
                for f in (v.re, v.im):
                    b = f.numerator.bit_length() + f.denominator.bit_length()
                    if b > best:
                        best = b
    return best


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[list] = []  # [span id, start, children's time, name]
        self._next_id = 1
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.max_bits = 0
        self.term_products = 0
        self.operand_terms = 0
        self.operand_entries = 0
        self.precision_errors = 0
        self._last_error: Optional[BaseException] = None
        self.theta_input_precision = 0
        self.theta_residual_precision = 0
        self.verify_samples = 0
        self.dumps_bytes = 0
        # (owner, attribute, original, wrapper), found on the first install
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- wrappers -------------------------------------------------------------
    def _spanned(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Wrap fn in a span; the hooks' own time is charged to no layer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            hook_s = 0.0
            if before is not None:
                h0 = time.perf_counter()
                before(args)
                hook_s = time.perf_counter() - h0
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, time.perf_counter(), 0.0, name]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except PrecisionError as exc:
                if name in CANONICALIZERS and exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.precision_errors += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += end - frame[1] - frame[2]
                tracer.spans.append((sid, parent, name, frame[1], end))
                if stack:
                    stack[-1][2] += end - frame[1] + hook_s
            if after is not None:
                h0 = time.perf_counter()
                after(args, out)
                if stack:
                    stack[-1][2] += time.perf_counter() - h0
            return out

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- hooks ------------------------------------------------------------------
    def _before_mul(self, args) -> None:
        a, b = args[0], args[1]
        n = a.n
        for k in range(n):
            left = [len(a.rows[i][k]) for i in range(n)]
            right = [len(b.rows[k][j]) for j in range(n)]
            self.term_products += sum(left) * sum(right)
            for t in left + right:
                if t:
                    self.operand_terms += t
                    self.operand_entries += 1

    def _after_matrix(self, args, out) -> None:
        bits = _matrix_bits(out)
        if bits > self.max_bits:
            self.max_bits = bits

    def _after_theta(self, args, out) -> None:
        # nested calls (the inner-twist transport) belong to the outermost one
        if isinstance(args[0], SeriesMatrix) and not any(
                f[3] == "canonicalize.canonicalize_theta" for f in self._stack):
            self.theta_input_precision += args[0].precision
            self.theta_residual_precision += out.residual_precision

    def _after_verify(self, args, out) -> None:
        self.verify_samples += out["samples"]

    def _after_dumps(self, args, out) -> None:
        self.dumps_bytes += len(out)

    # -- install / remove ----------------------------------------------------
    def install(self) -> None:
        """Put every wrapper in place of what it wraps."""
        if not self._patches:
            self._find_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _find_patches(self) -> None:
        hooks = {
            "canonicalize.canonicalize_theta": (None, self._after_theta),
            "duality.verify_intersection": (None, self._after_verify),
            "serialize.dumps": (None, self._after_dumps),
        }
        mods = {m: importlib.import_module(f"loopmatsuki.{m}") for m, _ in SPANNED}
        for m, f in SPANNED:
            name = f"{m}.{f}"
            orig = getattr(mods[m], f)
            before, after = hooks.get(name, (None, None))
            self._rebind(orig, self._spanned(name, orig, before, after))
        for cls, attr, name in SPANNED_METHODS:
            is_mul = attr == "__mul__"
            self._patch(cls, attr, self._spanned(
                name, cls.__dict__[attr],
                self._before_mul if is_mul else None,
                self._after_matrix if name != "laurent.det" else None))
        from loopmatsuki.gaussian import QI
        for attr, short in COUNTED_QI:
            self._patch(QI, attr, self._counted(f"gaussian.QI.{short}",
                                                QI.__dict__[attr]))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    def _rebind(self, orig, wrapper) -> None:
        """Patch every loopmatsuki module that holds ``orig`` under any name."""
        for modname, mod in list(sys.modules.items()):
            if modname != "loopmatsuki" and not modname.startswith("loopmatsuki."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, key, wrapper)

    # -- results ----------------------------------------------------------------
    def missing(self, expected) -> List[str]:
        """Expected layer names that recorded no call."""
        return [name for name in expected if self.calls.get(name, 0) == 0]

    def metrics(self, overhead_frac: float) -> Dict[str, Tuple[float, str]]:
        units = dict(per_layer_metric_names())
        values: Dict[str, float] = {}
        for name in SPAN_NAMES:
            values[f"{name}.calls"] = self.calls.get(name, 0)
            values[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in COUNT_NAMES:
            values[f"{name}.calls"] = self.calls.get(name, 0)
        values.update({
            "gaussian.max_coeff_bits": self.max_bits,
            "laurent.entry_term_products": self.term_products,
            "laurent.entry_terms_mean": (self.operand_terms / self.operand_entries
                                         if self.operand_entries else 0.0),
            "canonicalize.precision_errors": self.precision_errors,
            "canonicalize.certified_precision_frac": (
                self.theta_residual_precision / self.theta_input_precision
                if self.theta_input_precision else 0.0),
            "duality.verify.samples": self.verify_samples,
            "serialize.dumps.bytes": self.dumps_bytes,
            "trace_overhead_frac": overhead_frac,
        })
        return {k: (v, units[k]) for k, v in values.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")
