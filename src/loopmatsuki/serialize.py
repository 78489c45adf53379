"""JSON and TSV wire formats.

Constant matrices are row-major arrays of Gaussian-rational strings
("a/b+c/d*i"); Laurent matrices map each entry to {exponent: string}.
JSON is the source of truth; the TSV projection drops matrices and keeps
the human-diffable columns.
"""

from __future__ import annotations

import json

from typing import List, Optional, Union

from .canonicalize import CanonicalForm
from .coweight_orbits import SphericalClass
from .errors import InvalidInputError
from .gaussian import int_parts_to_str, qi_from_str, qi_to_str
from .iwahori_orbits import IwahoriClass
from .laurent import LaurentMatrix, SeriesMatrix

# an Entry allocates its whole exponent span, two 8-byte slots per exponent
MAX_LOOP_SLOTS = 2 ** 20

def const_matrix_to_json(m: LaurentMatrix) -> List[List[str]]:
    if not m.is_constant():
        raise InvalidInputError("matrix is not constant")
    c = m.constant_matrix()
    return [[qi_to_str(v) for v in row] for row in c]

def laurent_to_json(m: Union[LaurentMatrix, SeriesMatrix]) -> dict:
    entries = [[{str(k): int_parts_to_str(r, i, d) for k, r, i, d in e.int_terms()}
                for e in row] for row in m.rows]
    out = {"n": m.n, "entries": entries}
    if isinstance(m, SeriesMatrix):
        out["precision"] = m.precision
    return out

def laurent_from_json(doc) -> Union[LaurentMatrix, SeriesMatrix]:
    """Parse a loop document; a malformed one raises InvalidInputError."""
    if not isinstance(doc, dict):
        raise InvalidInputError("a loop document must be a JSON object")
    n = doc.get("n")
    if type(n) is not int or n < 1:
        raise InvalidInputError("a loop document needs a positive integer 'n'")
    entries = doc.get("entries")
    if (not isinstance(entries, list) or len(entries) != n
            or any(not isinstance(row, list) or len(row) != n for row in entries)):
        raise InvalidInputError(f"'entries' must be {n} arrays of {n} entries each")
    rows = [[_entry_from_json(e) for e in row] for row in entries]
    if sum(max(e) - min(e) + 1 for row in rows for e in row if e) > MAX_LOOP_SLOTS:
        raise InvalidInputError(
            f"the entries' exponent spans exceed the limit of {MAX_LOOP_SLOTS} slots")
    if "precision" in doc:
        if type(doc["precision"]) is not int:
            raise InvalidInputError("'precision' must be an integer")
        return SeriesMatrix(rows, doc["precision"])
    return LaurentMatrix(rows)

def _entry_from_json(e) -> dict:
    if not isinstance(e, dict):
        raise InvalidInputError("a matrix entry must be an object {exponent: coefficient}")
    out = {}
    for k, v in e.items():
        if not isinstance(v, str):
            raise InvalidInputError(f"coefficient {v!r} must be a string")
        try:
            out[int(k)] = qi_from_str(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad entry term {k!r}: {v!r} ({exc})") from None
    if len(out) != len(e):
        raise InvalidInputError("an entry repeats an exponent")
    return out

def _datum_fields(datum) -> dict:
    return {
        "family": datum.family,
        "n": datum.n,
        "epsilon": datum.epsilon,
        "z": qi_to_str(datum.z),
    }

def orbit_row(cls: Union[SphericalClass, IwahoriClass]) -> dict:
    if isinstance(cls, SphericalClass):
        row = _datum_fields(cls.datum)
        row.update({
            "side": cls.side,
            "level": "spherical",
            "lambda": list(cls.lam),
            "label": cls.label,
            "component_group": list(cls.component_group),
            "representative": laurent_to_json(cls.loop_rep),
        })
        if cls.aut_label is not None:
            row["aut_label"] = cls.aut_label
        return row
    row = _datum_fields(cls.datum)
    row.update({
        "side": cls.side,
        "level": "iwahori",
        "lambda": list(cls.tw.lam),
        "w": list(cls.tw.w),
        "label": ",".join(str(a) for a in cls.g0_args),
        "component_group": list(cls.component_group),
    })
    if cls.loop_rep is not None:
        row["representative"] = laurent_to_json(cls.loop_rep)
    return row

def canonical_form_to_json(form: CanonicalForm) -> dict:
    return {
        "side": form.side,
        "lambda": list(form.lam),
        "g0": laurent_to_json(form.g0),
        "loop_rep": laurent_to_json(form.loop_rep),
        "certificate": laurent_to_json(form.certificate),
        "residual_precision": form.residual_precision,
        "orbit_class": orbit_row(form.orbit_class),
    }

def bundle_to_json(b) -> dict:
    out = {
        "epsilon": b.epsilon,
        "z": qi_to_str(b.z),
        "splitting": list(b.splitting),
        "c": const_matrix_to_json(b.gluing),
        "aut_label": b.aut_label,
    }
    if b.lines is not None:
        l0, linf = b.lines
        out["lines"] = {"l0": [qi_to_str(v) for v in l0],
                        "linf": [qi_to_str(v) for v in linf]}
    return out

def kottwitz_to_json(p) -> dict:
    return {
        "lambda": list(p.lam),
        "g": const_matrix_to_json(p.g),
        "z": qi_to_str(p.z),
    }

def matched_pair_to_json(pair, report: Optional[dict] = None) -> dict:
    out = {
        "level": pair.level,
        "theta": orbit_row(pair.theta_class),
        "eta": orbit_row(pair.eta_class),
        "common_rep": (laurent_to_json(pair.common_rep)
                       if pair.common_rep is not None else None),
    }
    if report is not None:
        out["verification"] = report
    return out

TSV_COLUMNS = ["family", "n", "epsilon", "z", "side", "level", "lambda",
               "label", "component_group", "aut_label"]

def rows_to_tsv(rows: List[dict]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in TSV_COLUMNS:
            v = row.get(col, "")
            if isinstance(v, list):
                v = ",".join(str(x) for x in v)
            cells.append(str(v))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"

def dumps(doc) -> str:
    """Deterministic JSON text (sorted keys, stable separators)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
