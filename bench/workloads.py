"""The benchmark's three workloads: input generation, the timed call and its check.

Every workload is a closed loop with one caller.  Op ``i`` is slot
``j = i mod len(ROUND)`` of a fixed round, and a run stops only at the end
of a round, so every run measures whole copies of the same work.  An op's
inputs come from its own ``random.Random`` generators, so they do not
depend on how many ops an earlier run completed.

A twist is ``h = s * h_j``: ``h_j`` comes from randgen with a generator
seeded by the content of slot ``j`` alone, and the diagonal sign matrix
``s`` from one seeded by ``(seed, i)``.  The draw of ``h_j`` sets an op's
cost, by up to ten times at the same rank.  A random constant factor or a
signed permutation in place of ``s`` still moved it by a third or more; a
sign change alters the input but not the work.  The verification seed of
a ``match`` op comes from its slot for the same reason.

Generation and checking run outside the timed call: ``Op.call`` is the
only thing timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from loopmatsuki import canonicalize, cli, coweight_orbits, randgen, serialize
from loopmatsuki import group_catalog as gc
from loopmatsuki.laurent import LaurentMatrix, SeriesMatrix

# criterion 7 of the acceptance suite: twists known to precision 8, carried
# at 8 + 6 so that the products lose nothing the canonicalizer needs
THETA_PRECISION = 8
THETA_CARRIED = THETA_PRECISION + 6
ETA_TWIST_DEGREE = 3
CLASS_BOUND = 1

U11 = ("unitary", 2, 1, "U(1,1)")  # pure inner twist of U(2) by diag(1, -1)

DataKey = Tuple  # (family, n, epsilon) or U11
ClassKey = Tuple  # (data key, lambda, label)


@dataclass
class Op:
    """One call into the library.

    ``check(out, expect)`` says whether the output is right; ``data(out)`` is
    the output's bytes for the digest.
    """

    rank: int
    call: Callable[[], object]
    check: Callable[[object, object], bool]
    data: Callable[[object], bytes]
    expect: object = None


def build_data(key: DataKey) -> gc.GroupDatum:
    if key == U11:
        return gc.pure_inner_twist(
            gc.build_datum("unitary", 2, 1),
            LaurentMatrix.from_scalars([[1, 0], [0, -1]]))
    family, n, eps = key
    return gc.build_datum(family, n, eps)


class Catalog:
    """Data and orbit classes at CLASS_BOUND, built once per run, untimed."""

    def __init__(self):
        self._data: Dict[DataKey, gc.GroupDatum] = {}
        self._classes: Dict[Tuple[str, DataKey], dict] = {}

    def datum(self, key: DataKey) -> gc.GroupDatum:
        if key not in self._data:
            self._data[key] = build_data(key)
        return self._data[key]

    def orbit_class(self, side: str, ckey: ClassKey):
        key, lam, label = ckey
        if (side, key) not in self._classes:
            d = self.datum(key)
            classify = (coweight_orbits.classify_theta if side == "theta"
                        else coweight_orbits.classify_eta)
            self._classes[(side, key)] = {
                (c.lam, c.label): c
                for adm in coweight_orbits.enumerate_admissible(d, CLASS_BOUND)
                for c in classify(d, adm)}
        return self._classes[(side, key)][(tuple(lam), label)]


def random_signs(n: int, rng: random.Random) -> LaurentMatrix:
    return LaurentMatrix.diag_scalars([rng.choice((1, -1)) for _ in range(n)])


def theta_twist_of(d: gc.GroupDatum, cls, shape: random.Random,
                   rng: random.Random) -> SeriesMatrix:
    """x = h * rep * theta(h)^-1 for h = s * (a random arc element)."""
    h = randgen.random_arc_element(d.n, THETA_PRECISION, shape)
    # h is an exact polynomial of degree < THETA_PRECISION, so carrying it at
    # a higher precision is exact
    hp = random_signs(d.n, rng) * LaurentMatrix(
        [[h.entry(r, c) for c in range(d.n)] for r in range(d.n)])
    hs = SeriesMatrix.from_laurent(hp, THETA_CARRIED)
    return (hs * SeriesMatrix.from_laurent(cls.loop_rep, THETA_CARRIED)
            * gc.apply_theta(hs, d).inverse())


def eta_twist_of(d: gc.GroupDatum, cls, shape: random.Random,
                 rng: random.Random) -> LaurentMatrix:
    """x = h * rep * eta(h)^-1 for h = s * (a random polynomial element)."""
    h = random_signs(d.n, rng) * randgen.random_poly_element(
        d.n, ETA_TWIST_DEGREE, shape)
    return h * cls.loop_rep * gc.apply_eta(h, d).inverse()


TWISTS = {"theta": theta_twist_of, "eta": eta_twist_of}


def replays(form, x, d: gc.GroupDatum) -> bool:
    """certificate * x * involution(certificate)^-1 == loop_rep: exactly on
    the eta side, to the residual precision on the theta side."""
    if form.side == "eta":
        lhs = form.certificate * x * gc.apply_eta(form.certificate, d).inverse()
        return lhs == form.loop_rep
    lhs = form.certificate * x * gc.apply_theta(form.certificate, d).inverse()
    r = form.residual_precision
    return lhs.retruncate(r) == SeriesMatrix.from_laurent(form.loop_rep, r)


def form_bytes(form) -> bytes:
    return serialize.dumps(serialize.canonical_form_to_json(form)).encode()


class Workload:
    """A named op sequence; subclasses define ``ROUND`` and ``op``."""

    name = ""
    #: percentile reported as op_tail_s, set inside the latency band of one
    #: slot rather than at its edge; a run does at least min_ops() ops, so
    #: that ten of them lie beyond it
    TAIL_PERCENTILE = 50
    #: layer names that must record calls in a traced run of this workload
    EXPECTED_LAYERS: Tuple[str, ...] = ()
    ROUND: Tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.catalog = Catalog()

    def rng(self, i: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + i)

    def shape(self, i: int) -> random.Random:
        return random.Random(repr(self.ROUND[i % len(self.ROUND)]))

    def op(self, i: int) -> Op:
        raise NotImplementedError

    @classmethod
    def min_ops(cls) -> int:
        """Ops a run needs: one round, and ten beyond the tail percentile."""
        return max(len(cls.ROUND), math.ceil(10 / (1 - cls.TAIL_PERCENTILE / 100)))

    @staticmethod
    def data_key(entry) -> DataKey:
        """The group datum of a ROUND entry."""
        return entry[0]

    @classmethod
    def data_keys(cls) -> Tuple[DataKey, ...]:
        """The data of the round, whose construction setup_s times."""
        return tuple(dict.fromkeys(cls.data_key(e) for e in cls.ROUND))


class Canonicalize(Workload):
    """canonicalize_<SIDE> on twists of the round's class representatives."""

    SIDE = ""

    def op(self, i: int) -> Op:
        ckey = self.ROUND[i % len(self.ROUND)]
        d = self.catalog.datum(ckey[0])
        cls = self.catalog.orbit_class(self.SIDE, ckey)
        x = TWISTS[self.SIDE](d, cls, self.shape(i), self.rng(i))
        # looked up at call time, so that a traced call goes through the
        # wrapper the tracer installs around it
        fn = f"canonicalize_{self.SIDE}"

        def check(form, expect):
            return (form.lam, form.orbit_class.label) == expect and replays(form, x, d)

        return Op(d.n, lambda: getattr(canonicalize, fn)(x, d), check, form_bytes,
                  (cls.lam, cls.label))


class ThetaTwist(Canonicalize):
    """canonicalize_theta on G(O)-twists of theta-class representatives."""

    name = "theta_twist"
    SIDE = "theta"
    TAIL_PERCENTILE = 55
    EXPECTED_LAYERS = (
        "canonicalize.canonicalize_theta", "laurent.SeriesMatrix.mul",
        "laurent.SeriesMatrix.inverse", "laurent.det", "laurent.series_exp",
        "exact_algebra.smith_over_dvr", "exact_algebra.valuation_coweight",
        "group_catalog.apply_theta", "gaussian.QI.mul")
    # Rank 2 carries six ops of seven, and a rank-3 op costs about four of
    # them.  The rank-2 classes cost 0.4 to 0.7 s; the one of middle cost,
    # U(2) class (1,1), fills two slots, so that the median and p55 fall
    # inside its latency band rather than in the gap between two classes.
    ROUND = (
        (("split_gl", 2, 1), (1, 0), "Sym|Sym"),
        (("unitary", 2, 1), (0, 0), "(1,1)"),
        (("quaternionic_gl", 2, -1), (1, -1), "Sym|Sym"),
        (("split_gl", 3, 1), (1, 0, -1), "Sym|Sym|Sym"),
        (("unitary", 2, 1), (1, -1), "(0,0)"),
        (("split_gl", 2, -1), (-1, -1), "Alt"),
        (("unitary", 2, 1), (0, 0), "(1,1)"),
    )


class EtaRank(Canonicalize):
    """canonicalize_eta on polynomial twists of eta-class representatives, n = 2..5."""

    name = "eta_rank"
    SIDE = "eta"
    TAIL_PERCENTILE = 77
    EXPECTED_LAYERS = (
        "canonicalize.canonicalize_eta", "laurent.LaurentMatrix.mul",
        "laurent.LaurentMatrix.inverse", "laurent.det",
        "exact_algebra.birkhoff_factor", "group_catalog.apply_eta",
        "coweight_orbits.classify_eta", "gaussian.QI.mul")
    # Odd slot counts, per rank and in all, put every median inside the
    # latency band of one slot instead of in a gap between two; the rank-5
    # class fills two slots.
    ROUND = (
        (("split_gl", 2, 1), (1, 0), "Sym|Sym"),
        (("split_gl", 3, 1), (1, 0, -1), "Sym|Sym|Sym"),
        (("split_gl", 4, 1), (1, 0, 0, -1), "Sym|Sym|Sym"),
        (("split_gl", 5, 1), (1, 0, 0, 0, -1), "Sym|Sym|Sym"),
        (U11, (0, 0), "(1,1)"),
        (("split_gl", 3, -1), (0, -1, -1), "Sym|Alt"),
        (("split_gl", 4, -1), (1, 1, -1, -1), "Alt|Alt"),
        (("unitary", 2, 1), (1, -1), "(0,0)"),
        (("unitary", 3, 1), (1, 0, -1), "(1,0)"),
        (("unitary", 4, 1), (0, 0, 0, 0), "(2,2)"),
        (("split_gl", 5, 1), (1, 0, 0, 0, -1), "Sym|Sym|Sym"),
    )


def _datum_argv(key: DataKey) -> List[str]:
    family, n, eps = key[:3]
    return ["--family", family, "--n", str(n), "--epsilon", str(eps)]


def run_cli(argv: List[str]) -> Tuple[int, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


class CliSession(Workload):
    """In-process cli.main over table, match, canonicalize, bundle and kottwitz commands."""

    name = "cli_session"
    TAIL_PERCENTILE = 87
    EXPECTED_LAYERS = (
        "cli.main", "coweight_orbits.classify_theta",
        "coweight_orbits.classify_eta", "iwahori_orbits.classes_at_tw",
        "iwahori_orbits.build_torus_problem", "intlat.snf_int",
        "duality.match_spherical", "duality.match_iwahori",
        "duality.verify_intersection", "bundles_kottwitz.enumerate_bundles",
        "bundles_kottwitz.enumerate_kottwitz", "serialize.dumps",
        "serialize.laurent_from_json", "canonicalize.canonicalize_theta",
        "canonicalize.canonicalize_eta")
    VERIFY_SAMPLES = 2
    # (command, data, detail): orbits detail is (level, format); match
    # detail is the level; canonicalize detail is (side, lambda, label).
    # Nine rank-2, five rank-3 and five rank-4 slots: odd counts put every
    # median inside the latency band of one slot.
    ROUND = (
        ("orbits", ("split_gl", 2, 1), ("spherical", "json")),
        ("canonicalize", ("split_gl", 2, 1), ("eta", (1, 0), "Sym|Sym")),
        ("orbits", ("split_gl", 3, 1), ("iwahori", "tsv")),
        ("match", ("split_gl", 2, 1), "spherical"),
        ("orbits", ("unitary", 4, 1), ("spherical", "tsv")),
        ("canonicalize", ("unitary", 2, 1), ("theta", (1, -1), "(0,0)")),
        ("kottwitz", ("split_gl", 4, -1), None),
        ("match", ("unitary", 2, 1), "iwahori"),
        ("orbits", U11, ("iwahori", "json")),
        ("bundle", ("split_gl", 3, 1), None),
        ("canonicalize", ("split_gl", 3, -1), ("eta", (0, -1, -1), "Sym|Alt")),
        ("orbits", ("quaternionic_gl", 2, -1), ("iwahori", "tsv")),
        ("kottwitz", ("unitary", 3, 1), None),
        ("orbits", ("split_gl", 4, -1), ("spherical", "json")),
        ("match", ("quaternionic_gl", 2, -1), "spherical"),
        ("bundle", ("quaternionic_gl", 4, -1), None),
        ("canonicalize", ("split_gl", 4, 1), ("eta", (1, 0, 0, -1), "Sym|Sym|Sym")),
        ("orbits", ("unitary", 3, 1), ("iwahori", "json")),
        ("match", ("split_gl", 2, -1), "iwahori"),
    )

    def _write(self, i: int, name: str, doc) -> str:
        path = self.workdir / f"op{i}-{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def op(self, i: int) -> Op:
        command, key, detail = self.ROUND[i % len(self.ROUND)]
        rng, shape = self.rng(i), self.shape(i)
        argv = [command, *_datum_argv(key)]
        if key == U11:
            twist = serialize.const_matrix_to_json(self.catalog.datum(key).twist)
            argv += ["--inner-twist", self._write(i, "twist", twist)]
        expect = None
        if command == "orbits":
            level, fmt = detail
            argv += ["--level", level, "--bound", str(CLASS_BOUND), "--format", fmt]
        elif command == "match":
            argv += ["--level", detail, "--bound", str(CLASS_BOUND),
                     "--verify-samples", str(self.VERIFY_SAMPLES),
                     "--seed", str(shape.randrange(2**31))]
        elif command in ("bundle", "kottwitz"):
            argv += ["--bound", str(CLASS_BOUND)]
        else:
            side, lam, label = detail
            d = self.catalog.datum(key)
            cls = self.catalog.orbit_class(side, (key, lam, label))
            x = TWISTS[side](d, cls, shape, rng)
            argv += ["--side", side, "--input",
                     self._write(i, "loop", serialize.laurent_to_json(x))]
            expect = (cls.lam, cls.label)
        return Op(self.catalog.datum(key).n, lambda: run_cli(argv),
                  _cli_check(command), lambda result: result[1].encode(), expect)

    @staticmethod
    def data_key(entry) -> DataKey:
        return entry[1]


def _cli_check(command: str) -> Callable[[object, object], bool]:
    def check(result, expect) -> bool:
        rc, text = result
        if rc != 0 or not text:
            return False
        if command == "match":
            return json.loads(text)["total_failures"] == 0
        if command == "canonicalize":
            doc = json.loads(text)
            return (tuple(doc["lambda"]), doc["orbit_class"]["label"]) == expect
        return True
    return check


WORKLOADS = {w.name: w for w in (ThetaTwist, EtaRank, CliSession)}

