"""The benchmark's workloads: inputs, set-up, timed operations and gates.

Import only after checkout.import_crcodes().  Every call into the package
goes through a module attribute (`vf.verify_report`, not a name bound at
import) so that traced runs see the wrapped boundaries.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import gate
from crcodes import bip, cli, constructions, files, graphs, orbits, search
from crcodes import verify as vf


@dataclass
class Op:
    """One operation: run() is timed, check() and decided() are not."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    decided: Callable[[Any], bool]


def clear_library_caches() -> None:
    """Empty every memo the package keeps, so a pass starts cold."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("crcodes"):
            continue
        for attr, value in vars(mod).items():
            if isinstance(value, dict) and attr.endswith("_cache"):
                value.clear()
                continue
            while value is not None and not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if value is not None and callable(value.cache_clear):
                value.cache_clear()


# ----------------------------------------------------------------------
# verify-j284
# ----------------------------------------------------------------------

J284 = graphs.GraphSpec("grassmann", 2, 8, 4)
J166 = graphs.GraphSpec("johnson", 1, 16, 6)


def write_verify_inputs(work: Path, seed: int) -> None:
    """The spread-avoid code, a copy with one seeded swap, the SQS code."""
    code = constructions.avoid_code(J284, constructions.desarguesian_2spread(2, 8))
    files.write_code(work / "j284.code", code)
    rng = random.Random(seed)
    out_id = int(rng.choice(code.ids))
    in_id = int(rng.choice(code.complement().ids))
    ids = [i for i in code.ids.tolist() if i != out_id] + [in_id]
    files.write_code(work / "j284-swap.code",
                     vf.Code(J284, ids, label="spread-avoid-swapped"))
    sqs = constructions.extended_hamming_sqs(4)
    files.write_code(work / "j166.code", constructions.avoid_code(J166, sqs))


class VerifyJ284:
    name = "verify-j284"
    setup_samples = 7   # a set-up is only the import: cheap, and noisy

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def input_args(self) -> Optional[list[str]]:
        """child.py arguments that write this run's input files."""
        return ["inputs", str(self.seed)]

    def setup(self):
        return None

    def _verify_op(self, name, spec, code_file, check) -> Op:
        out = self.work / f"{name}.json"
        argv = ["verify", "--graph", str(spec), "--code", str(code_file),
                "--out", str(out)]

        def run():
            if out.exists():
                out.unlink()
            return cli.main(argv)

        def check_out(rc):
            return check(rc, json.loads(out.read_text(encoding="utf-8")))

        return Op(name, run, check_out, lambda rc: rc in (0, 1))

    def ops(self, state, tracer) -> list[Op]:
        w = self.work
        return [
            self._verify_op("j284", J284, w / "j284.code",
                            lambda rc, rep: gate.check_cr_report(rc, rep, gate.J284_REPORT)),
            self._verify_op("j284-swap", J284, w / "j284-swap.code",
                            gate.check_refuted),
            self._verify_op("j166", J166, w / "j166.code",
                            lambda rc, rep: gate.check_cr_report(rc, rep, gate.J166_REPORT)),
        ]


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointSet:
    """Points of one graph under singer:<exponent>, each lift re-verified."""

    tag: str
    graph: str
    exponent: int
    max_seconds: float
    expected: dict          # gamma1 -> verdict pinned at seed 0
    strict: bool            # any other verdict is a failure
    beta_plus_gamma: int


# acceptance criterion 8 without gamma1 = 15 and 24 (see README.md): every
# point is decided by the refinement ladder, whatever the seed
LADDER_J263 = PointSet("j263", "jq:2,6,3", 21, 3600.0,
                       {g1: gate.SAT for g1 in (9, 12, 18, 21, 27, 30)},
                       strict=True, beta_plus_gamma=93)
# two points of `crcodes search --graph jq:2,7,3 --group singer:1
# --theta -7` whose cost does not depend on the seed
SWEEP_J273 = PointSet("j273", "jq:2,7,3", 1, 12.0, gate.SWEEP_AT_SEED0,
                      strict=False, beta_plus_gamma=217)  # valency 210 - theta


class Search:
    name = "search"
    setup_samples = 5
    point_sets = (LADDER_J263, SWEEP_J273)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def input_args(self):
        return None

    def setup(self):
        state = []
        for ps in self.point_sets:
            spec = graphs.parse_graph_spec(ps.graph)
            osys = orbits.orbit_system(orbits.singer_action(spec, ps.exponent))
            state.append((ps, spec, osys, orbits.quotient_matrix(spec, osys)))
        return state

    def _point_op(self, ps, spec, osys, B, gamma1, tracer) -> Op:
        beta0 = ps.beta_plus_gamma - gamma1
        size = spec.vertex_count * gamma1 // ps.beta_plus_gamma
        expected = ps.expected[gamma1]

        def run():
            out = search.search_parameter_point(
                spec, osys, beta0, gamma1, B=B, max_seconds=ps.max_seconds,
                seed=self.seed, singer_exponent=ps.exponent,
                label=f"search-singer:{ps.exponent}-g{gamma1}")
            report = None
            if out.status == bip.SAT:
                with tracer.span("verify.lift_verify"):
                    report = vf.verify_report(spec, out.code)
            return out.status, report

        def check(result):
            status, report = result
            return gate.check_point(status, expected, ps.strict, report,
                                    beta0, gamma1, size)

        return Op(f"{ps.tag}-g{gamma1}", run, check,
                  lambda result: result[0] in (bip.SAT, bip.UNSAT))

    def ops(self, state, tracer) -> list[Op]:
        return [self._point_op(ps, spec, osys, B, g1, tracer)
                for ps, spec, osys, B in state for g1 in ps.expected]


WORKLOADS = {cls.name: cls for cls in (VerifyJ284, Search)}
