"""In-memory spans around calls into the crcodes layers, and their summary.

A span records name, start, end, parent span and the operation it belongs
to.  `install` wraps public functions of each layer by rebinding every
module attribute that names them (so `from .graphs import vertex_index`
bindings are wrapped too), plus `scipy.optimize.linprog`/`milp`, which the
search layer imports at call time.  Nothing inside the package is edited.

A layer is the part of a span name before the first dot.  Self time is a
span's duration minus the durations of its direct children, so the self
times of all spans add up to the total duration of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Optional


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None
        self._keep: list = []  # objects whose id() a span records stay alive

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, record=None):
        """fn inside a span; record(rec, args, kwargs, result) adds fields
        and returns an object to keep alive, or None."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if record is not None:
                    kept = record(rec, args, kwargs, out)
                    if kept is not None:
                        self._keep.append(kept)
                return out
        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                line = dict(rec, seconds=rec["end"] - rec["start"])
                fh.write(json.dumps(line, default=str) + "\n")


class NullTracer:
    """Untraced runs: operation spans cost one no-op context manager."""

    op = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield None


def _rebind(original, wrapper) -> None:
    for mod in list(sys.modules.values()):
        if mod is None or not getattr(mod, "__name__", "").startswith("crcodes"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _rec_len(rec, args, kwargs, out):
    rec["size"] = len(out)


def _rec_index(rec, args, kwargs, out):
    rec.update(size=len(out), index=id(out))
    return out


def _rec_solve(rec, args, kwargs, out):
    rec.update(r=args[0].r, status=out.status, nodes=out.nodes,
               instance=id(args[0]))
    return args[0]


def _rec_osys(rec, args, kwargs, out):
    rec.update(r=out.count, group=out.description)


def _rec_instance(rec, args, kwargs, out):
    rec.update(r=out.r, group=out.description)


def _rec_milp(rec, args, kwargs, out):
    c = kwargs.get("c", args[0] if args else ())
    rec.update(r=len(c), status=int(out.status))


def _rec_linprog(rec, args, kwargs, out):
    rec.update(status=int(out.status))


def _rec_point(rec, args, kwargs, out):
    rec.update(gamma1=args[3], group=args[1].description,
               status=out.status, stage=out.stage)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in BENCHMARK.json's per-layer metrics."""
    from crcodes import bip, cli, files, graphs, orbits, search, verify

    targets = [
        (cli, "main", "cli.main", None),
        (files, "read_code", "files.read_code", _rec_len),
        (graphs, "vertex_index", "graphs.vertex_index", _rec_index),
        (graphs, "containment_table", "graphs.containment_table", None),
        (graphs, "adjacency_lists", "graphs.adjacency_lists", None),
        (verify, "distance_partition", "verify.distance_partition", None),
        (verify, "check_completely_regular", "verify.check_completely_regular", None),
        (verify, "design_strength", "verify.design_strength", None),
        (verify, "verify_report", "verify.verify_report", None),
        (orbits, "singer_action", "orbits.singer_action", None),
        (orbits, "frobenius_action", "orbits.frobenius_action", None),
        (orbits, "orbit_system", "orbits.orbit_system", _rec_osys),
        (orbits, "quotient_matrix", "orbits.quotient_matrix", None),
        (bip, "build_instance", "bip.build_instance", _rec_instance),
        (bip, "solve", "bip.solve", _rec_solve),
        (search, "search_parameter_point", "search.point", _rec_point),
    ]
    for mod, attr, name, record in targets:
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(original, name, record))
    # GroupAction construction is where generators are checked
    cls = orbits.GroupAction
    cls.__post_init__ = tracer.wrap(cls.__post_init__, "orbits.group_action")
    import scipy.optimize as so
    so.linprog = tracer.wrap(so.linprog, "search.linprog", _rec_linprog)
    so.milp = tracer.wrap(so.milp, "search.milp", _rec_milp)


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------

def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    out = {rec["id"]: _dur(rec) for rec in spans}
    for rec in spans:
        if rec["parent"] is not None:
            out[rec["parent"]] -= _dur(rec)
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec["name"].split(".", 1)[0]] += own[rec["id"]]
    return dict(out)


def root_total(spans: list[dict]) -> float:
    return sum(_dur(rec) for rec in spans if rec["parent"] is None)


def _ancestors(spans, rec):
    while rec["parent"] is not None:
        rec = spans[rec["parent"]]
        yield rec


def _inclusive(spans, names) -> float:
    """Summed duration of spans named in names, not nested in one another."""
    return sum(_dur(rec) for rec in spans if rec["name"] in names and
               not any(a["name"] in names for a in _ancestors(spans, rec)))


LAYERS = ("bench", "cli", "files", "graphs", "verify", "orbits", "bip", "search")
STAGES = ("refinement", "lp-vertex", "pump", "milp", "dfs-restart", "dfs")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and seconds for one traced pass."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec["name"]].append(rec)
    own = self_times(spans)
    m: dict[str, float] = {}

    reads = by_name["files.read_code"]
    parsed = sum(rec.get("size", 0) for rec in reads)
    m["files.read_code_s"] = _inclusive(spans, {"files.read_code"})
    m["files.vertices_parsed"] = parsed
    m["files.us_per_vertex"] = (sum(own[r["id"]] for r in reads) / parsed * 1e6
                                if parsed else 0.0)

    m["graphs.vertex_index_s"] = _inclusive(spans, {"graphs.vertex_index"})
    m["graphs.containment_s"] = _inclusive(spans, {"graphs.containment_table"})
    m["graphs.adjacency_s"] = _inclusive(spans, {"graphs.adjacency_lists"})
    # a cache hit returns an index already seen; count each index once
    built = {rec["index"]: rec["size"] for rec in by_name["graphs.vertex_index"]
             if "index" in rec}
    m["graphs.vertices_built"] = sum(built.values())

    m["verify.partition_s"] = _inclusive(spans, {"verify.distance_partition"})
    m["verify.check_s"] = _inclusive(spans, {"verify.check_completely_regular"})
    m["verify.strength_s"] = _inclusive(spans, {"verify.design_strength"})
    m["verify.report_s"] = _inclusive(spans, {"verify.verify_report"})
    m["verify.lift_verify_s"] = _inclusive(spans, {"verify.lift_verify"})

    m["orbits.action_s"] = _inclusive(
        spans, {"orbits.singer_action", "orbits.frobenius_action"})
    m["orbits.automorphism_check_s"] = _inclusive(spans, {"orbits.group_action"})
    m["orbits.orbit_system_s"] = _inclusive(spans, {"orbits.orbit_system"})
    m["orbits.quotient_s"] = _inclusive(spans, {"orbits.quotient_matrix"})
    m["orbits.orbits"] = sum(rec.get("r", 0) for rec in by_name["orbits.orbit_system"])

    solves = by_name["bip.solve"]
    nodes = sum(rec.get("nodes", 0) for rec in solves)
    solve_s = sum(_dur(rec) for rec in solves)
    m["bip.solve_calls"] = len(solves)
    m["bip.solve_s"] = solve_s
    m["bip.nodes"] = nodes
    m["bip.us_per_node"] = solve_s / nodes * 1e6 if nodes else 0.0
    for status, key in (("SAT", "sat"), ("UNSAT", "unsat"),
                        ("BUDGET_EXCEEDED", "budget_exceeded")):
        m[f"bip.{key}"] = sum(rec.get("status") == status for rec in solves)
    m["bip.build_instance_s"] = _inclusive(spans, {"bip.build_instance"})

    # the search point each span runs under (parents precede children)
    point_of: dict[int, Optional[dict]] = {}
    for rec in spans:
        parent = rec["parent"]
        point_of[rec["id"]] = rec if rec["name"] == "search.point" else \
            (point_of[parent] if parent is not None else None)
    ladder_s = 0.0
    rungs = 0
    unsat_by_instance: dict[int, int] = defaultdict(int)
    for rec in spans:
        pt = point_of[rec["id"]]
        if pt is None or pt is rec:
            continue
        parent = spans[rec["parent"]]
        if rec["name"].startswith("orbits.") and \
                not parent["name"].startswith("orbits."):
            ladder_s += _dur(rec)
        elif rec["name"] == "bip.build_instance" and \
                rec.get("group") != pt.get("group"):
            rungs += 1
        elif rec["name"] == "bip.solve" and rec.get("status") == "UNSAT":
            unsat_by_instance[rec["instance"]] += 1
    points = by_name["search.point"]
    decided = [pt for pt in points if pt.get("status") in ("SAT", "UNSAT")]
    by_refinement = sum(pt["stage"].startswith("refinement") for pt in decided)
    m["search.ladder_build_s"] = ladder_s
    m["search.ladder_rungs"] = rungs
    m["search.rung_hit_ratio"] = by_refinement / rungs if rungs else 0.0
    lps = by_name["search.linprog"]
    milps = by_name["search.milp"]
    m["search.linprog_calls"] = len(lps)
    m["search.linprog_s"] = sum(_dur(rec) for rec in lps)
    m["search.milp_calls"] = len(milps)
    m["search.milp_s"] = sum(_dur(rec) for rec in milps)
    m["search.milp_timeouts"] = sum(rec.get("status") == 1 for rec in milps)
    m["search.unsat_resolves"] = sum(n - 1 for n in unsat_by_instance.values())
    for stage in STAGES:
        m[f"search.stage.{stage}"] = sum(
            pt["stage"].split(":", 1)[0] == stage for pt in decided)

    layers = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m
