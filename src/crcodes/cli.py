"""Command-line front end.

Subcommands: eigenvalues, construct, verify, search, table1.  All numeric
output is exact integers; JSON key order is fixed so identical flags and
seed give byte-identical output.  Exit codes: 0 verified or SAT, 1
refuted or UNSAT, 2 budget exceeded, 64 usage error.

The constructions, orbit, solver and search modules are imported by the
commands that use them, so eigenvalues and verify never load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import repeat
from math import gcd
from pathlib import Path

import numpy as np

from . import files, verify as vf
from .graphs import GraphSpec, parse_graph_spec, theta_ladder

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ----------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------

def cmd_eigenvalues(args) -> int:
    spec = parse_graph_spec(args.graph, allow_unbalanced=True)
    ladder = theta_ladder(spec)
    if args.format == "csv":
        lines = ["i,theta"] + [f"{i},{t}" for i, t in enumerate(ladder)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json({"graph": str(spec),
                     "valency": ladder[0],
                     "eigenvalues": ladder}), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def _sqs(n: int):
    """The quadruple system on n = 2^m points, a code on j:n,4."""
    from . import constructions as con
    m = n.bit_length() - 1
    if 2 ** m != n:
        raise ValueError(f"sqs needs n a power of two, got n={n}")
    return con.extended_hamming_sqs(m)


def _need_grassmann(spec: GraphSpec) -> None:
    if spec.family != "grassmann":
        raise ValueError(
            f"a spread needs a Grassmann graph jq:q,n,d, not {spec}")


def _design_from_flag(value: str, spec: GraphSpec):
    """The design an avoid code avoids: a code on the graph's block level."""
    from . import constructions as con
    if value.startswith("@"):
        return files.read_code(value[1:])
    if value == "spread":
        _need_grassmann(spec)
        return con.desarguesian_2spread(spec.q, spec.n)
    if value == "sqs":
        return _sqs(spec.n)
    raise ValueError(f"unknown design {value!r}; use spread, sqs or @file")


def cmd_construct(args) -> int:
    """Every kind is a code on --graph: a design on its block level (a
    d-spread on jq:q,n,d, an SQS on j:2^m,4), the others on the graph they
    live in; a kind built on another graph is refused."""
    from . import constructions as con
    spec = parse_graph_spec(args.graph, allow_unbalanced=True)
    kind = args.kind
    if kind == "spread":
        _need_grassmann(spec)
        code = con.desarguesian_spread(spec.q, spec.n, spec.k)
    elif kind == "sqs":
        code = _sqs(spec.n)
    elif kind == "avoid":
        code = con.avoid_code(spec, _design_from_flag(args.design, spec))
    elif kind == "symplectic":
        code = con.symplectic_code(spec.n, spec.q)
    elif kind == "hyperplane":
        code = con.hyperplane_code(spec)
    else:
        code = con.hyperplane_point_code(spec)
    if code.spec != spec:
        raise ValueError(
            f"--kind {kind} builds a code on {code.spec}, not {spec}")
    _emit(files.code_to_text(code), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    spec = parse_graph_spec(args.graph, allow_unbalanced=True)
    code = files.read_code(args.code)
    if code.spec != spec:
        raise ValueError(f"code file is for {code.spec}, not {spec}")
    report = vf.verify_report(spec, code)
    _emit(_json(report), args.out)
    return EXIT_OK if report["completely_regular"] else EXIT_REFUTED


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def _parse_group(spec: GraphSpec, text: str):
    """identity, or singer:<e> and frobenius:<j> parts joined by '+' (the
    names the refinement ladder prints).  Returns the action and, for a
    pure singer:<e>, the exponent e whose refinement ladder search walks."""
    from .orbits import (GroupAction, frobenius_action, join_actions,
                         singer_action)
    if text == "identity":
        points = np.arange(spec.level(1).vertex_count)
        return GroupAction(spec, [points], description="identity"), None
    builders = {"singer": singer_action, "frobenius": frobenius_action}
    parts = [part.partition(":") for part in text.split("+")]
    if any(kind not in builders for kind, _, _ in parts):
        raise ValueError(f"unknown group spec {text!r}; use identity, or "
                         "singer:<e> and frobenius:<j> joined by +")
    actions = [builders[kind](spec, int(value)) for kind, _, value in parts]
    if len(actions) == 1:
        kind, _, value = parts[0]
        return actions[0], (int(value) if kind == "singer" else None)
    return join_actions(actions), None


def _gamma_list(spec: GraphSpec, theta_value: int) -> list[int]:
    """Integrality-screened gamma1 values (gamma1 <= beta0) for one eigenvalue."""
    from . import bip
    row = next(row for row in bip.feasible_parameters(spec)
               if row["eigenvalue"] == theta_value)
    return [g1 for _, g1 in row["pairs"]]


def _search_point(search, point):
    """One point: search is a partial of search_parameter_point."""
    beta0, gamma1, label = point
    return search(beta0, gamma1, label=label)


def _run_points(spec, args, points, osys, B, exponent):
    """The outcome of every point, in order; with --jobs N > 1 the points
    run in N spawned worker processes, each handed the parent's osys and
    B."""
    from .search import search_parameter_point
    search = partial(search_parameter_point, spec, osys, B=B,
                     mode=args.mode, max_nodes=args.max_nodes,
                     max_seconds=args.max_seconds, seed=args.seed,
                     singer_exponent=exponent)
    tasks = [(b0, g1, f"search-{args.group}-g{g1}") for b0, g1 in points]
    if args.jobs > 1 and len(points) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(args.jobs, mp_context=spawn) as pool:
            return list(pool.map(_search_point, repeat(search), tasks))
    return list(map(_search_point, repeat(search), tasks))


def cmd_search(args) -> int:
    from . import bip
    from .orbits import orbit_system, quotient_matrix
    spec = parse_graph_spec(args.graph)
    action, exponent = _parse_group(spec, args.group)
    osys = orbit_system(action)
    B = quotient_matrix(spec, osys)
    m = spec.valency
    ladder = theta_ladder(spec)

    if args.gamma1 is not None and args.beta0 is not None:
        points = [(args.beta0, args.gamma1)]
    elif args.theta is not None:
        if args.theta not in ladder[1:]:
            raise ValueError(
                f"theta {args.theta} is not a nontrivial eigenvalue of {spec}")
        gammas = _gamma_list(spec, args.theta)
        if args.gamma1 is not None:
            if args.gamma1 not in gammas:
                raise ValueError(
                    f"gamma1 = {args.gamma1} fails the integrality screen")
            gammas = [args.gamma1]
        points = [(m - args.theta - g1, g1) for g1 in gammas]
    else:
        raise ValueError("search needs --theta (sweep) or --beta0 with --gamma1")

    if args.format in ("opb", "lp"):
        outdir = Path(args.out) if args.out else None
        chunks = []
        for beta0, gamma1 in points:
            inst = bip.build_instance(spec, osys, beta0, gamma1, B=B)
            text = bip.export_opb(inst) if args.format == "opb" else bip.export_lp(inst)
            if outdir:
                outdir.mkdir(parents=True, exist_ok=True)
                (outdir / f"g{gamma1}.{args.format}").write_text(text, encoding="utf-8")
            else:
                chunks.append(text)
        if not outdir:
            sys.stdout.write("\n".join(chunks))
        return EXIT_OK

    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    verdicts = []
    worst = EXIT_OK
    outcomes = _run_points(spec, args, points, osys, B, exponent)
    for (beta0, gamma1), outcome in zip(points, outcomes):
        verdict = {
            "graph": str(spec),
            "group": args.group,
            "beta0": beta0,
            "gamma1": gamma1,
            "status": outcome.status,
            "stage": outcome.stage,
        }
        if args.mode == "count":
            verdict["count"] = outcome.count
        if outcome.status == bip.SAT:
            if outcome.code is not None:
                verdict["lift_verified"] = outcome.lift_verified
                verdict["code_size"] = len(outcome.code)
                if outdir:
                    fname = outdir / f"g{gamma1}.code"
                    files.write_code(fname, outcome.code)
                    verdict["code_file"] = fname.name
        elif outcome.status == bip.UNSAT:
            verdict["note"] = ("no G-invariant code; not a nonexistence proof "
                               "for codes without this symmetry")
            worst = max(worst, EXIT_REFUTED)
        else:
            worst = max(worst, EXIT_BUDGET)
        verdicts.append(verdict)
        print(f"gamma1={gamma1}: {outcome.status} ({outcome.stage})",
              file=sys.stderr)
    if args.format == "csv":
        lines = ["gamma1,beta0,status,stage,code_size"]
        for v in verdicts:
            lines.append(f"{v['gamma1']},{v['beta0']},{v['status']},"
                         f"{v['stage']},{v.get('code_size', '')}")
        payload = "\n".join(lines) + "\n"
        name = "verdicts.csv"
    else:
        payload = _json({"graph": str(spec), "group": args.group,
                         "mode": args.mode, "verdicts": verdicts})
        name = "verdicts.json"
    if outdir:
        (outdir / name).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return worst


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------

def _known_rho1_codes(spec: GraphSpec):
    """Construct and verify the classical rho=1 codes of J_2(6,3)."""
    from . import constructions as con
    out = []
    codes = [
        con.hyperplane_code(spec),
        con.hyperplane_point_code(spec),
        con.symplectic_code(spec.n, spec.q),
        con.avoid_code(spec, con.desarguesian_2spread(spec.q, spec.n),
                       label="spread-avoid").complement("spread-line"),
    ]
    for code in codes:
        rep = vf.verify_report(spec, code)
        if rep["completely_regular"] and rep["rho"] == 1:
            out.append({"label": code.label,
                        "size": rep["code_size"],
                        "beta0": rep["beta"][0],
                        "gamma1": rep["gamma"][0],
                        "eigenvalue": rep["eigenvalues"][1],
                        "strength": rep["strength"]})
    return out


def cmd_table1(args) -> int:
    from . import bip
    spec = parse_graph_spec(args.graph)
    known = _known_rho1_codes(spec) if (spec.q, spec.n, spec.k) == (2, 6, 3) else []
    cached = {}
    if args.results:
        vfile = Path(args.results) / "verdicts.json"
        if vfile.exists():
            data = json.loads(vfile.read_text(encoding="utf-8"))
            for v in data.get("verdicts", []):
                if v.get("graph") == str(spec):
                    cached[(v["beta0"], v["gamma1"])] = v["status"]
    rows = []
    for screen in bip.feasible_parameters(spec):
        th = screen["eigenvalue"]
        s = screen["beta0_plus_gamma1"]
        feas = [g1 for _, g1 in screen["pairs"]]
        mod = gcd(*feas) if len(feas) > 1 else (feas[0] if feas else 0)
        existing = []
        for entry in known:
            if entry["eigenvalue"] == th:
                g1 = entry["gamma1"] if entry["gamma1"] in feas else entry["beta0"]
                existing.append({"gamma1": g1, "label": entry["label"],
                                 "size": entry["size"]})
        sat = sorted({g1 for (b0, g1), st in cached.items()
                      if st == "SAT" and b0 + g1 == s})
        unsat = sorted({g1 for (b0, g1), st in cached.items()
                        if st == "UNSAT" and b0 + g1 == s})
        open_cases = [g for g in feas
                      if g not in sat and g not in unsat
                      and all(e["gamma1"] != g for e in existing)]
        row = {
            "eigenvalue": th,
            "strength": screen["strength"],
            "integer_condition": f"gamma1 mod {mod} = 0" if mod else "none",
            "feasible_gamma1": feas,
            "verified_constructions": existing,
            "search_sat": sat,
            "search_no_invariant_code": unsat,
            "open": open_cases,
        }
        if (spec.q, spec.n, spec.k, th) == (2, 6, 3, -7):
            row["note"] = ("codes of both feasible sizes exist in the "
                           "literature; their designs are not constructed here")
        rows.append(row)
    if args.format == "json":
        _emit(_json({"graph": str(spec), "rows": rows}), args.out)
        return EXIT_OK
    lines = [f"Completely regular codes in {spec} with covering radius 1",
             ""]
    for row in rows:
        lines.append(f"eigenvalue {row['eigenvalue']}  "
                     f"(strength {row['strength']}, {row['integer_condition']})")
        built = ", ".join(f"{e['gamma1']} [{e['label']}, size {e['size']}]"
                          for e in row["verified_constructions"]) or "-"
        lines.append(f"  verified constructions: {built}")
        if row["search_sat"]:
            lines.append(f"  search SAT: {', '.join(map(str, row['search_sat']))}")
        if row["search_no_invariant_code"]:
            lines.append("  no G-invariant code: "
                         f"{', '.join(map(str, row['search_no_invariant_code']))}")
        lines.append(f"  open: {', '.join(map(str, row['open'])) or '-'}")
        if "note" in row:
            lines.append(f"  note: {row['note']}")
        lines.append("")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crcodes",
        description="Completely regular codes in Johnson and Grassmann graphs")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eigenvalues", help="eigenvalue ladder of a graph")
    pe.add_argument("--graph", required=True, help="j:<n>,<k> or jq:<q>,<n>,<k>")
    pe.add_argument("--format", choices=["json", "csv"], default="json")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_eigenvalues)

    pc = sub.add_parser("construct", help="build designs and codes")
    pc.add_argument("--kind", required=True,
                    choices=["spread", "sqs", "avoid", "symplectic",
                             "hyperplane", "hyperplane-point"])
    pc.add_argument("--graph", required=True,
                    help="the graph the code lives on: jq:q,n,d for a "
                         "d-spread, j:2^m,4 for an sqs")
    pc.add_argument("--design", default="spread",
                    help="avoid: spread, sqs, or @file, the code file "
                         "of a design's block level")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="verify complete regularity of a code file")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--code", required=True)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("search", help="orbit-collapsed feasibility search")
    ps.add_argument("--graph", required=True)
    ps.add_argument("--group", required=True,
                    help="identity, or singer:<e> and frobenius:<j> "
                         "joined by +")
    ps.add_argument("--theta", type=int, help="eigenvalue row to sweep")
    ps.add_argument("--gamma1", type=int)
    ps.add_argument("--beta0", type=int)
    ps.add_argument("--mode", choices=["first", "count"], default="first")
    ps.add_argument("--max-nodes", type=int)
    ps.add_argument("--max-seconds", type=float)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--jobs", type=int, default=1,
                    help="parameter points solved in parallel")
    ps.add_argument("--format", choices=["json", "csv", "opb", "lp"],
                    default="json")
    ps.add_argument("--out", help="directory for verdicts and code files")
    ps.set_defaults(func=cmd_search)

    pt = sub.add_parser("table1", help="parameter table for rho=1 codes")
    pt.add_argument("--graph", default="jq:2,6,3")
    pt.add_argument("--results", help="directory with cached search verdicts")
    pt.add_argument("--format", choices=["text", "json"], default="text")
    pt.add_argument("--out")
    pt.set_defaults(func=cmd_table1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
