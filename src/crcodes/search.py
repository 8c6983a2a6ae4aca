"""Search for one (beta0, gamma1) parameter point under a group.

The exact depth-first solver in bip.solve is the only authority for UNSAT
and for all/count enumeration.  Finding a satisfying assignment of a
465-variable orbit system by blind DFS alone is unreliable, so mode
'first' pairs each capped exact solve with HiGHS milp as a witness
finder, all charged to one deadline; the stage that decided is reported
by name:

  refinement:<group>  solve the same parameter point under a larger group
              whose orbits refine into ours (for a Singer power a^e, the
              powers a^d with d | e, optionally with a Frobenius power
              mixed in); any solution is invariant under the requested
              group too, so it converts to an assignment of the original
              system.  Each rung runs the exact solver capped at
              RUNG_MAX_NODES = 300 nodes, then HiGHS milp unless the
              capped solve decided the rung.  Each node runs an LP and
              costs 10-15x a propagation-only node at 100-155 orbits, so
              300 nodes take about the seconds 5000 pure-propagation
              nodes took, while most small rungs are now proven UNSAT and
              skip their milp.
  dfs         the exact solver on the point's own system, first in a
              slice of SLICE_WORK // r**2 nodes (r orbits), since a
              node's cost grows about as r**2: 1-2 ms at r = 93-109,
              50-80 ms at r = 465.  A slice that decides ends the search;
              small systems are decided here and never reach milp.
  milp        HiGHS branch-and-cut on the point's own 0/1 system, run only
              when the slice ran out of nodes, for at most 60 s as on a
              rung.
  dfs         otherwise one exhaustive run of the exact solver on the
              time left.

Every witness is checked exactly (integer substitution into the orbit
system), and its lift is verified on the full graph by verify_report
before it is returned (SearchOutcome.lift_verified); a lift that fails
raises VerificationError.  Floating point never decides a reported
verdict.  A milp run that ends without a witness proves nothing; only the
exact solver reports UNSAT, from an exhausted tree whose every pruned node
is a propagation conflict or an integer-checked Farkas vector.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bip
from .bip import BipInstance, build_instance
from .graphs import GraphSpec
from .orbits import GroupAction, OrbitSystem, orbit_system, singer_action
from .verify import Code, VerificationError, verify_report


@dataclass
class SearchOutcome:
    status: str                 # SAT | UNSAT | BUDGET_EXCEEDED
    stage: str                  # which stage decided
    assignment: Optional[np.ndarray] = None
    code: Optional[Code] = None
    nodes: int = 0              # of the stage-'dfs' solve: the slice when
                                # it decided, else the exhaustive run
    count: Optional[int] = None
    elapsed: float = 0.0
    lp_calls: int = 0           # over every bip.solve of this point
    certificates: int = 0       # nodes pruned by a checked Farkas vector
    lift_verified: bool = False  # code passed verify_report on the graph


def _exact_witness(inst: BipInstance, x) -> bool:
    A_ext, rhs = inst.rows()
    xi = np.asarray(x, dtype=np.int64)
    return bool(((xi == 0) | (xi == 1)).all() and ((A_ext @ xi) == rhs).all())


def _verified_lift(x, osys: OrbitSystem, spec: GraphSpec, gamma1: int,
                   label: Optional[str]) -> Code:
    """The lift of a witness, verified on the full graph; raises if it fails."""
    code = bip.lift(x, osys, spec, label=label)
    if not verify_report(spec, code)["completely_regular"]:
        raise VerificationError(
            f"lifted solution for gamma1={gamma1} failed full-graph "
            "verification; solver is inconsistent")
    return code


@functools.lru_cache(maxsize=8)
def _refinement_ladder(spec: GraphSpec, exponent: int, max_orbits: int = 300):
    """Supergroups of <a^exponent>: a^d with d | exponent, optionally with a
    Frobenius power mixed in; sorted by orbit count so small instances go
    first."""
    from .orbits import frobenius_action
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    frob_powers = [0] + [j for j in range(1, spec.n) if spec.n % j == 0]
    ladder = []
    for d in divisors:
        for j in frob_powers:
            if d == exponent and j == 0:
                continue  # that is the original group
            try:
                gens = [singer_action(spec, d).generators[0]]
                name = f"singer:{d}"
                if j:
                    gens.append(frobenius_action(spec, j).generators[0])
                    name += f"+frobenius:{j}"
                sup = orbit_system(GroupAction(spec, gens, description=name))
            except VerificationError:
                continue
            if sup.count <= max_orbits:
                ladder.append((sup.count, name, sup))
    ladder.sort(key=lambda t: t[0])
    return tuple(ladder)


def _milp_witness(inst: BipInstance, budget: float):
    """HiGHS branch-and-cut for at most budget seconds; an exact witness or
    None.  scipy is imported at call time, so a rebound
    scipy.optimize.milp (a tracer's wrapper) sees every call."""
    if budget <= 0:
        return None  # HiGHS ignores a negative time_limit
    from scipy.optimize import Bounds, LinearConstraint, milp
    A_ext, rhs = inst.rows()
    r = A_ext.shape[1]
    bound = rhs.astype(float)
    out = milp(c=np.zeros(r),
               constraints=LinearConstraint(A_ext.astype(float), bound, bound),
               bounds=Bounds(0, 1), integrality=np.ones(r),
               options={"time_limit": budget})
    if out.status == 0 and out.x is not None:
        x = np.round(out.x).astype(np.int8)
        if _exact_witness(inst, x):
            return x
    return None


RUNG_MAX_NODES = 300
# the own-system slice gets SLICE_WORK // r**2 nodes: 462 at r = 93, 18 at
# r = 465 and 2 at r = 1395, so a large system reaches milp within seconds
SLICE_WORK = 4_000_000


def _slice_nodes(r: int) -> int:
    return SLICE_WORK // r ** 2


def _capped_exact_or_milp(inst: BipInstance, deadline: float, tally,
                          max_nodes: int, seed: Optional[int] = None):
    """Exact solve capped at max_nodes, then milp unless the solve decided.

    Returns (the capped solve's SolveResult, an exact witness or None).
    """
    res = bip.solve(inst, mode="first", max_nodes=max_nodes,
                    max_seconds=deadline - time.monotonic(), seed=seed)
    tally(res)
    if res.status == bip.SAT:
        return res, res.solutions[0]
    if res.status == bip.UNSAT:
        return res, None
    return res, _milp_witness(inst, min(60.0, deadline - time.monotonic()))


def _from_refinement(spec: GraphSpec, osys: OrbitSystem, inst: BipInstance,
                     exponent: int, deadline: float, tally):
    """Walk the supergroup ladder; convert any hit to the original orbits."""
    for count, name, sup in _refinement_ladder(spec, exponent):
        if time.monotonic() > deadline:
            return None
        try:
            super_inst = build_instance(spec, sup, inst.beta0, inst.gamma1)
        except VerificationError:
            continue
        _, sol = _capped_exact_or_milp(super_inst, deadline, tally,
                                       RUNG_MAX_NODES)
        if sol is None:
            continue
        lifted = bip.lift(sol, sup, spec)
        mask = np.zeros(spec.vertex_count, dtype=bool)
        mask[lifted.ids] = True
        x = np.array([1 if mask[o[0]] else 0 for o in osys.orbits],
                     dtype=np.int8)
        if _exact_witness(inst, x):
            return x, f"refinement:{name}"
    return None


def search_parameter_point(spec: GraphSpec, osys: OrbitSystem,
                           beta0: int, gamma1: int,
                           B: Optional[np.ndarray] = None,
                           mode: str = "first",
                           max_nodes: Optional[int] = None,
                           max_seconds: Optional[float] = None,
                           seed: Optional[int] = None,
                           probes: bool = True,
                           singer_exponent: Optional[int] = None,
                           label: Optional[str] = None) -> SearchOutcome:
    """Decide one parameter point; witnesses are exact, UNSAT means exhausted.

    mode 'all'/'count', and 'first' without probes, run the exact solver
    alone (stage 'dfs').  With probes, mode 'first' walks the refinement
    ladder of a Singer power a^singer_exponent (stage 'refinement:<group>'),
    then runs the exact solver on the point's own system for a slice of
    _slice_nodes(r) nodes (at most max_nodes), which ends the search when
    it decides (stage 'dfs'); only when the slice runs out does milp run
    (stage 'milp'), then the exhaustive DFS (stage 'dfs').  All stages
    share one deadline of max_seconds (an hour when unset).  seed breaks
    the own-system solves' branching ties.
    """
    t0 = time.monotonic()
    inst = build_instance(spec, osys, beta0, gamma1, B=B)
    lp_calls = certificates = 0

    def tally(res):
        nonlocal lp_calls, certificates
        lp_calls += res.lp_calls
        certificates += res.certificates

    res = None
    if mode == "first" and probes:
        deadline = t0 + (max_seconds if max_seconds is not None else 3600.0)
        hit = None
        if singer_exponent is not None and singer_exponent > 1:
            hit = _from_refinement(spec, osys, inst, singer_exponent,
                                   deadline, tally)
        if hit is None:
            cap = _slice_nodes(inst.r)
            if max_nodes is not None:
                cap = min(cap, max_nodes)
            res, x = _capped_exact_or_milp(inst, deadline, tally, cap,
                                           seed=seed)
            if res.status == bip.BUDGET_EXCEEDED:
                res = None
                if x is not None:
                    hit = x, "milp"
        if hit is not None:
            x, stage = hit
            code = _verified_lift(x, osys, spec, gamma1, label)
            return SearchOutcome(status=bip.SAT, stage=stage, assignment=x,
                                 code=code, elapsed=time.monotonic() - t0,
                                 lp_calls=lp_calls, certificates=certificates,
                                 lift_verified=True)
        max_seconds = deadline - time.monotonic()
    if res is None:
        res = bip.solve(inst, mode=mode, max_nodes=max_nodes,
                        max_seconds=max_seconds, seed=seed)
        tally(res)
    out = SearchOutcome(status=res.status, stage="dfs", nodes=res.nodes,
                        count=res.count, elapsed=time.monotonic() - t0,
                        lp_calls=lp_calls, certificates=certificates)
    if res.solutions:
        out.assignment = res.solutions[0]
        out.code = _verified_lift(out.assignment, osys, spec, gamma1, label)
        out.lift_verified = True
    return out
