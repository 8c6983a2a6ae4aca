"""Staged search for one (beta0, gamma1) parameter point under a group.

The exact depth-first solver in bip.solve is the only authority for UNSAT
and for all/count enumeration.  Finding a satisfying assignment of a
465-variable orbit system by blind DFS alone is unreliable, so mode
'first' runs cheap witness-finding stages before falling back to it:

  refinement  solve the same parameter point under a larger group whose
              orbits refine into ours (for a Singer power a^e, the powers
              a^d with d | e); any solution is invariant under the
              requested group too, so it converts to an assignment of the
              original system.  Exact DFS on a much smaller instance.
  lp-vertex   one LP feasibility solve; a basic solution that happens to
              be integral is a witness.
  pump        the classical feasibility pump: alternate rounding and
              LP-projection onto the polytope, seeded restarts.
  milp        HiGHS branch-and-cut on the 0/1 system, time-limited.
  dfs         the exact solver, with seeded restart sweeps.

Every witness from any stage is checked exactly (integer substitution
into the orbit system) and the lift is meant to be re-verified on the
full graph by the caller; floating point never decides a reported
verdict.  A stage's failure to find a witness proves nothing and just
moves the pipeline on; only exhaustive DFS reports UNSAT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bip
from .bip import BipInstance, build_instance
from .graphs import GraphSpec
from .orbits import GroupAction, OrbitSystem, orbit_system, singer_action
from .verify import Code, VerificationError


@dataclass
class SearchOutcome:
    status: str                 # SAT | UNSAT | BUDGET_EXCEEDED
    stage: str                  # which stage decided
    assignment: Optional[np.ndarray] = None
    code: Optional[Code] = None
    nodes: int = 0
    count: Optional[int] = None
    elapsed: float = 0.0


def _exact_witness(inst: BipInstance, x) -> bool:
    A_ext, rhs = inst.rows()
    xi = np.asarray(x, dtype=np.int64)
    return bool(((xi == 0) | (xi == 1)).all() and ((A_ext @ xi) == rhs).all())


def _refinement_ladder(spec: GraphSpec, exponent: int, modulus,
                       max_orbits: int = 300):
    """Supergroups of <a^exponent>: a^d with d | exponent, optionally with a
    Frobenius power mixed in; sorted by orbit count so small instances go
    first.  Cached per (spec, exponent, modulus)."""
    key = (spec, exponent, modulus if modulus is None else tuple(modulus))
    cached = _refinement_cache.get(key)
    if cached is not None:
        return cached
    from .orbits import frobenius_action
    divisors = [d for d in range(1, exponent + 1) if exponent % d == 0]
    frob_powers = [0] + [j for j in range(1, spec.n) if spec.n % j == 0]
    ladder = []
    for d in divisors:
        for j in frob_powers:
            if d == exponent and j == 0:
                continue  # that is the original group
            try:
                gens = [singer_action(spec, d, modulus).generators[0]]
                name = f"singer:{d}"
                if j:
                    gens.append(frobenius_action(spec, j, modulus).generators[0])
                    name += f"+frobenius:{j}"
                sup = orbit_system(GroupAction(spec, gens, description=name))
            except VerificationError:
                continue
            if sup.count <= max_orbits:
                ladder.append((sup.count, name, sup))
    ladder.sort(key=lambda t: t[0])
    _refinement_cache[key] = ladder
    return ladder


_refinement_cache: dict = {}


def _solve_small_exact_or_milp(inst: BipInstance, deadline: float):
    """A small refined instance: quick exact DFS, then milp, witnesses exact."""
    res = bip.solve(inst, mode="first", max_nodes=5000)
    if res.status == bip.SAT:
        return res.solutions[0]
    if res.status == bip.UNSAT:
        return None
    try:
        from scipy.optimize import milp, LinearConstraint, Bounds
    except ImportError:
        return None
    budget = min(60.0, deadline - time.monotonic())
    if budget <= 1:
        return None
    A_ext, rhs = inst.rows()
    r = A_ext.shape[1]
    out = milp(c=np.zeros(r),
               constraints=LinearConstraint(A_ext.astype(float),
                                            rhs.astype(float),
                                            rhs.astype(float)),
               bounds=Bounds(0, 1), integrality=np.ones(r),
               options={"time_limit": budget})
    if out.status == 0 and out.x is not None:
        x = np.round(out.x).astype(np.int8)
        if _exact_witness(inst, x):
            return x
    return None


def _from_refinement(spec: GraphSpec, osys: OrbitSystem, inst: BipInstance,
                     exponent: int, modulus, deadline: float):
    """Walk the supergroup ladder; convert any hit to the original orbits."""
    for count, name, sup in _refinement_ladder(spec, exponent, modulus):
        if time.monotonic() > deadline:
            return None
        try:
            super_inst = build_instance(spec, sup, inst.beta0, inst.gamma1)
        except VerificationError:
            continue
        sol = _solve_small_exact_or_milp(super_inst, deadline)
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


def _lp_arrays(inst: BipInstance):
    A_ext, rhs = inst.rows()
    return A_ext.astype(float), rhs.astype(float), A_ext, rhs


def _from_lp_vertex(inst: BipInstance, seeds, deadline: float):
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    Af, bf, A_ext, rhs = _lp_arrays(inst)
    r = A_ext.shape[1]
    for k, seed in enumerate(seeds):
        if time.monotonic() > deadline:
            return None
        rng = np.random.default_rng(seed)
        c = np.zeros(r) if k == 0 else rng.standard_normal(r)
        res = linprog(c, A_eq=Af, b_eq=bf, bounds=(0, 1), method="highs")
        if res.status != 0:
            return None  # LP infeasible or failed: nothing to find here
        if np.abs(res.x - np.round(res.x)).max() < 1e-6:
            x = np.round(res.x).astype(np.int8)
            if _exact_witness(inst, x):
                return x, "lp-vertex"
    return None


def _from_pump(inst: BipInstance, seeds, deadline: float, max_rounds=80):
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    Af, bf, A_ext, rhs = _lp_arrays(inst)
    r = A_ext.shape[1]
    for seed in seeds:
        if time.monotonic() > deadline:
            return None
        rng = np.random.default_rng(seed)
        res = linprog(rng.standard_normal(r), A_eq=Af, b_eq=bf,
                      bounds=(0, 1), method="highs")
        if res.status != 0:
            return None
        xr = (res.x >= 0.5).astype(np.int64)
        for _ in range(max_rounds):
            if time.monotonic() > deadline:
                return None
            res = linprog(1.0 - 2.0 * xr, A_eq=Af, b_eq=bf,
                          bounds=(0, 1), method="highs")
            if res.status != 0:
                break
            xf = res.x
            if np.abs(xf - np.round(xf)).max() < 1e-6:
                x = np.round(xf).astype(np.int8)
                if _exact_witness(inst, x):
                    return x, "pump"
            nxt = (xf >= 0.5).astype(np.int64)
            if (nxt == xr).all():
                frac = np.abs(xf - np.round(xf))
                k = int(rng.integers(1, 12))
                nxt[np.argsort(-frac)[:k]] = 1 - nxt[np.argsort(-frac)[:k]]
            xr = nxt
    return None


def _from_milp(inst: BipInstance, deadline: float):
    try:
        from scipy.optimize import milp, LinearConstraint, Bounds
    except ImportError:
        return None
    budget = deadline - time.monotonic()
    if budget <= 1:
        return None
    Af, bf, A_ext, rhs = _lp_arrays(inst)
    r = A_ext.shape[1]
    res = milp(c=np.zeros(r),
               constraints=LinearConstraint(Af, bf, bf),
               bounds=Bounds(0, 1),
               integrality=np.ones(r),
               options={"time_limit": max(1.0, budget)})
    if res.status == 0 and res.x is not None:
        x = np.round(res.x).astype(np.int8)
        if _exact_witness(inst, x):
            return x, "milp"
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
                           modulus=None,
                           label: Optional[str] = None) -> SearchOutcome:
    """Decide one parameter point; witnesses are exact, UNSAT means exhausted.

    mode 'all'/'count' always run the exact solver alone (the probe stages
    cannot enumerate).  With probes enabled, mode 'first' runs the staged
    pipeline and charges everything against max_seconds.
    """
    t0 = time.monotonic()
    inst = build_instance(spec, osys, beta0, gamma1, B=B)
    deadline = t0 + (max_seconds if max_seconds is not None else 3600.0)
    if mode != "first" or not probes:
        res = bip.solve(inst, mode=mode, max_nodes=max_nodes,
                        max_seconds=max_seconds, seed=seed)
        out = SearchOutcome(status=res.status, stage="dfs", nodes=res.nodes,
                            count=res.count, elapsed=time.monotonic() - t0)
        if res.solutions:
            out.assignment = res.solutions[0]
            out.code = bip.lift(res.solutions[0], osys, spec, label=label)
        return out

    hit = None
    if singer_exponent is not None and singer_exponent > 1:
        hit = _from_refinement(spec, osys, inst, singer_exponent, modulus,
                               deadline)
    base_seed = 0 if seed is None else seed
    if hit is None:
        hit = _from_lp_vertex(inst, [base_seed + k for k in range(4)], deadline)
    if hit is None:
        hit = _from_pump(inst, [base_seed + k for k in range(6)], deadline)
    if hit is None:
        hit = _from_milp(inst, deadline)
    if hit is not None:
        x, stage = hit
        return SearchOutcome(status=bip.SAT, stage=stage, assignment=x,
                             code=bip.lift(x, osys, spec, label=label),
                             elapsed=time.monotonic() - t0)
    # exact fallback: seeded restart sweep, then one exhaustive run; an
    # exhausted sweep run is already a proof of UNSAT
    remaining = deadline - time.monotonic()
    sweep_end = time.monotonic() + max(0.0, remaining) * 0.3
    limit = 4096
    attempt = 0
    while time.monotonic() < sweep_end:
        res = bip.solve(inst, mode="first", max_nodes=limit,
                        max_seconds=max(1.0, sweep_end - time.monotonic()),
                        seed=base_seed + attempt)
        if res.status == bip.SAT:
            return SearchOutcome(status=bip.SAT, stage="dfs-restart",
                                 assignment=res.solutions[0],
                                 code=bip.lift(res.solutions[0], osys, spec,
                                               label=label),
                                 nodes=res.nodes,
                                 elapsed=time.monotonic() - t0)
        if res.status == bip.UNSAT:
            return SearchOutcome(status=bip.UNSAT, stage="dfs",
                                 nodes=res.nodes,
                                 elapsed=time.monotonic() - t0)
        attempt += 1
        limit += limit // 2
    res = bip.solve(inst, mode="first", max_nodes=max_nodes,
                    max_seconds=max(1.0, deadline - time.monotonic()),
                    seed=seed)
    out = SearchOutcome(status=res.status, stage="dfs", nodes=res.nodes,
                        elapsed=time.monotonic() - t0)
    if res.solutions:
        out.assignment = res.solutions[0]
        out.code = bip.lift(res.solutions[0], osys, spec, label=label)
    return out
