"""Search for one (beta0, gamma1) parameter point under a group.

The exact depth-first solver in bip.solve is the only authority for UNSAT
and for counting.  Finding a satisfying assignment of a
465-variable orbit system by blind DFS alone is unreliable, so mode
'first' also runs HiGHS milp as a witness finder.  It works on one
ordered list of systems: the rungs of a refinement ladder by ascending
orbit count, then the point's own system.  A rung is the same parameter
point under a larger group whose orbits are unions of ours (for a Singer
power a^e, the powers a^d with d | e, optionally with a Frobenius power
mixed in); any solution of it is invariant under the requested group too,
so it is carried to the original orbits by reading each orbit's value off
its representative's rung orbit.  All passes share one deadline.

  pass 1  the exact solver, capped at SLICE_WORK // r**2 nodes on every
          system of r orbits (on the own system at most max_nodes too,
          with the caller's seed), since a node's LP cost grows at least
          as r**2: a warm node LP takes 0.7-1.4 ms at r = 93-99, 6 ms at
          r = 155 and 50 ms at r = 465 (medians on a 2-core VM).  It
          stops at the first witness, or when the own system is UNSAT.  A
          witness is a leaf of the tree or a node LP point that is already
          0/1 and passes bip.solve's int64 check.  Most small rungs are
          proven UNSAT here, and small own systems are decided here and
          never reach milp.
  pass 2  HiGHS branch-and-cut, at most 60 s each, on every system pass 1
          left open, in the same order.
  final   one exhaustive run of the exact solver on the own system, on
          the time left.

Every exact solve of mode 'first', on a rung or on the own system, under
any group, gets that system's residual symmetry: of the field actions
a^d, d | e (a alone for a group with no Singer exponent e), and sigma,
each one that normalizes the system's group permutes its orbits
(orbits.orbit_permutation), and bip.solve branches on orbits of the group
H those permutations generate.  They are the maps the ladder's groups are
made of (on J_2(6,3), e = 21, a^7 gives singer:21+frobenius:2 order 6).
The ladder, its rungs' permutations and their quotient matrices are built
once per graph and exponent, the own system's permutations once per
point.  Johnson graphs have no field actions and get no symmetry; mode
'count' never uses it.

The stage that decided is reported by name: refinement:<group> for a
rung's witness from either pass, dfs for the own system's exact solver
(pass 1 or final), milp for the own system's pass-2 witness.

Every witness is checked exactly (integer substitution into the orbit
system), and its lift is verified on the full graph by verify_report
before it is returned (SearchOutcome.lift_verified); a lift that fails
raises VerificationError.  Floating point never decides a reported
verdict.  A milp run that ends without a witness proves nothing; only the
exact solver reports UNSAT, from an exhausted tree whose every pruned node
is a propagation conflict or an integer-checked Farkas vector, and whose
every skipped branch is an image under an integer-checked automorphism.
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
from .orbits import (OrbitSystem, frobenius_action, join_actions,
                     orbit_permutation, orbit_system, quotient_matrix,
                     singer_action)
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
    simplex_iterations: int = 0  # over every bip.solve's node LPs
    lift_verified: bool = False  # code passed verify_report on the graph


def _verified_lift(x, osys: OrbitSystem, spec: GraphSpec, gamma1: int,
                   label: Optional[str]) -> Code:
    """The lift of a witness, verified on the full graph; raises if it fails."""
    code = bip.lift(x, osys, spec, label=label)
    if not verify_report(spec, code)["completely_regular"]:
        raise VerificationError(
            f"lifted solution for gamma1={gamma1} failed full-graph "
            "verification; solver is inconsistent")
    return code


LADDER_MAX_ORBITS = 300


def _normalizers(spec: GraphSpec, exponent: Optional[int]):
    """a^d for every d | exponent (a alone when exponent is None), and
    sigma: the field actions whose orbit permutations generate a system's
    H.  Empty where field actions are not defined."""
    e = exponent or 1
    try:
        return [*(singer_action(spec, d) for d in range(1, e + 1)
                  if e % d == 0), frobenius_action(spec, 1)]
    except VerificationError:
        return []


def _symmetry(sup: OrbitSystem, normalizers):
    """The permutations of sup's orbits induced by those of normalizers
    that normalize sup's group: the generators of the H that bip.solve
    branches on."""
    perms = (orbit_permutation(sup, a) for a in normalizers)
    return [pi for pi in perms if pi is not None]


@functools.lru_cache(maxsize=8)
def _refinement_ladder(spec: GraphSpec, exponent: int):
    """(rung, its symmetry, its quotient matrix) for the orbit systems of
    the supergroups of <a^exponent> with at most LADDER_MAX_ORBITS orbits:
    a^d with d | exponent, optionally joined with a Frobenius power
    sigma^j, j | n; sorted by orbit count so small instances go first.  A
    rung whose quotient matrix fails its checks is left out, as every
    point would skip it."""
    normalizers = _normalizers(spec, exponent)
    if not normalizers:
        return ()
    *singers, sigma = normalizers
    frobs = [sigma, *(frobenius_action(spec, j) for j in range(2, spec.n)
                      if spec.n % j == 0)]
    actions = []
    for s in singers:
        if s is not singers[-1]:  # a^exponent alone is the original group
            actions.append(s)
        actions += [join_actions([s, f]) for f in frobs]
    rungs = sorted((sup for sup in map(orbit_system, actions)
                    if sup.count <= LADDER_MAX_ORBITS),
                   key=lambda sup: sup.count)
    ladder = []
    for sup in rungs:
        try:
            B = quotient_matrix(spec, sup)
        except VerificationError:
            continue
        ladder.append((sup, _symmetry(sup, normalizers), B))
    return tuple(ladder)


def _carry(x, sup: OrbitSystem, osys: OrbitSystem) -> np.ndarray:
    """x on the orbits of sup, read on the orbits of osys, each of which
    lies inside one orbit of sup: the value of its representative's."""
    return np.asarray(x, dtype=np.int8)[sup.orbit_of[osys.representatives]]


def _milp_witness(inst: BipInstance, budget: float):
    """HiGHS branch-and-cut for at most budget seconds; its point rounded to
    0/1, which the caller checks exactly, or None.  This is the only
    place that imports scipy.optimize, at call time: a search that never
    reaches pass 2 does not pay for it, and a rebound scipy.optimize.milp
    (a tracer's wrapper) sees every call.  It shares the HiGHS module
    that node LPs load (bip._highs_core)."""
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
        return np.round(out.x).astype(np.int8)
    return None


# every pass-1 solve gets SLICE_WORK // r**2 nodes: 462 at r = 93, 18 at
# r = 465 and 2 at r = 1395, so a large system reaches milp within seconds
SLICE_WORK = 4_000_000


def _slice_nodes(r: int) -> int:
    return SLICE_WORK // r ** 2


def _two_passes(spec: GraphSpec, osys: OrbitSystem, inst: BipInstance,
                systems, deadline: float, tally,
                max_nodes: Optional[int], seed: Optional[int]):
    """Pass 1, then pass 2, over systems: the ladder's (rung, symmetry,
    quotient matrix) triples, then the own system's (osys, symmetry, None).

    Returns (witness, stage, None) with the witness on the orbits of osys,
    (None, None, the own system's pass-1 SolveResult) when that decided,
    or (None, None, None).
    """
    left_open = []
    for sup, symmetry, B in systems:
        own = sup is osys
        if not own and time.monotonic() > deadline:
            continue
        try:
            system = inst if own else build_instance(spec, sup, inst.beta0,
                                                     inst.gamma1, B=B)
        except VerificationError:
            continue
        cap = _slice_nodes(system.r)
        if own and max_nodes is not None:
            cap = min(cap, max_nodes)
        res = bip.solve(system, mode="first", max_nodes=cap,
                        max_seconds=deadline - time.monotonic(),
                        seed=seed if own else None, symmetry=symmetry)
        tally(res)
        if res.status == bip.BUDGET_EXCEEDED:
            left_open.append((sup, system))
        elif own:
            return None, None, res
        elif res.status == bip.SAT:
            x = _carry(res.solutions[0], sup, osys)
            if bip.exact_witness(*inst.rows(), x):
                return x, f"refinement:{sup.description}", None
    for sup, system in left_open:
        sol = _milp_witness(system, min(60.0, deadline - time.monotonic()))
        if sol is not None:
            x = _carry(sol, sup, osys)
            if bip.exact_witness(*inst.rows(), x):
                stage = "milp" if sup is osys else \
                    f"refinement:{sup.description}"
                return x, stage, None
    return None, None, None


def search_parameter_point(spec: GraphSpec, osys: OrbitSystem,
                           beta0: int, gamma1: int,
                           B: Optional[np.ndarray] = None,
                           mode: str = "first",
                           max_nodes: Optional[int] = None,
                           max_seconds: Optional[float] = None,
                           seed: Optional[int] = None,
                           singer_exponent: Optional[int] = None,
                           label: Optional[str] = None) -> SearchOutcome:
    """Decide one parameter point; witnesses are exact, UNSAT means exhausted.

    mode 'count' runs the exact solver alone (stage 'dfs').  Mode
    'first' runs the two passes of the module docstring over the rungs of
    the refinement ladder of a^singer_exponent and then the point's own
    system, whose pass-1 slice is _slice_nodes(r) nodes (at most
    max_nodes); then, unless a witness was found or the own system
    decided, the exhaustive DFS (stage 'dfs').  All of it shares one
    deadline of max_seconds (an hour when unset).  seed breaks the
    own-system solves' branching ties.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"unknown search mode {mode!r}")
    t0 = time.monotonic()
    inst = build_instance(spec, osys, beta0, gamma1, B=B)
    lp_calls = certificates = simplex_iterations = 0

    def tally(res):
        nonlocal lp_calls, certificates, simplex_iterations
        lp_calls += res.lp_calls
        certificates += res.certificates
        simplex_iterations += res.simplex_iterations

    res = symmetry = None
    if mode == "first":
        deadline = t0 + (max_seconds if max_seconds is not None else 3600.0)
        symmetry = _symmetry(osys, _normalizers(spec, singer_exponent))
        rungs = _refinement_ladder(spec, singer_exponent) \
            if singer_exponent and singer_exponent > 1 else ()
        x, stage, res = _two_passes(spec, osys, inst,
                                    (*rungs, (osys, symmetry, None)),
                                    deadline, tally, max_nodes, seed)
        if x is not None:
            code = _verified_lift(x, osys, spec, gamma1, label)
            return SearchOutcome(status=bip.SAT, stage=stage, assignment=x,
                                 code=code, elapsed=time.monotonic() - t0,
                                 lp_calls=lp_calls, certificates=certificates,
                                 simplex_iterations=simplex_iterations,
                                 lift_verified=True)
        max_seconds = deadline - time.monotonic()
    if res is None:
        res = bip.solve(inst, mode=mode, max_nodes=max_nodes,
                        max_seconds=max_seconds, seed=seed, symmetry=symmetry)
        tally(res)
    out = SearchOutcome(status=res.status, stage="dfs", nodes=res.nodes,
                        count=res.count, elapsed=time.monotonic() - t0,
                        lp_calls=lp_calls, certificates=certificates,
                        simplex_iterations=simplex_iterations)
    if res.solutions:
        out.assignment = res.solutions[0]
        out.code = _verified_lift(out.assignment, osys, spec, gamma1, label)
        out.lift_verified = True
    return out
