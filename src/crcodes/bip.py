"""Binary feasibility search for covering-radius-1 codes over orbit variables.

For a group G with orbits O_1..O_r and quotient matrix B, a G-invariant
code with intersection array {beta0; gamma1} is exactly a binary vector x
(x_i = 1 iff O_i is inside the code) satisfying

    sum_j B_ij x_j = (m - beta0 - gamma1) x_i + gamma1       for every i
    sum_j |O_j| x_j = |V| gamma1 / (beta0 + gamma1)

The solver is a depth-first search with per-row interval propagation:
writing A = B - theta I with theta = m - beta0 - gamma1 and appending the
cardinality row, each row's achievable sum under the partial assignment
must bracket its right-hand side, and a free variable whose coefficient
exceeds the row's reach (how far its sum can still rise, or fall, before
passing the target) is forced to the value that keeps it inside.  A
round of propagation reads only the rows whose own largest coefficient
exceeds their reach, assigns everything it forces as one batch, and
repeats until a round forces nothing or a row's bracket misses its
target (a conflict).  Below the root, every node that propagation leaves
open also gets an LP bound: one warm-started HiGHS model of 0 <= x <= 1
with the fixed columns' bounds set.  It is a pure feasibility LP (zero
objective, presolve off, no dual cost perturbation), since only its
feasibility and one point in it are read.  An infeasible
LP prunes the node only when its dual ray, rounded to integers, passes an
exact check (farkas_certificate); otherwise the LP point picks the branch.
In mode 'first', an LP point that is integral on the free variables is
rounded and, with the fixed values, checked in int64: x in {0,1} and
A_ext x == rhs.  If it passes, it is the solution, and the search stops
there; modes 'all' and 'count' must enumerate that subtree and ignore it.
In mode 'first' the solver can also branch on orbits of a group H of
symmetries of the system (orbital branching: Ostrowski, Linderoth, Rossi
& Smriglio 2011).  H is given by permutations pi of the orbit variables;
search.py takes them from field maps that normalize G and so permute its
orbits (orbits.orbit_permutation).  Each pi is accepted only when it fixes
the system in integers: A[pi][:, pi] == A on the r quotient rows, with
the orbit sizes and right-hand sides unchanged.  At a node, let K be the
elements of H that fix the node's partial assignment and O the K-orbit of
the branching variable j.  The node branches x_j = 1, then x_i = 0 for
every i in O: a solution with x_i = 1 for some i in O is carried by an
element of K to one with x_j = 1 that keeps every fixed value, so the
second branch skips only images of the first.

An UNSAT is an exhausted tree in which every pruned node is a propagation
conflict or an integer-checked Farkas vector, and every skipped branch is
the image of an explored one under an integer-checked automorphism, so
floating point never decides it.  Hitting a node or time budget proves
nothing.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import GraphSpec, theta_ladder
from .orbits import OrbitSystem, quotient_matrix
from .verify import Code, VerificationError, size_and_integrality_report

SAT = "SAT"
UNSAT = "UNSAT"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


@dataclass
class BipInstance:
    """The orbit-collapsed feasibility system for one (beta0, gamma1) pair."""

    spec: GraphSpec
    B: np.ndarray              # (r, r) quotient matrix
    orbit_sizes: np.ndarray    # (r,)
    beta0: int
    gamma1: int
    description: str = ""

    def __post_init__(self):
        m = self.spec.valency
        if not (self.B.sum(axis=1) == m).all():
            raise VerificationError("quotient row sums differ from the valency")
        scaled = self.B * self.orbit_sizes[:, None]
        if not np.array_equal(scaled, scaled.T):
            raise VerificationError("quotient matrix violates edge-count symmetry")
        denom = self.beta0 + self.gamma1
        if (self.spec.vertex_count * self.gamma1) % denom != 0:
            raise VerificationError(
                f"|V| gamma1 = {self.spec.vertex_count * self.gamma1} is not "
                f"divisible by beta0 + gamma1 = {denom}")

    @property
    def r(self) -> int:
        return len(self.orbit_sizes)

    @property
    def valency(self) -> int:
        return self.spec.valency

    @property
    def target_eigenvalue(self) -> int:
        return self.valency - self.beta0 - self.gamma1

    @property
    def code_size(self) -> int:
        return self.spec.vertex_count * self.gamma1 // (self.beta0 + self.gamma1)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(A_ext, rhs): r quotient rows with theta folded in, plus
        cardinality; built once per instance and read-only."""
        return self._rows

    @functools.cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.r
        A_ext = np.empty((r + 1, r), dtype=np.int64)
        A_ext[:r], A_ext[r] = self.B, self.orbit_sizes
        A_ext.ravel()[:r * r:r + 1] -= self.target_eigenvalue  # the diagonal
        rhs = np.full(r + 1, self.gamma1, dtype=np.int64)
        rhs[r] = self.code_size
        A_ext.flags.writeable = rhs.flags.writeable = False
        return A_ext, rhs


def build_instance(spec: GraphSpec, osys: OrbitSystem, beta0: int, gamma1: int,
                   B: Optional[np.ndarray] = None) -> BipInstance:
    if B is None:
        B = quotient_matrix(spec, osys)
    return BipInstance(spec, B, osys.sizes(), beta0, gamma1,
                       description=osys.description)


def feasible_parameters(spec: GraphSpec) -> list[dict]:
    """Integrality-screened (beta0, gamma1) pairs, one row per eigenvalue.

    Only the canonical half gamma1 <= beta0 is listed; complements cover
    the rest.
    """
    m = spec.valency
    out = []
    for i, th in enumerate(theta_ladder(spec)[1:], start=1):
        s = m - th
        pairs = []
        for gamma1 in range(1, s // 2 + 1):
            rep = size_and_integrality_report(spec, s - gamma1, gamma1)
            if rep["feasible"]:
                pairs.append((s - gamma1, gamma1))
        out.append({"eigenvalue_index": i, "eigenvalue": th,
                    "strength": i - 1, "beta0_plus_gamma1": s, "pairs": pairs})
    return out


@dataclass
class SolveResult:
    status: str
    solutions: list = field(default_factory=list)  # orbit 0/1 arrays
    count: int = 0
    nodes: int = 0
    elapsed: float = 0.0
    lp_calls: int = 0
    certificates: int = 0      # nodes pruned by a checked Farkas vector
    simplex_iterations: int = 0  # summed over the node LPs


def exact_witness(A_ext: np.ndarray, rhs: np.ndarray, x) -> bool:
    """x is 0/1 and A_ext x == rhs, checked in int64."""
    x = np.asarray(x, dtype=np.int64)
    return bool(((x == 0) | (x == 1)).all() and ((A_ext @ x) == rhs).all())


FARKAS_SCALES = (10 ** 3, 10 ** 6, 10 ** 9)


def _farkas_fits_int64(A_ext: np.ndarray, rhs: np.ndarray) -> bool:
    """|y| <= 10^9 keeps every partial sum of y^T A_ext and y^T rhs inside
    int64, so the integer check of farkas_certificate is exact."""
    return FARKAS_SCALES[-1] * max(int(np.abs(A_ext).sum()),
                                   int(np.abs(rhs).sum())) < 2 ** 63


def farkas_certificate(ray, A_ext: np.ndarray, rhs: np.ndarray,
                       lo: np.ndarray, hi: np.ndarray,
                       fits: Optional[bool] = None) -> Optional[np.ndarray]:
    """An integer y proving A_ext x = rhs has no x with lo <= x <= hi, or None.

    ray is a floating-point dual ray; it is scaled so its largest entry
    has magnitude 10^3, 10^6 or 10^9 and rounded, and each rounding y is
    checked in integers: C = y^T A_ext, and y^T rhs must lie outside
    [min, max] of C x over the 0/1 box.  Only that integer check decides.
    OverflowError when int64 cannot hold that check; fits is
    _farkas_fits_int64(A_ext, rhs) when the caller has it already.
    """
    ray = np.asarray(ray, dtype=float)
    top = np.abs(ray).max() if ray.size else 0.0
    if not np.isfinite(top) or top == 0:
        return None
    if not (_farkas_fits_int64(A_ext, rhs) if fits is None else fits):
        raise OverflowError("system too large for an int64 Farkas check")
    for scale in FARKAS_SCALES:
        y = np.rint(ray * (scale / top)).astype(np.int64)
        C = y @ A_ext
        low = int(np.where(C > 0, C * lo, C * hi).sum())
        high = int(np.where(C > 0, C * hi, C * lo).sum())
        target = int(y @ rhs)
        if target < low or target > high:
            return y
    return None


HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """HiGHS's extension module, loaded from its file in scipy's
    optimize/_highspy/ (whose __init__.py is empty) without importing
    scipy.optimize, which costs about 0.5 s and 45 MB; registered under its
    real name, so that a later import of scipy.optimize shares it."""
    if HIGHS_CORE not in sys.modules:
        (scipy_dir,) = importlib.util.find_spec(
            "scipy").submodule_search_locations
        folder = f"{scipy_dir}/optimize/_highspy"
        spec = importlib.machinery.FileFinder(folder, (
            importlib.machinery.ExtensionFileLoader,
            importlib.machinery.EXTENSION_SUFFIXES)).find_spec(HIGHS_CORE)
        if spec is None:
            raise ImportError(f"no HiGHS extension module in {folder}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[HIGHS_CORE] = module
    return sys.modules[HIGHS_CORE]


NODE_LP_OPTIONS = {"output_flag": False, "presolve": "off",
                   "dual_simplex_cost_perturbation_multiplier": 0.0,
                   "time_limit": float("inf")}


def _node_lp(A_ext: np.ndarray, rhs: np.ndarray):
    """HiGHS model of A_ext x = rhs, 0 <= x <= 1: a pure feasibility LP.

    The objective is zero, so every basis is dual optimal and the dual
    simplex only has to reach primal feasibility; its default cost
    perturbation would make it optimise a random objective instead, so it
    is switched off (NODE_LP_OPTIONS).  Presolve is off too: each run
    starts from the previous run's basis.  time_limit starts at infinity;
    solve sets it before a run only when it has a deadline.  HiGHS
    answers an unknown option name with a status, not an exception, so
    each status is checked: RuntimeError if one is refused.  HiGHS is
    loaded here, on its own (_highs_core), so that importing the package
    stays cheap and node LPs never import scipy.optimize.
    """
    highs = _highs_core()
    lp = highs._Highs()
    for name, value in NODE_LP_OPTIONS.items():
        if lp.setOptionValue(name, value) != highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused option {name} = {value!r}")
    m, r = A_ext.shape
    lp.addVars(r, np.zeros(r), np.ones(r))
    rows, cols = np.nonzero(A_ext)
    starts = np.searchsorted(rows, np.arange(m)).astype(np.int32)
    b = rhs.astype(float)
    lp.addRows(m, b, b, len(cols), starts, cols.astype(np.int32),
               A_ext[rows, cols].astype(float))
    return lp


def _symmetry_group(A_ext: np.ndarray, rhs: np.ndarray,
                    perms) -> np.ndarray:
    """Every element of the group the permutations generate, one per row.

    Each generator must fix the system in integers: the r quotient rows
    (A_ext[pi][:, pi] == A_ext[:r]), the orbit sizes of the last row and
    the right-hand sides; VerificationError otherwise.  That check runs on
    every call; only the closure, a read-only array, is shared by the
    calls that pass the same generators (_closure).
    """
    r = A_ext.shape[1]
    A, sizes, b = A_ext[:r], A_ext[r], rhs[:r]
    gens = []
    for p in perms:
        p = np.asarray(p, dtype=np.int64)
        if p.shape != (r,) or not np.array_equal(np.sort(p), np.arange(r)):
            raise VerificationError("symmetry is not a permutation of the "
                                    "orbit variables")
        if not (np.array_equal(A[p][:, p], A) and
                np.array_equal(sizes[p], sizes) and np.array_equal(b[p], b)):
            raise VerificationError("symmetry does not fix the system")
        gens.append(p.tobytes())
    return _closure(r, tuple(gens))


@functools.lru_cache(maxsize=32)
def _closure(r: int, gens: tuple[bytes, ...]) -> np.ndarray:
    """The group generated by the int64 permutations of range(r) whose
    bytes are gens, one element per row, the identity first; read-only."""
    gens = [np.frombuffer(g, dtype=np.int64) for g in gens]
    identity = np.arange(r, dtype=np.int64)
    elements = {identity.tobytes(): identity}
    frontier = [identity]
    while frontier:
        found = []
        for h in frontier:
            for p in gens:
                e = h[p]
                if e.tobytes() not in elements:
                    elements[e.tobytes()] = e
                    found.append(e)
        frontier = found
    group = np.array(list(elements.values()))
    group.flags.writeable = False
    return group


def solve(inst: BipInstance, mode: str = "first",
          max_nodes: Optional[int] = None,
          max_seconds: Optional[float] = None,
          seed: Optional[int] = None,
          symmetry=None) -> SolveResult:
    """Depth-first feasibility search; UNSAT is a proof, budget is not.

    mode 'first' stops at one solution, 'all' collects every solution,
    'count' only counts them.  Every assignment is followed by propagation
    to its fixpoint, one batch of forced values per round, as the module
    docstring sets out: a row is read in a round only when its largest
    positive or negative coefficient exceeds its reach up or down, and
    backtracking reverts a whole trail slice at once.  At every open node
    below the root the node LP runs with the time left as its HiGHS
    time_limit, so max_seconds reaches inside it; a timed-out LP decides
    nothing.  It prunes the node only on a Farkas vector that passes the
    integer check, which a subtree holding a solution never passes, so
    'all' and 'count' stay exact.
    Branching takes the most fractional free variable of the LP point.
    When the LP is integral on the free variables, mode 'first' rounds the
    point, keeps the fixed values, and returns it as the solution if it
    passes exact_witness in int64; the LP alone never decides a SAT.  When
    that check fails, in modes 'all' and 'count', or when the LP gives no
    point, branching takes a free variable of maximum absolute coefficient
    inside a row of minimum slack.  Value 1 goes first; the optional seed
    shuffles only tie-breaks, deterministically.

    symmetry (mode 'first' only; ValueError otherwise) is a list of
    permutations pi of the orbit variables, each of which must fix the
    system (VerificationError otherwise).  They generate H, and the value-0
    branch of j sets to 0 the whole orbit of j under the elements of H
    that fix the node's assignment, as the module docstring sets out: it
    skips only images of solutions the value-1 branch covers, so an UNSAT
    is still a proof.  Without it, or when H is trivial, the value-0
    branch sets x_j alone.
    """
    if mode not in ("first", "all", "count"):
        raise ValueError(f"unknown mode {mode!r}")
    if symmetry is not None and mode != "first":
        raise ValueError(f"mode {mode!r} enumerates every solution; "
                         "symmetry is for mode 'first' only")
    A_ext, rhs = inst.rows()
    m, r = A_ext.shape
    H = _symmetry_group(A_ext, rhs, symmetry or ())
    # reach[k] is how far row k's sum can still rise above its least value
    # over the free variables before passing rhs[k]; reach[m + k] is how
    # far it can fall from its greatest.  Z = [A+; A-] (A's positive part
    # and the magnitudes of its negative one): x_j = 1 uses up Z[:, j] of
    # reach, and is forbidden once some Z[k, j] exceeds reach[k]; x_j = 0
    # uses up, and is forbidden by, the same column with its halves
    # swapped (Z[swap]).
    pos, neg = np.maximum(A_ext, 0), np.maximum(-A_ext, 0)
    Z = np.vstack([pos, neg])
    ZT = np.ascontiguousarray(Z.T)
    swap = np.r_[m:2 * m, 0:m]
    zmax = Z.max(axis=1, initial=0)
    omax = zmax[swap]
    reach = np.concatenate([rhs + neg.sum(axis=1), pos.sum(axis=1) - rhs])
    x = np.full(r, -1, dtype=np.int8)
    trail = np.empty(r, dtype=np.intp)  # assigned variables, in order
    top = 0
    tie_rank = np.arange(r)
    if seed is not None:
        rng = np.random.default_rng(seed)
        tie_rank = rng.permutation(r)

    result = SolveResult(status=UNSAT)
    t0 = time.monotonic()

    def assign(ones: np.ndarray, zeros: np.ndarray) -> None:
        nonlocal top
        x[ones], x[zeros] = 1, 0
        mid = top + len(ones)
        trail[top:mid], trail[mid:mid + len(zeros)] = ones, zeros
        top = mid + len(zeros)
        reach[:] -= ZT[ones].sum(axis=0) + ZT[zeros].sum(axis=0)[swap]

    def undo_to(mark: int) -> None:
        nonlocal top
        js = trail[mark:top]
        ones = x[js] == 1
        reach[:] += ZT[js[ones]].sum(axis=0) + \
            ZT[js[~ones]].sum(axis=0)[swap]
        x[js] = -1
        top = mark

    none = np.empty(0, dtype=np.intp)

    def propagate() -> bool:
        """Bounds consistency to fixpoint; False on conflict.

        A free variable whose coefficient cannot fit a row's remaining
        reach in either direction is forced: with up = reach[k] and down =
        reach[m + k], a coefficient c > up forbids value 1 (c > 0) or
        value 0 (c < 0), and c > down forces 1 (c > 0) or 0 (c < 0).  A
        round reads only the rows whose own largest coefficient of that
        sign exceeds their reach, and assigns all it forces at once.
        """
        while True:
            if reach.min() < 0:
                return False
            rz = np.nonzero(zmax > reach)[0]
            ro = np.nonzero(omax > reach)[0]
            if not (rz.size or ro.size):
                return True
            free = x == -1
            to_zero = free & (Z[rz] > reach[rz, None]).any(axis=0)
            to_one = free & (Z[swap[ro]] > reach[ro, None]).any(axis=0)
            if (to_one & to_zero).any():
                return False
            ones, zeros = np.nonzero(to_one)[0], np.nonzero(to_zero)[0]
            if not (ones.size or zeros.size):
                return True
            assign(ones, zeros)

    lp = None  # the HiGHS model, built at the first open node
    statuses = fits = None  # HiGHS's model statuses; _farkas_fits_int64
    all_cols = np.arange(r, dtype=np.int32)

    def lp_check():
        """'prune' on a checked certificate; in mode 'first', 'witness' once
        the LP point, rounded and checked in integers, solves the system,
        with its free variables assigned from it; else the most fractional
        free variable of the LP point, or None when the LP gives no branch."""
        nonlocal lp, statuses, fits
        left = None if max_seconds is None else \
            max_seconds - (time.monotonic() - t0)
        if left is not None and left <= 0:
            return None  # HiGHS ignores a negative time_limit
        if lp is None:
            lp = _node_lp(A_ext, rhs)
            statuses = _highs_core().HighsModelStatus
            fits = _farkas_fits_int64(A_ext, rhs)
        free = x == -1
        lp.changeColsBounds(r, all_cols, (x == 1).astype(float),
                            (x != 0).astype(float))
        if left is not None:
            # HiGHS holds time_limit against its run time summed over runs
            lp.setOptionValue("time_limit", lp.getRunTime() + left)
        lp.run()
        result.lp_calls += 1
        result.simplex_iterations += lp.getInfoValue(
            "simplex_iteration_count")[1]
        status = lp.getModelStatus()
        if status == statuses.kInfeasible:
            _, has_ray, ray = lp.getDualRay()
            if has_ray and farkas_certificate(
                    ray, A_ext, rhs, (x == 1).astype(np.int64),
                    (x != 0).astype(np.int64), fits=fits) is not None:
                return "prune"
        elif status == statuses.kOptimal:
            value = np.asarray(lp.getSolution().col_value)
            dist = np.where(free, np.abs(value - 0.5), np.inf)
            best = dist.min()
            if best < 0.5 - 1e-6:
                cand = np.nonzero(dist == best)[0]
                return int(cand[np.argmin(tie_rank[cand])])
            if mode == "first":
                point = np.where(free, np.rint(value), x).astype(np.int64)
                if exact_witness(A_ext, rhs, point):
                    assign(np.nonzero(free & (point == 1))[0],
                           np.nonzero(free & (point == 0))[0])
                    return "witness"
        return None

    def pick_branch() -> int:
        up, down = reach[:m], reach[m:]
        # up + down is the sum of |A_ij| over the row's free variables
        open_rows = np.nonzero(up + down > 0)[0]
        slack = np.minimum(up, down)
        row = int(open_rows[np.argmin(slack[open_rows])])
        coeffs = np.abs(A_ext[row]) * (x == -1)
        best = coeffs.max()
        cand = np.nonzero(coeffs == best)[0]
        return int(cand[np.argmin(tie_rank[cand])])

    def branch_orbit(j: int) -> np.ndarray:
        """j's orbit under the elements of H that fix the assignment."""
        if len(H) == 1:
            return np.full(1, j, dtype=np.intp)
        return np.unique(H[(x[H] == x).all(axis=1), j])

    # Frames: (trail mark before the branch on a variable, the variables
    # its value-0 branch sets to 0, or None once that branch is taken).
    stack: list[tuple[int, Optional[np.ndarray]]] = []

    def backtrack() -> bool:
        """Move to the next untried branch; False when the tree is exhausted."""
        while stack:
            mark, zeros = stack.pop()
            undo_to(mark)
            if zeros is not None:
                stack.append((mark, None))
                assign(none, zeros)
                if propagate():
                    return True
        return False

    nodes = 0
    alive = propagate()
    while alive:
        if top == r:
            result.count += 1
            if mode in ("first", "all"):
                result.solutions.append((x == 1).astype(np.int8))
            if mode == "first":
                result.status = SAT
                break
            alive = backtrack()
            continue
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            result.status = BUDGET_EXCEEDED
            break
        if max_seconds is not None and time.monotonic() - t0 > max_seconds:
            result.status = BUDGET_EXCEEDED
            break
        j = lp_check() if stack else None
        if j == "witness":
            continue
        if j == "prune":
            result.certificates += 1
            alive = backtrack()
            continue
        if j is None:
            j = pick_branch()
        stack.append((top, branch_orbit(j)))
        assign(np.full(1, j, dtype=np.intp), none)
        if not propagate():
            alive = backtrack()

    if result.status == UNSAT and result.count > 0:
        result.status = SAT
    result.nodes = nodes
    result.elapsed = time.monotonic() - t0
    return result


def lift(assignment, osys: OrbitSystem, spec: GraphSpec,
         label: Optional[str] = None) -> Code:
    """Union of the selected orbits; must be re-verified on the full graph."""
    sel = np.asarray(assignment).astype(bool)
    if sel.shape != (osys.count,):
        raise VerificationError("assignment length does not match orbit count")
    ids = np.concatenate([osys.orbits[i] for i in np.nonzero(sel)[0]]) \
        if sel.any() else np.array([], dtype=np.int64)
    return Code(spec, ids, label=label)


# ----------------------------------------------------------------------
# Text export: OPB and LP
# ----------------------------------------------------------------------

def _terms(row: np.ndarray) -> list[str]:
    out = []
    for j, c in enumerate(row):
        if c:
            out.append(f"{'+' if c > 0 else '-'}{abs(int(c))} x{j + 1}")
    return out


def export_opb(inst: BipInstance) -> str:
    """Pseudo-Boolean OPB text: r quotient rows plus the cardinality row."""
    A_ext, rhs = inst.rows()
    lines = [f"* #variable= {inst.r} #constraint= {len(rhs)}"]
    lines.append(f"* graph {inst.spec} group {inst.description} "
                 f"beta0 {inst.beta0} gamma1 {inst.gamma1}")
    for i in range(len(rhs)):
        lines.append(" ".join(_terms(A_ext[i])) + f" = {int(rhs[i])} ;")
    return "\n".join(lines) + "\n"


def export_lp(inst: BipInstance) -> str:
    """CPLEX LP text with a zero objective (pure feasibility)."""
    A_ext, rhs = inst.rows()
    lines = [f"\\ {inst.spec} group {inst.description} "
             f"beta0={inst.beta0} gamma1={inst.gamma1}",
             "Minimize", " obj: 0", "Subject To"]
    for i in range(len(rhs)):
        name = f"card" if i == inst.r else f"r{i + 1}"
        lines.append(f" {name}: " + " ".join(_terms(A_ext[i])) +
                     f" = {int(rhs[i])}")
    lines.append("Binaries")
    lines.append(" " + " ".join(f"x{j + 1}" for j in range(inst.r)))
    lines.append("End")
    return "\n".join(lines) + "\n"
