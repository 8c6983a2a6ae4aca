"""Exact verification of complete regularity.

A code C in a regular graph splits the vertices into distance cells
C_0 = C, C_1, ..., C_rho.  C is completely regular when every vertex of
C_i has constant neighbor counts (gamma_i, alpha_i, beta_i) into the
cells C_{i-1}, C_i, C_{i+1}; the constants form the intersection array
{beta_0..beta_{rho-1}; gamma_1..gamma_rho} and the tridiagonal quotient
matrix.  Everything here is integer arithmetic: the quotient eigenvalues
are found by testing the graph's own eigenvalue ladder as roots of the
characteristic polynomial, never by a floating-point solver, so any
eigenvalue outside the ladder raises instead of rounding.

Per-vertex neighbor counts are not taken by walking neighbor lists: in a
Johnson or Grassmann graph two distinct k-objects over a common
(k-1)-object are always adjacent and adjacent vertices share exactly one
(k-1)-object, so counting, for every (k-1)-object, the members of each
cell containing it gives every vertex's per-cell neighbor counts by a sum
over its own (k-1)-subobjects.  The breadth-first search that finds the
cells takes those counts layer by layer (DistancePartition.over) and
keeps them.  The sums are taken for all cells at once in packed uint64
words: each cell is a field of w = (s * containing_count).bit_length()
bits, for s (k-1)-objects per vertex, and a field's sum is at most
s * containing_count < 2^w, so one gather per table column adds every
cell's count without a carry between fields.  That turns the 10^8-edge
check of the largest graph here into a handful of array passes.

Vertex ids are the recursion positions of subspaces.py, the order
ContainmentTable.positions is computed in, so everything runs straight on
that array: no id is mapped to another label.  A cell's reference vertex
and the counterexample are the ones of least id.

The design strength reads the same (k-1) table and no other full-size
one: the code's cover of the (k-1)-objects, which is the partition's
layer-0 count when a partition is at hand, is counted down, level by
level, through the tables of the much smaller sub-levels
(design_strength), so a verify holds one table of the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .graphs import GraphSpec, containment_table, theta, theta_ladder
from .subspaces import gaussian


class VerificationError(ValueError):
    """Raised when verification input is unusable or internally inconsistent."""


class Code:
    """A vertex subset of a Johnson or Grassmann graph, ids sorted."""

    def __init__(self, spec: GraphSpec, ids, label: Optional[str] = None):
        ids = _sorted_ids(ids)
        if len(ids) and (ids[0] < 0 or ids[-1] >= spec.vertex_count):
            raise VerificationError("vertex id out of range")
        if len(ids) > 1 and (np.diff(ids) == 0).any():
            raise VerificationError("duplicate vertex ids in code")
        self.spec = spec
        self.ids = ids
        self.label = label

    def __len__(self) -> int:
        return len(self.ids)

    def complement(self, label: Optional[str] = None) -> "Code":
        mask = np.ones(self.spec.vertex_count, dtype=bool)
        mask[self.ids] = False
        return Code(self.spec, np.nonzero(mask)[0], label=label)

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label else ""
        return f"Code({self.spec}, size={len(self)}{tag})"


@dataclass
class DistancePartition:
    """Distance cells of a code, with the layer counts of their search.

    cells holds rho+1 sorted id arrays, cell_of[v] the cell of vertex v,
    and over[d][T] the number of cell-d vertices over the (k-1)-object T,
    at most containing_count, so int32; over[d] > 0 marks the objects the
    search stepped through from layer d.
    """

    spec: GraphSpec
    rho: int
    cells: list  # rho+1 sorted id arrays
    cell_of: np.ndarray  # (V,) cell index per vertex
    over: np.ndarray  # (rho+1, S) int32 layer counts

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


@dataclass
class IntersectionNumbers:
    alpha: tuple[int, ...]  # rho+1 same-cell counts
    beta: tuple[int, ...]   # rho outward counts beta_0..beta_{rho-1}
    gamma: tuple[int, ...]  # rho inward counts gamma_1..gamma_rho
    quotient: tuple[tuple[int, ...], ...]

    def array(self) -> str:
        b = ",".join(str(x) for x in self.beta)
        g = ",".join(str(x) for x in self.gamma)
        return "{" + b + ";" + g + "}"


@dataclass
class Counterexample:
    vertex: int
    cell: int
    expected: tuple[int, ...]
    found: tuple[int, ...]


@dataclass
class RegularityCheck:
    """The verdict, with every vertex's per-cell neighbor counts: _words
    and _width are the packed form of _neighbor_words, and counts[v, c] is
    unpacked from them on first read."""

    ok: bool
    partition: DistancePartition
    numbers: Optional[IntersectionNumbers]
    counterexample: Optional[Counterexample]
    _words: list = field(repr=False)
    _width: int = field(repr=False)

    @cached_property
    def counts(self) -> np.ndarray:
        """(V, rho+1) per-cell neighbor counts, row v for vertex v."""
        return _unpack(self._words, self._width, self.partition.rho + 1)


def _sorted_ids(ids) -> np.ndarray:
    """A fresh sorted int64 array; a 1-d integer ndarray is sorted by numpy,
    and only when it is not already in order, as a code file's ids are."""
    if isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu":
        out = ids.astype(np.int64)
        if (out[1:] < out[:-1]).any():
            out.sort()
        return out
    return np.asarray(sorted(int(i) for i in ids), dtype=np.int64)


def _as_code(spec: GraphSpec, code) -> Code:
    """code as a Code of spec; raw ids get the range and duplicate checks."""
    if isinstance(code, Code):
        if code.spec != spec:
            raise VerificationError("code belongs to a different graph")
        return code
    return Code(spec, code)


def _code_ids(spec: GraphSpec, code) -> np.ndarray:
    return _as_code(spec, code).ids


def _star_counts(columns: np.ndarray, vertices: np.ndarray,
                 S: int) -> np.ndarray:
    """How many of the given vertices lie over each of the S (k-1)-objects.

    The slot rows of columns are gathered step at a time, as many as keep
    the gathered ids within the length of one row: the temporary is never
    larger than one table row, and few vertices take few bincounts."""
    counts = np.zeros(S, dtype=np.int64)
    step = max(1, columns.shape[1] // max(1, len(vertices)))
    for lo in range(0, len(columns), step):
        block = np.take(columns[lo:lo + step], vertices, axis=1)
        counts += np.bincount(block.ravel(), minlength=S)
    return counts


def distance_partition(spec: GraphSpec, code) -> DistancePartition:
    """Breadth-first distance cells from the code; rho = #layers - 1.

    The search reads ContainmentTable.positions one slot row at a time.
    over[d][T] counts the cell-d vertices over the (k-1)-object T.  Layer d
    is counted from whichever side is smaller: its own vertices, or the
    vertices not yet reached, since each of T's containing_count vertices
    lies in a cell up to d or is not yet reached.  The next layer is the
    set of unreached vertices over some T with over[d][T] > 0; only those
    open vertices are gathered, and they grow fewer with every layer.  The
    counts are kept: check_completely_regular sums them into every
    vertex's per-cell neighbor counts.
    """
    ids = _code_ids(spec, code)
    if len(ids) == 0:
        raise VerificationError("code is empty")
    table = containment_table(spec, spec.k - 1)
    columns = table.positions
    S, m = table.sub_count, table.containing_count
    cell = np.full(spec.vertex_count, -1, dtype=np.int64)
    cell[ids] = 0
    cells = [ids]
    over = []
    below = np.zeros(S, dtype=np.int64)  # members of the cells before layer d
    unreached = np.flatnonzero(cell == -1)
    while True:
        if len(cells[-1]) <= len(unreached):
            layer = _star_counts(columns, cells[-1], S)
        else:
            layer = m - below - _star_counts(columns, unreached, S)
        below += layer
        over.append(layer)
        if unreached.size == 0:
            break
        mark = layer > 0
        reached = np.zeros(unreached.size, dtype=bool)
        for col in columns:
            reached |= np.take(mark, np.take(col, unreached))
        nxt = unreached[reached]
        if nxt.size == 0:
            raise VerificationError("some vertices are unreachable from the code")
        cell[nxt] = len(cells)
        cells.append(nxt)
        unreached = unreached[~reached]
    return DistancePartition(spec, rho=len(cells) - 1, cells=cells,
                             cell_of=cell, over=np.array(over, dtype=np.int32))


def _neighbor_words(table, over: np.ndarray,
                    cell_of: np.ndarray) -> tuple[list, int]:
    """Every vertex's per-cell neighbor counts, packed into uint64 words.

    Cell c is the w-bit field c % per of word c // per, with
    w = (s * containing_count).bit_length() and per = 64 // w.  A word
    packs over[c] (the cell-c count over each (k-1)-object) into its
    field, sums the packed values over each vertex's s (k-1)-objects, one
    row of table.positions at a time, and takes s off the field of the
    vertex's own cell.  No field carries: its sum is at
    most s * containing_count < 2^w.  None borrows: a vertex lies in all s
    of its own stars, so its own field holds at least s.  Returns the
    words and w.
    """
    s = table.per_vertex
    w = (s * table.containing_count).bit_length()
    per = 64 // w
    nc, S = over.shape
    words = []
    for lo in range(0, nc, per):
        packed = np.zeros(S, dtype=np.uint64)
        own = np.zeros(nc, dtype=np.uint64)
        for c in range(lo, min(lo + per, nc)):
            shift = np.uint64(w * (c - lo))
            packed |= over[c].astype(np.uint64) << shift
            own[c] = np.uint64(s) << shift
        columns = iter(table.positions)
        word = np.take(packed, next(columns))
        for col in columns:
            word += np.take(packed, col)
        word -= np.take(own, cell_of)
        words.append(word)
    return words, w


def _unpack(words: list, w: int, n_cells: int) -> np.ndarray:
    """The (len, n_cells) int64 counts held in the words of _neighbor_words."""
    per = 64 // w
    mask = np.uint64((1 << w) - 1)
    counts = np.empty((n_cells, len(words[0])), dtype=np.int64)
    for c, row in enumerate(counts):
        row[:] = words[c // per] >> np.uint64(w * (c % per)) & mask
    return counts.T


def cell_neighbor_counts(spec: GraphSpec, cell_of: np.ndarray,
                         n_cells: int) -> np.ndarray:
    """counts[v, c] = number of neighbors of v lying in cell c, for every v.

    The cells may be any partition, not only a distance partition: the
    members of each cell over each (k-1)-object are counted by one bincount
    per table row, and those counts are summed into packed words as in
    check_completely_regular (_neighbor_words).  The result is the
    (V, n_cells) view of an (n_cells, V) array.
    """
    table = containment_table(spec, spec.k - 1)
    S = table.sub_count
    over = np.zeros(n_cells * S, dtype=np.int64)
    base = cell_of * S
    for col in table.positions:
        over += np.bincount(base + col, minlength=n_cells * S)
    words, w = _neighbor_words(table, over.reshape(n_cells, S), cell_of)
    return _unpack(words, w, n_cells)


def check_completely_regular(spec: GraphSpec, code) -> RegularityCheck:
    """Exhaustive equitability check of the distance partition.

    Every vertex's per-cell neighbor counts, packed from the partition's
    layer counts (_neighbor_words), are compared word by word against those
    of its cell's reference vertex, the one of least id; on failure the
    violating vertex of least id is reported with expected and found
    counts.  Only those few vertices are unpacked; RegularityCheck.counts
    unpacks all of them when read.
    """
    code = _as_code(spec, code)
    if len(code) == 0:
        raise VerificationError("code is empty")
    if len(code) == spec.vertex_count:
        raise VerificationError("code is the full vertex set")
    part = distance_partition(spec, code)
    nc = part.rho + 1
    table = containment_table(spec, spec.k - 1)
    words, w = _neighbor_words(table, part.over, part.cell_of)
    firsts = np.array([cell[0] for cell in part.cells])
    mismatch = np.zeros(spec.vertex_count, dtype=bool)
    for word in words:
        mismatch |= word != word[firsts][part.cell_of]
    refs = _unpack([word[firsts] for word in words], w, nc)
    result = RegularityCheck(ok=not mismatch.any(), partition=part,
                             numbers=None, counterexample=None, _words=words,
                             _width=w)
    if not result.ok:
        v = int(np.argmax(mismatch))
        c = int(part.cell_of[v])
        found = _unpack([word[[v]] for word in words], w, nc)[0]
        result.counterexample = Counterexample(
            vertex=v, cell=c,
            expected=tuple(int(x) for x in refs[c]),
            found=tuple(int(x) for x in found))
        return result
    # distance cells can never host edges skipping a layer; make sure
    for c in range(nc):
        for c2 in range(nc):
            if abs(c - c2) >= 2 and refs[c][c2] != 0:
                raise VerificationError(
                    f"edge between cells {c} and {c2}: not a distance partition")
    m = spec.valency
    if not all(int(refs[c].sum()) == m for c in range(nc)):
        raise VerificationError("quotient row sums do not match the valency")
    alpha = tuple(int(refs[c][c]) for c in range(nc))
    beta = tuple(int(refs[c][c + 1]) for c in range(nc - 1))
    gamma = tuple(int(refs[c][c - 1]) for c in range(1, nc))
    result.numbers = IntersectionNumbers(
        alpha=alpha, beta=beta, gamma=gamma,
        quotient=tuple(tuple(int(x) for x in refs[c]) for c in range(nc)))
    return result


# ----------------------------------------------------------------------
# Quotient-matrix eigenvalues, exactly
# ----------------------------------------------------------------------

def char_poly(mat: Sequence[Sequence[int]]) -> list[int]:
    """Monic characteristic polynomial coefficients, descending, exact.

    Faddeev-LeVerrier with integer arithmetic; every division is exact.
    """
    n = len(mat)
    a = [[int(x) for x in row] for row in mat]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for step in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        tr = sum(am[i][i] for i in range(n))
        assert tr % step == 0
        c = -tr // step
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return coeffs


def _synthetic_divide(coeffs: list[int], r: int):
    """Divide a monic poly (descending coeffs) by (x - r); (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + r * out[-1])
    return out[:-1], out[-1]


def code_eigenvalues(quotient: Sequence[Sequence[int]],
                     spec: GraphSpec) -> list[int]:
    """Roots of det(A - x I), found among the graph's eigenvalue ladder.

    Raises VerificationError if the polynomial does not factor completely
    over the ladder, which would mean the quotient matrix cannot belong to
    a completely regular code of this graph.
    """
    coeffs = char_poly(quotient)
    roots: list[int] = []
    for t in theta_ladder(spec):
        while len(coeffs) > 1:
            q, rem = _synthetic_divide(coeffs, t)
            if rem != 0:
                break
            coeffs = q
            roots.append(t)
    if len(coeffs) > 1:
        raise VerificationError(
            f"quotient matrix has an eigenvalue outside the graph spectrum; "
            f"unfactored part {coeffs}")
    return sorted(roots, reverse=True)


def eigenvalue_indices(spec: GraphSpec, values: Sequence[int]) -> list[int]:
    ladder = theta_ladder(spec)
    out = []
    for v in values:
        out.append(ladder.index(v))
    return out


# ----------------------------------------------------------------------
# Strength of a design
# ----------------------------------------------------------------------

def design_strength(spec: GraphSpec, ids) -> tuple[int, tuple[int, ...]]:
    """Largest t with every t-subobject covered by a constant number of blocks.

    The blocks are the vertices named by ids inside the given level; ids
    may also be a DistancePartition of the level, whose cell 0 is the
    block set.  The returned lambdas are the cover counts (lambda_1, ...,
    lambda_t).  Only the level's (k-1) table is read: cover_{k-1} counts
    the blocks over each (k-1)-object (a partition's layer-0 count over[0]
    is exactly that), and each lower cover is counted down from the one
    above through the small table of level j+1 over level j,

        cover_j[T] = (sum of cover_{j+1}[S] over the (j+1)-objects
                      S containing T) / [k-j]_q,

    since every block over T holds exactly [k-j]_q such S.  A division
    that is not exact means an inconsistent table and raises.
    """
    if isinstance(ids, DistancePartition):
        if ids.spec != spec:
            raise VerificationError("partition belongs to a different graph")
        size, cover = len(ids.cells[0]), ids.over[0]
    else:
        ids = _code_ids(spec, ids)
        size, cover = len(ids), None
    if size == 0:
        raise VerificationError("empty block set has no strength")
    k = spec.k
    covers = []  # cover_{k-1}, ..., cover_1
    if k >= 2:
        if cover is None:
            table = containment_table(spec, k - 1)
            cover = _star_counts(table.positions, ids, table.sub_count)
        cover = cover.astype(np.int64)
        covers.append(cover)
        for j in range(k - 2, 0, -1):
            up = containment_table(spec.level(j + 1), j)
            total = np.zeros(up.sub_count, dtype=np.int64)
            for col in up.positions:
                np.add.at(total, col, cover)
            cover, rest = np.divmod(total, gaussian(k - j, 1, spec.q))
            if rest.any():
                raise VerificationError(
                    f"level-{j} cover of {spec} is not a whole count")
            covers.append(cover)
    lambdas: list[int] = []
    for cover in reversed(covers):
        if (cover != cover[0]).any():
            return len(lambdas), tuple(lambdas)
        lambdas.append(int(cover[0]))
    if k and size == spec.vertex_count:
        lambdas.append(1)  # the full vertex set covers each vertex once
    return len(lambdas), tuple(lambdas)


def strength_from_eigenvalues(spec: GraphSpec, values: Sequence[int]) -> int:
    """min{i >= 1 : theta_i is a code eigenvalue} - 1."""
    ladder = theta_ladder(spec)
    present = [i for i in range(1, len(ladder)) if ladder[i] in values]
    if not present:
        raise VerificationError("code has no eigenvalue below the valency")
    return min(present) - 1


# ----------------------------------------------------------------------
# Size and integrality for covering radius 1
# ----------------------------------------------------------------------

def size_and_integrality_report(spec: GraphSpec, beta0: int, gamma1: int) -> dict:
    """Feasibility screen for a putative {beta0; gamma1} code.

    The size comes from edge double counting, |C| (beta0+gamma1) = |V| gamma1;
    the complementary pair (gamma1, beta0) names the complement of the same
    partition.  The strength-t divisibility conditions require
    [n-i, k-i]_q * gamma1 / (beta0+gamma1) to be an integer for i = 0..t.
    """
    n, k, q = spec.n, spec.k, spec.q
    m = spec.valency
    denom = beta0 + gamma1
    report: dict = {
        "graph": str(spec),
        "beta0": beta0,
        "gamma1": gamma1,
        "complement_pair": {"beta0": gamma1, "gamma1": beta0},
    }
    checks = []
    feasible = True
    if not (0 < gamma1 and 0 < beta0 and denom <= 2 * m):
        report["eigenvalue"] = None
        checks.append({"name": "parameter_range", "ok": False})
        feasible = False
    else:
        eig = m - denom
        ladder = theta_ladder(spec)
        if eig not in ladder[1:]:
            report["eigenvalue"] = eig
            checks.append({"name": "eigenvalue_in_spectrum", "ok": False})
            feasible = False
        else:
            i = ladder.index(eig)
            t = i - 1
            report["eigenvalue"] = eig
            report["eigenvalue_index"] = i
            report["strength"] = t
            size_num = spec.vertex_count * gamma1
            if size_num % denom != 0:
                checks.append({"name": "size_integral", "ok": False})
                report["size"] = None
                feasible = False
            else:
                report["size"] = size_num // denom
                checks.append({"name": "size_integral", "ok": True})
                for i2 in range(t + 1):
                    lam_num = gaussian(n - i2, k - i2, q) * gamma1
                    ok = lam_num % denom == 0
                    checks.append({"name": f"lambda_{i2}_integral", "ok": ok})
                    feasible = feasible and ok
    report["checks"] = checks
    report["feasible"] = feasible
    return report


# ----------------------------------------------------------------------
# Full report
# ----------------------------------------------------------------------

def verify_report(spec: GraphSpec, code, label: Optional[str] = None) -> dict:
    """JSON-ready verification report with stable key order.

    The strength is counted from the partition's layer-0 counts, which are
    the code's cover of the (k-1)-objects, so no cover is counted twice.
    """
    code = _as_code(spec, code)
    if label is None:
        label = code.label
    report: dict = {
        "graph": str(spec),
        "code_size": len(code),
    }
    if label:
        report["label"] = label
    if len(code) == 0:
        report.update({"completely_regular": False, "error": "code is empty"})
        return report
    if len(code) == spec.vertex_count:
        report.update({"completely_regular": False,
                       "error": "code is the full vertex set"})
        return report
    result = check_completely_regular(spec, code)
    report["rho"] = result.partition.rho
    report["cells"] = [int(x) for x in result.partition.sizes()]
    if not result.ok:
        ce = result.counterexample
        report["completely_regular"] = False
        report["counterexample"] = {
            "vertex": ce.vertex,
            "cell": ce.cell,
            "expected": list(ce.expected),
            "found": list(ce.found),
        }
        return report
    nums = result.numbers
    report["alpha"] = list(nums.alpha)
    report["beta"] = list(nums.beta)
    report["gamma"] = list(nums.gamma)
    report["quotient"] = [list(r) for r in nums.quotient]
    eigs = code_eigenvalues(nums.quotient, spec)
    report["eigenvalues"] = eigs
    report["eigenvalue_indices"] = eigenvalue_indices(spec, eigs)
    t_rule = strength_from_eigenvalues(spec, eigs)
    t_design, lambdas = design_strength(spec, result.partition)
    report["strength"] = t_design
    report["lambdas"] = list(lambdas)
    checks = [
        {"name": "equitable", "ok": True},
        {"name": "lloyd_eigenvalues_in_spectrum", "ok": True},
        {"name": "strength_matches_eigenvalue_rule", "ok": t_rule == t_design},
    ]
    if result.partition.rho == 1:
        beta0, gamma1 = nums.beta[0], nums.gamma[0]
        sir = size_and_integrality_report(spec, beta0, gamma1)
        checks.append({"name": "size_formula",
                       "ok": sir.get("size") == len(code)})
        report["complement_pair"] = sir["complement_pair"]
    report["checks"] = checks
    report["completely_regular"] = all(c["ok"] for c in checks)
    return report
