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

Beside the containment table a verify holds two per-vertex things: one
int8 cell label per vertex (DistancePartition.cell_of) and the code's
ids.  Every other per-vertex array (the star ids gathered, the packed
words, the labels they are compared under) is made for one id range of
CHUNK_IDS vertices at a time and dropped before the next, so the working
set beside the table does not grow with the graph.  The cells, their
sizes and the per-vertex counts are computed from the labels when read.

The design strength reads the same (k-1) table and no other full-size
one: the code's cover of the (k-1)-objects, which is the partition's
layer-0 count when a partition is at hand, is counted down, level by
level, through the tables of the much smaller sub-levels
(design_strength), so a verify holds one table of the graph itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .graphs import GraphSpec, containment_table, theta, theta_ladder
from .subspaces import gaussian

# vertex ids a per-vertex pass takes at once: a chunk's temporaries (star
# ids as intp, packed uint64 words, labels) take a few MB at most, so the
# working set beside the containment table does not grow with the graph
CHUNK_IDS = 1 << 15


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


def _chunks(count: int):
    """(lo, hi) of the id ranges of count vertices, CHUNK_IDS ids each but
    the last."""
    for lo in range(0, count, CHUNK_IDS):
        yield lo, min(lo + CHUNK_IDS, count)


@dataclass
class DistancePartition:
    """Distance cells of a code, with the layer counts of their search.

    cell_of[v] is the cell of vertex v, an int8 (the diameter
    min(k, n - k) is at most 126), and over[d][T] the number of cell-d
    vertices over the (k-1)-object T, at most containing_count, so int32;
    over[d] > 0 marks the objects the search stepped through from layer d.
    The cells and their sizes are computed from the labels when read.
    """

    spec: GraphSpec
    rho: int
    cell_of: np.ndarray  # (V,) int8 cell index per vertex
    over: np.ndarray  # (rho+1, S) int32 layer counts

    @property
    def cells(self) -> list:
        """rho+1 sorted id arrays, cell c the ids labelled c."""
        return [np.flatnonzero(self.cell_of == c) for c in range(self.rho + 1)]

    def sizes(self) -> tuple[int, ...]:
        sizes = np.zeros(self.rho + 1, dtype=np.int64)
        for lo, hi in _chunks(len(self.cell_of)):
            sizes += np.bincount(self.cell_of[lo:hi], minlength=self.rho + 1)
        return tuple(int(x) for x in sizes)


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
    """The verdict on a distance partition.  No per-vertex count is kept:
    counts[v, c] is computed from the partition's labels through
    cell_neighbor_counts on first read."""

    ok: bool
    partition: DistancePartition
    numbers: Optional[IntersectionNumbers]
    counterexample: Optional[Counterexample]

    @cached_property
    def counts(self) -> np.ndarray:
        """(V, rho+1) per-cell neighbor counts, row v for vertex v."""
        part = self.partition
        return cell_neighbor_counts(part.spec, part.cell_of, part.rho + 1)


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
                 counts: np.ndarray) -> None:
    """Add to counts[T] how many of the given vertices lie over the
    (k-1)-object T.

    columns holds the slot rows of one chunk and vertices are positions in
    it.  The slot rows are gathered step at a time, as many as keep the
    gathered ids within the length of one chunk row, and few vertices take
    few gathers.  np.add.at costs a few ns per id and makes no array of
    len(counts), which a bincount per chunk would."""
    if len(vertices) == 0:
        return
    step = max(1, columns.shape[1] // len(vertices))
    for lo in range(0, len(columns), step):
        np.add.at(counts, columns[lo:lo + step].take(vertices, axis=1), 1)


def distance_partition(spec: GraphSpec, code) -> DistancePartition:
    """Breadth-first distance cells from the code; rho = #layers - 1.

    The search reads ContainmentTable.positions chunk by chunk, one slot
    row at a time.  over[d][T] counts the cell-d vertices over the
    (k-1)-object T.  Layer d is counted from whichever side is smaller: its
    own vertices, or the vertices not yet reached, since each of T's
    containing_count vertices lies in a cell up to d or is not yet
    reached.  The next layer is the set of unreached vertices over some T
    with over[d][T] > 0; each chunk finds its own unreached ids among its
    labels and marks those it reaches, so only the labels span all
    vertices.  The counts are kept: check_completely_regular sums them into
    every vertex's per-cell neighbor counts.
    """
    ids = _code_ids(spec, code)
    if len(ids) == 0:
        raise VerificationError("code is empty")
    assert min(spec.k, spec.n - spec.k) <= 126, "cell labels are int8"
    table = containment_table(spec, spec.k - 1)
    S, m, V = table.sub_count, table.containing_count, spec.vertex_count
    cell_of = np.full(V, -1, dtype=np.int8)
    cell_of[ids] = 0
    over = []
    size, left = len(ids), V - len(ids)  # layer d's vertices, the unreached
    while True:
        d = len(over)
        side = d if size <= left else -1
        layer = np.zeros(S, dtype=np.int64)
        for lo, hi in _chunks(V):
            _star_counts(table.positions[:, lo:hi],
                         np.flatnonzero(cell_of[lo:hi] == side), layer)
        if side < 0:  # the rest of each star lies in the cells up to d
            np.subtract(m, layer, out=layer)
            for row in over:
                layer -= row
        over.append(layer.astype(np.int32))
        if left == 0:
            break
        mark = layer > 0
        size = 0
        for lo, hi in _chunks(V):
            labels = cell_of[lo:hi]
            unreached = np.flatnonzero(labels == -1)
            reached = np.zeros(len(unreached), dtype=bool)
            for col in table.positions[:, lo:hi]:
                reached |= mark.take(col.take(unreached))
            labels[unreached[reached]] = d + 1
            size += int(np.count_nonzero(reached))
        if size == 0:
            raise VerificationError("some vertices are unreachable from the code")
        left -= size
    return DistancePartition(spec, rho=len(over) - 1, cell_of=cell_of,
                             over=np.array(over))


def _packed_layers(table, over: np.ndarray) -> tuple[list, list, int]:
    """The layer counts packed into uint64 fields, for _neighbor_words.

    Cell c is the w-bit field c % per of word c // per, with
    w = (s * containing_count).bit_length() and per = 64 // w.  Returns
    (packed, own, w), a packed and an own array per word: packed[T] holds
    over[c][T] in the field of each cell c of the word, for every
    (k-1)-object T, and own[c] holds s in the field of cell c.
    """
    s = table.per_vertex
    w = (s * table.containing_count).bit_length()
    per = 64 // w
    nc, S = over.shape
    packed, own = [], []
    for lo in range(0, nc, per):
        packed.append(np.zeros(S, dtype=np.uint64))
        own.append(np.zeros(nc, dtype=np.uint64))
        for c in range(lo, min(lo + per, nc)):
            shift = np.uint64(w * (c - lo))
            packed[-1] |= over[c].astype(np.uint64) << shift
            own[-1][c] = np.uint64(s) << shift
    return packed, own, w


def _neighbor_words(table, packed: list, own: list, vertices,
                    labels: np.ndarray) -> list:
    """The per-cell neighbor counts of some vertices, packed into uint64
    words; vertices is a chunk's slice or an id array, labels their cells.

    A word sums the packed layer counts (_packed_layers) over each vertex's
    s (k-1)-objects, one row of table.positions at a time, and takes s off
    the field of the vertex's own cell.  No field carries: its sum is at
    most s * containing_count < 2^w.  None borrows: a vertex lies in all s
    of its own stars, so its own field holds at least s.
    """
    columns = table.positions[:, vertices]
    words = []
    for fields, mine in zip(packed, own):
        rows = iter(columns)
        word = fields.take(next(rows))
        for row in rows:
            word += fields.take(row)
        word -= mine.take(labels)
        words.append(word)
    return words


def _unpack(words: list, w: int, n_cells: int) -> np.ndarray:
    """The (n_cells, len) int64 counts held in the words of _neighbor_words."""
    per = 64 // w
    mask = np.uint64((1 << w) - 1)
    counts = np.empty((n_cells, len(words[0])), dtype=np.int64)
    for c, row in enumerate(counts):
        row[:] = words[c // per] >> np.uint64(w * (c % per)) & mask
    return counts


def cell_neighbor_counts(spec: GraphSpec, cell_of: np.ndarray,
                         n_cells: int) -> np.ndarray:
    """counts[v, c] = number of neighbors of v lying in cell c, for every v.

    The cells may be any partition, not only a distance partition, with
    labels of any integer dtype: the members of each cell over each
    (k-1)-object are counted chunk by chunk, and those counts are summed
    into packed words as in check_completely_regular (_neighbor_words).
    The result is the (V, n_cells) view of an (n_cells, V) array.
    """
    table = containment_table(spec, spec.k - 1)
    V = spec.vertex_count
    if len(cell_of) != V or cell_of.min() < 0 or cell_of.max() >= n_cells:
        raise VerificationError(
            f"cell labels are not {V} values in 0..{n_cells - 1}")
    S = table.sub_count
    over = np.zeros(n_cells * S, dtype=np.int64)
    for lo, hi in _chunks(V):
        np.add.at(over, cell_of[lo:hi].astype(np.int64) * S
                  + table.positions[:, lo:hi], 1)
    packed, own, w = _packed_layers(table, over.reshape(n_cells, S))
    counts = np.empty((n_cells, V), dtype=np.int64)
    for lo, hi in _chunks(V):
        words = _neighbor_words(table, packed, own, slice(lo, hi),
                                cell_of[lo:hi])
        counts[:, lo:hi] = _unpack(words, w, n_cells)
    return counts.T


def _firsts(cell_of: np.ndarray, n_cells: int) -> np.ndarray:
    """The least id of each cell, read from the labels chunk by chunk."""
    firsts = np.full(n_cells, -1, dtype=np.int64)
    for lo, hi in _chunks(len(cell_of)):
        labels = cell_of[lo:hi]
        for c in np.flatnonzero(firsts < 0):
            hit = labels == c
            if hit.any():
                firsts[c] = lo + int(np.argmax(hit))
        if (firsts >= 0).all():
            break
    return firsts


def check_completely_regular(spec: GraphSpec, code) -> RegularityCheck:
    """Exhaustive equitability check of the distance partition.

    Every vertex's per-cell neighbor counts, packed from the partition's
    layer counts (_neighbor_words), are compared word by word against those
    of its cell's reference vertex, the one of least id, one chunk of ids
    at a time; the first chunk with a mismatch gives the violating vertex
    of least id, reported with expected and found counts.  Only those few
    vertices are unpacked, and each chunk's words are dropped once
    compared.
    """
    code = _as_code(spec, code)
    if len(code) == 0:
        raise VerificationError("code is empty")
    if len(code) == spec.vertex_count:
        raise VerificationError("code is the full vertex set")
    part = distance_partition(spec, code)
    nc = part.rho + 1
    table = containment_table(spec, spec.k - 1)
    packed, own, w = _packed_layers(table, part.over)
    ref_words = _neighbor_words(table, packed, own, _firsts(part.cell_of, nc),
                                np.arange(nc))
    refs = _unpack(ref_words, w, nc).T  # row c: cell c's reference counts
    result = RegularityCheck(ok=True, partition=part, numbers=None,
                             counterexample=None)
    for lo, hi in _chunks(spec.vertex_count):
        labels = part.cell_of[lo:hi]
        words = _neighbor_words(table, packed, own, slice(lo, hi), labels)
        mismatch = np.zeros(hi - lo, dtype=bool)
        for word, ref in zip(words, ref_words):
            mismatch |= word != ref.take(labels)
        if mismatch.any():
            at = int(np.argmax(mismatch))
            c = int(labels[at])
            found = _unpack([word[at:at + 1] for word in words], w, nc)[:, 0]
            result.ok = False
            result.counterexample = Counterexample(
                vertex=lo + at, cell=c,
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
        size, cover = ids.sizes()[0], ids.over[0]
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
            cover = np.zeros(table.sub_count, dtype=np.int64)
            for lo, hi in _chunks(spec.vertex_count):
                a, b = np.searchsorted(ids, (lo, hi))
                _star_counts(table.positions[:, lo:hi], ids[a:b] - lo, cover)
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
