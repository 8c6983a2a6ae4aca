"""Johnson and Grassmann graph models.

J(n,k) has the k-subsets of {1..n} as vertices, adjacent when they share
k-1 elements; J_q(n,k) has the k-subspaces of GF(q)^n, adjacent when they
meet in a (k-1)-subspace.  A graph's vertices are held as one (V, k)
uint64 array of packed rows (subspaces.enumerate_rows): vertex id i is
row i, and ids follow the q-Pascal recursion order of subspaces.py (colex
order for subsets), so they are stable across runs.  Subspace and Subset
objects are built one at a time, only when asked for.  A vertex given from
outside (a code file, a group's image, a construction) is found by
arithmetic: positions_of_rows gives its place in the recursion order,
which is its id, and the row stored there is compared with the row given.

The eigenvalues come as the ladder

    theta_i = q^(i+1) * [n-k-i]_q * [k-i]_q - [i]_q      (i = 0..k)

with [m]_q = (q^m - 1)/(q - 1), degenerating to (k-i)(n-k-i) - i for the
Johnson case; theta_0 is the valency.

Adjacency is never stored for its own sake.  Every adjacency question goes
through the (k-1) containment table: each adjacent pair of k-objects
contains exactly one common (k-1)-object, so the star cliques (the vertices
over one fixed (k-1)-object, ContainmentTable.members) carry all edge
information.  Dense neighbor lists (adjacency_lists) are built from them
only for small graphs, as a reference for tests.  Every table, for every
q, comes from the q-Pascal recursion of subspaces.py on the last
coordinate: a subobject's id is a sum of offsets and of entries of the
tables one coordinate down, so no key is packed and no vertex is looked
up.  A table is stored as one contiguous (s, V) int32 array of ids, one
subobject slot per row, so a pass over all vertices reads one slot at a
time; ContainmentTable.ids is its (V, s) transpose, a view.
The level-1 table (a subspace is the set of its points) is also where
orbits.py checks group actions and constructions.py finds spread blocks.
GF(q) arithmetic comes from galois.field_tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Optional, Union

import numpy as np

from . import subspaces as sp
from .galois import field_tables, prime_factors
from .subspaces import Subset, Subspace, gaussian

Vertex = Union[Subspace, Subset]

EDGE_CACHE_MAX_VERTICES = 100_000

# Largest q whose (q, q) GF(q) tables containment_table builds; every
# balanced graph with k >= 2 has q <= 256 (q^(n*k) <= 2^64 with n >= 4)
FIELD_TABLE_MAX_Q = 256


@dataclass(frozen=True)
class GraphSpec:
    """A Johnson (q = 1) or Grassmann graph, k <= n/2 unless overridden."""

    family: str
    q: int
    n: int
    k: int
    allow_unbalanced: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.family not in ("johnson", "grassmann"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "johnson" and self.q != 1:
            raise ValueError("Johnson graphs have q = 1")
        if self.family == "grassmann":
            if self.q < 2 or len(prime_factors(self.q)) != 1:
                raise ValueError(f"q = {self.q} is not a prime power")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")
        if 2 * self.k > self.n and not self.allow_unbalanced:
            raise ValueError(
                f"k = {self.k} exceeds n/2 = {self.n / 2}; "
                "pass allow_unbalanced=True to override")

    @property
    def vertex_count(self) -> int:
        return gaussian(self.n, self.k, self.q)

    @property
    def valency(self) -> int:
        return theta(self, 0)

    def level(self, j: int) -> "GraphSpec":
        """The same family at dimension j (used for containment tables)."""
        return GraphSpec(self.family, self.q, self.n, j, allow_unbalanced=True)

    def __str__(self) -> str:
        if self.family == "johnson":
            return f"j:{self.n},{self.k}"
        return f"jq:{self.q},{self.n},{self.k}"


def parse_graph_spec(text: str, allow_unbalanced: bool = False) -> GraphSpec:
    """Parse 'j:<n>,<k>' or 'jq:<q>,<n>,<k>'."""
    try:
        head, rest = text.split(":", 1)
        parts = [int(t) for t in rest.split(",")]
        if head == "j" and len(parts) == 2:
            return GraphSpec("johnson", 1, parts[0], parts[1],
                             allow_unbalanced=allow_unbalanced)
        if head == "jq" and len(parts) == 3:
            return GraphSpec("grassmann", parts[0], parts[1], parts[2],
                             allow_unbalanced=allow_unbalanced)
    except ValueError as exc:
        raise ValueError(f"bad graph spec {text!r}: {exc}") from None
    raise ValueError(f"bad graph spec {text!r}")


def _gq1(m: int, q: int) -> int:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    return m if q == 1 else (q ** m - 1) // (q - 1)


def theta(spec: GraphSpec, i: int) -> int:
    """The i-th eigenvalue of the graph, exact; theta(0) is the valency.

    J_q(n, k) is J_q(n, n-k), so the formulas run on min(k, n-k).
    """
    n, q = spec.n, spec.q
    k = min(spec.k, n - spec.k)
    if not 0 <= i <= k:
        raise ValueError(f"eigenvalue index {i} out of range 0..{k}")
    if q == 1:
        return (k - i) * (n - k - i) - i
    return q ** (i + 1) * _gq1(n - k - i, q) * _gq1(k - i, q) - _gq1(i, q)


def theta_ladder(spec: GraphSpec) -> list[int]:
    """All eigenvalues theta_0 > theta_1 > ... > theta_k."""
    vals = [theta(spec, i) for i in range(min(spec.k, spec.n - spec.k) + 1)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1)), \
        f"eigenvalue ladder not strictly decreasing: {vals}"
    return vals


# ----------------------------------------------------------------------
# Vertex indexing
# ----------------------------------------------------------------------

class VertexIndex:
    """Bijection between [0, vertex_count) and canonical vertices.

    rows is the (V, k) uint64 array of subspaces.enumerate_rows: row i is
    vertex i, in the recursion order.  Every vertex -> id question from
    outside the tables (files, orbits, constructions) is answered by
    ids_of_rows, by arithmetic.  idx[vid] builds the one Subspace or Subset
    asked for.
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.rows = sp.enumerate_rows(spec.n, spec.k, spec.q)
        self._adjacency: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, vid: int) -> Vertex:
        row = tuple(self.rows[vid].tolist())
        if self.spec.q == 1:
            return Subset(self.spec.n, row)
        return Subspace(self.spec.n, self.spec.q, row)

    def ids_of_rows(self, rows) -> np.ndarray:
        """Ids of an (m, k) array of rows; KeyError if any row is no vertex,
        with the index of the first such row as its second argument.

        The id of a row is its recursion position (positions_of_rows).  A
        row that is not canonical (a subspace row wider than n digits or
        out of RREF, members out of order) gets some position too, so the
        rows found are compared with the rows asked for: a row equal to the
        row of the vertex at its position is that vertex.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim != 2 or rows.shape[1] != self.spec.k:
            raise KeyError(f"rows of shape {rows.shape} are not {self.spec.k}-rows")
        ids = positions_of_rows(self.spec, rows).astype(np.intp, copy=False)
        np.clip(ids, 0, len(self) - 1, out=ids)
        found = np.take(self.rows, ids, axis=0)
        if not np.array_equal(found, rows):
            first = int(np.flatnonzero((found != rows).any(axis=1))[0])
            raise KeyError(f"row {first} does not name a vertex of {self.spec}",
                           first)
        return ids


def positions_of_rows(spec: GraphSpec, rows: np.ndarray) -> np.ndarray:
    """The int64 recursion position (subspaces.enumerate_level), which is
    the vertex id, of each row of an (m, k) uint64 array of vertex rows, by
    arithmetic.

    For subsets it is the colex rank.  For subspaces it is a sum over the n
    columns, the q-Pascal recursion unrolled: with kk the number of pivots
    in columns <= c and d_c = sum_r digit(r, c) q^r, column c adds
    d_c [c, kk]_q, or q d_c [c, kk]_q when it is a pivot column, which is
    when d_c >= q^(pivots before c).  Any other row gets some position,
    which ids_of_rows checks.
    """
    if spec.q == 1:
        table = _colex_table(spec.n, spec.k)
        at = np.zeros(len(rows), dtype=np.int64)
        for c in range(spec.k):
            at += table[c][np.minimum(rows[:, c], np.uint64(spec.n))]
        return at
    if spec.q == 2 and spec.n <= 8:
        return _byte_positions(spec.n, rows)
    return _digit_positions(spec.n, spec.q, rows)


def _colex_table(n: int, k: int) -> np.ndarray:
    """T[c, m] = C(m - 1, c + 1) where member m can stand at place c, else 0.

    Row c sums to at most C(n - k + c, c + 1), so every rank is below C(n, k).
    """
    return np.array([[math.comb(m - 1, c + 1) if c < m <= n - k + c + 1 else 0
                      for m in range(n + 1)] for c in range(k)],
                    dtype=np.int64).reshape(k, n + 1)


@lru_cache(maxsize=None)
def _column_weights(n: int, k: int, q: int) -> np.ndarray:
    """G[c, kk] = [c, kk]_q for columns c < n and kk <= k, padded with 0 to
    c < 8 and kk <= 8 for the byte table; read-only, as the cache hands it
    to every caller."""
    weights = np.array([[gaussian(c, kk, q) if c < n and kk <= k else 0
                         for kk in range(max(k, 8) + 1)]
                        for c in range(max(n, 8))], dtype=np.int64)
    weights.setflags(write=False)
    return weights


def _digit_positions(n: int, q: int, rows: np.ndarray) -> np.ndarray:
    """positions_of_rows one column at a time, for any q >= 2."""
    weights = _column_weights(n, rows.shape[1], q)
    powers = q ** np.arange(rows.shape[1] + 1, dtype=np.int64)
    at = np.zeros(len(rows), dtype=np.int64)
    kk = np.zeros(len(rows), dtype=np.intp)  # pivots in the columns so far
    rest = rows
    for c in range(n):
        rest, digits = np.divmod(rest, np.uint64(q))
        d = digits.astype(np.int64) @ powers[:-1]
        pivot = d >= powers[kk]
        kk += pivot
        at += d * np.where(pivot, q, 1) * weights[c, kk]
    return at


@lru_cache(maxsize=None)
def _byte_weights(n: int, k: int) -> np.ndarray:
    """The q = 2 weight table of a one-byte row, flattened from (pivots,
    row byte): entry [p, x] sums, over the columns c set in x, [c, kk]_2,
    twice that for a pivot column, kk being the pivots of p up to c.
    Read-only, as the cache hands it to every caller."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # (byte, bit)
    table = _column_weights(n, k, 2)[np.arange(8), np.cumsum(bits, axis=1)]
    table = (table * (1 + bits) @ bits.T).ravel()
    table.setflags(write=False)
    return table


def _byte_positions(n: int, rows: np.ndarray) -> np.ndarray:
    """positions_of_rows for q = 2 and n <= 8, where a row is one byte: row
    r adds 2^r times the entry of its byte under the pivots of all the rows
    (_byte_weights).  Bits above the byte are dropped, so such a row gets
    the position of the row without them."""
    planes = np.ascontiguousarray(rows.T, dtype=np.uint8)
    pivots = np.bitwise_or.reduce(planes & (0 - planes), axis=0)
    base = pivots.astype(np.intp) << 8
    table = _byte_weights(n, rows.shape[1])
    at = np.zeros(len(rows), dtype=np.int64)
    for r, plane in enumerate(planes):
        at += table[base + plane] << r
    return at


@lru_cache(maxsize=None)
def vertex_index(spec: GraphSpec) -> VertexIndex:
    return VertexIndex(spec)


# ----------------------------------------------------------------------
# Containment tables between levels
# ----------------------------------------------------------------------

@dataclass
class ContainmentTable:
    """For each vertex of the k-level, its j-subobjects.

    positions, the one array a build makes, is C-contiguous (s, V) int32
    with s = [k choose j]_q: positions[t, v] is the j-level id of the
    slot-t j-object of vertex v.  A pass over all vertices (verify.py's
    cells, neighbor counts and covers) reads it one slot row at a time.
    ids is its (V, s) transpose, a view: ids[v] lists the slots of vertex
    v, and each column ids[:, t] is contiguous.  sub_index is the j-level
    VertexIndex.  Vertices of the j-level are contained in cliques of
    constant size: every two k-objects over a common (k-1)-object are
    adjacent.
    """

    spec: GraphSpec
    j: int
    positions: np.ndarray

    @property
    def per_vertex(self) -> int:
        return len(self.positions)

    @property
    def ids(self) -> np.ndarray:
        """(V, s) j-level ids of each vertex's slots, positions.T."""
        return self.positions.T

    @property
    def sub_count(self) -> int:
        """Number of j-objects."""
        return gaussian(self.spec.n, self.j, self.spec.q)

    @property
    def containing_count(self) -> int:
        """Number of k-objects containing a fixed j-object."""
        n, k, j, q = self.spec.n, self.spec.k, self.j, self.spec.q
        return gaussian(n - j, k - j, q)

    @cached_property
    def sub_index(self) -> VertexIndex:
        return vertex_index(self.spec.level(self.j))

    @cached_property
    def members(self) -> np.ndarray:
        """(j-level count, containing_count) ascending ids over each j-object.

        For j = k-1 the rows are the star cliques: two vertices are adjacent
        iff they share a row, and then they share exactly one.  One stable
        argsort of positions groups the vertices over each j-object, in
        j-object order; each group is then sorted.
        """
        V = self.positions.shape[1]
        order = np.argsort(self.positions.ravel(), kind="stable")
        rows = (order % V).astype(np.int32).reshape(self.sub_count,
                                                    self.containing_count)
        rows.sort(axis=1)
        return rows


@lru_cache(maxsize=None)
def _pattern_steps(k: int, j: int, q: int):
    """How each j-by-k pattern K_t (subspaces.enumerate_rows(k, j, q), the
    slot order) splits off its last column: (kd, last, sub, c), 0 < j < k.

    kd[t, d] is the index sum_i e_i q^i of e = K_t d, for the digit vector
    d = sum_r d_r q^r of GF(q)^k, combined through galois.field_tables (one
    0 for subsets).  last[t] says the last column is a pivot: K_t's last
    row is e_{k-1} (for subsets, member k is picked).  Then sub[t] is the
    index of K_t less that row and column among the (j-1)-by-(k-1)
    patterns; otherwise sub[t] is the index of K_t less its last column
    among the j-by-(k-1) patterns, and c[t] = sum_i c_i q^i of that column.
    """
    pats = sp.enumerate_rows(k, j, q)
    unit = k if q == 1 else q ** (k - 1)  # the last unit row e_{k-1}
    last = pats[:, -1] == np.uint64(unit)
    lower = [{row: t for t, row in enumerate(map(tuple, sp.enumerate_rows(
        k - 1, i, q).tolist()))} for i in (j - 1, j)]
    sub = [lower[0][row[:-1]] if is_last else
           lower[1][tuple(r % unit for r in row)]
           for row, is_last in zip(map(tuple, pats.tolist()), last.tolist())]
    powers = q ** np.arange(max(j, k), dtype=np.int64)
    c = (pats // np.uint64(unit)).astype(np.int64) @ powers[:j]
    if q == 1:
        return np.zeros((len(pats), 1), np.int64), last, sub, c
    add, mul = field_tables(q)
    K = (pats[:, :, None] // powers[:k].astype(np.uint64)
         % np.uint64(q)).astype(np.intp)
    d = sp.digit_vectors(k, q).astype(np.intp)
    e = np.zeros((len(pats), len(d), j), dtype=add.dtype)
    for r in range(k):
        e = add[e, mul[K[:, None, :, r], d[None, :, r, None]]]
    return e.astype(np.int64) @ powers[:j], last, sub, c


def _slot_table(q: int, m: int, k: int, j: int, below) -> np.ndarray:
    """The level-m table from k to j: an (s, [m,k]_q) int32 array whose row
    t holds, for every k-object on the first m coordinates in the recursion
    order of subspaces.enumerate_level, the recursion position of its
    slot-t j-object.  below(k', j') is the table one coordinate down.

    A k-object of the A-block is (R | d), and K_t (R | d) = (K_t R | K_t d)
    is the A-block j-object (slot t of R, K_t d).  One of the B-block is R
    over e_{m-1}: when K_t's last column is a pivot, K_t takes slot K'' of
    R over e_{m-1}, a B-block j-object; otherwise it is (K_1 R | c), the
    A-block j-object (slot K_1 of R, c), where K'', K_1 and c are those of
    _pattern_steps.  Each row is a sum of offsets and lower rows.
    """
    count = gaussian(m, k, q)
    if j == k:
        return np.arange(count, dtype=np.int32)[None]
    if j == 0 or not count:
        return np.zeros((gaussian(k, j, q), count), dtype=np.int32)
    kd, last, sub, c = _pattern_steps(k, j, q)
    below_k, below_j = gaussian(m - 1, k, q), gaussian(m - 1, j, q)
    n_a = q ** k * below_k
    a = below(k, j)
    out = np.empty((len(kd), count), dtype=np.int32)
    for t, row in enumerate(out):
        np.add((kd[t] * below_j)[:, None], a[t],
               out=row[:n_a].reshape(len(kd[t]), below_k))
        if last[t]:
            np.add(below(k - 1, j - 1)[sub[t]], q ** j * below_j,
                   out=row[n_a:])
        else:
            np.add(below(k - 1, j)[sub[t]], int(c[t]) * below_j,
                   out=row[n_a:])
    return out


@lru_cache(maxsize=None)
def containment_table(spec: GraphSpec, j: int) -> ContainmentTable:
    """Build the k-level to j-level containment table.

    The j-subobjects of a vertex are its slots: the j-subspaces of a
    subspace B are K*B over the RREF j-by-k patterns K
    (subspaces.subobject_patterns), and the j-subsets of a subset pick j of
    its members, a pattern of unit rows.  No vertex is looked up and no
    VertexIndex is built: the table comes from the q-Pascal recursion on
    the last coordinate (_slot_table), which gives each slot's subobject
    of every vertex as an id by arithmetic on the tables one coordinate
    down.  Those lower tables live in a memo for this build only; the top
    one is ContainmentTable.positions.  K d combines digits through
    galois.field_tables, built for q <= FIELD_TABLE_MAX_Q only, so
    0 < j < k above it raises ValueError.
    """
    if not 0 <= j <= spec.k:
        raise ValueError(f"sublevel {j} out of range 0..{spec.k}")
    q, n, k = spec.q, spec.n, spec.k
    if 0 < j < k and q > FIELD_TABLE_MAX_Q:
        raise ValueError(
            f"the level-{j} table of {spec} combines rows over GF({q}); "
            f"GF(q) tables are built for q <= {FIELD_TABLE_MAX_Q} only")

    @lru_cache(maxsize=None)
    def table(m: int, kk: int, jj: int) -> np.ndarray:
        return _slot_table(q, m, kk, jj, partial(table, m - 1))

    positions = table(n, k, j)
    table.cache_clear()  # table refers to itself, so only gc would free it
    return ContainmentTable(spec, j, positions)


# ----------------------------------------------------------------------
# Adjacency
# ----------------------------------------------------------------------

def adjacency_lists(spec: GraphSpec) -> np.ndarray:
    """Cached (V, valency) sorted neighbor ids, for small graphs only.

    A dense reference for tests, built from the star cliques: every ordered
    pair inside a star is a directed edge, each exactly once.  Refuses
    graphs above EDGE_CACHE_MAX_VERTICES; neighbors() has no such limit.
    """
    idx = vertex_index(spec)
    if len(idx) > EDGE_CACHE_MAX_VERTICES:
        raise ValueError(
            f"adjacency for {spec} has {len(idx)} vertices, above the "
            f"cache threshold {EDGE_CACHE_MAX_VERTICES}; use neighbors")
    if idx._adjacency is not None:
        return idx._adjacency
    members = containment_table(spec, spec.k - 1).members
    S, clique = members.shape
    V, val = len(idx), spec.valency
    offdiag = ~np.eye(clique, dtype=bool)
    src = np.broadcast_to(members[:, :, None], (S, clique, clique))[:, offdiag].ravel()
    dst = np.broadcast_to(members[:, None, :], (S, clique, clique))[:, offdiag].ravel()
    assert src.size == V * val, "clique accounting does not match the valency"
    order = np.argsort(src, kind="stable")
    adj = dst[order].reshape(V, val).copy()
    adj.sort(axis=1)
    idx._adjacency = adj
    return adj


def neighbors(spec: GraphSpec, vid: int) -> np.ndarray:
    """Sorted neighbor ids of one vertex: the other members of its stars."""
    table = containment_table(spec, spec.k - 1)
    nb = table.members[table.ids[vid]].ravel()
    return np.sort(nb[nb != vid])
