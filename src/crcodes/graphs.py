"""Johnson and Grassmann graph models.

J(n,k) has the k-subsets of {1..n} as vertices, adjacent when they share
k-1 elements; J_q(n,k) has the k-subspaces of GF(q)^n, adjacent when they
meet in a (k-1)-subspace.  A graph's vertices are held as one (V, k)
uint64 array of packed rows (subspaces.enumerate_rows): vertex id i is
row i, so ids follow the canonical order and are stable across runs.
Subspace and Subset objects are built one at a time, only when asked for.
A vertex is found from its packed uint64 key: a subset key is its colex
rank, and a subspace key goes through a multiplicative-hash bucket index
of 16 to 20 bytes per vertex (VertexIndex), where a binary search over
sorted keys of 16 bytes per vertex used to be.

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
q, comes from one vectorized pattern loop that packs each subobject slot
of every vertex straight into lookup keys; a table is stored as one
contiguous (s, V) int32 array, one subobject slot per row, and read as its
(V, s) transpose, so a pass over all vertices reads one slot at a time.
The level-1 table (a subspace is the set of its points) is also where
orbits.py checks group actions and constructions.py finds spread blocks.
GF(q) arithmetic comes from galois.field_tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
    vertex i.  Each row packs into one uint64 key (subspace rows as the
    digits of radix q^n, subsets by colex rank), and every vertex -> id
    question is answered by ids_of_keys.  A colex rank below V is itself
    the lookup position.  Subspace keys go through a hash index built once:
    the bucket of a key is its top b bits after a multiply by 2^64 / phi,
    with 2^b between V and 2V, and the keys and ids are held in bucket
    order behind int32 bucket starts: 8 + 4 bytes per vertex plus 4 per
    bucket (16 to 20 bytes per vertex), against 16 for the sorted keys and
    argsort order it replaces.  ids_of_rows packs rows and looks their keys
    up; containment tables pack their keys themselves.  idx[vid] builds the
    one Subspace or Subset asked for.
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.rows: np.ndarray = sp.enumerate_rows(spec.n, spec.k, spec.q)
        keys = self._pack(self.rows)
        if spec.q == 1:  # _order[rank] is the id of the subset of that rank
            self._order = np.empty(len(keys), dtype=np.intp)
            self._order[keys] = np.arange(len(keys))
        else:
            V = len(keys)
            bits = max(V - 1, 1).bit_length()  # 2^bits buckets, V to 2V
            self._shift = np.uint64(64 - bits)
            pairs = self._buckets(keys)
            # bucket h starts where bucket h - 1 ends; a start past the last
            # key is clipped to V - 1, so every probe position is an index
            ends = np.bincount(pairs, minlength=1 << bits)
            self._width = int(ends.max())
            np.cumsum(ends, out=ends)
            np.minimum(ends, V - 1, out=ends)
            self._starts = np.zeros(1 << bits, dtype=np.int32)
            self._starts[1:] = ends[:-1]
            # ids in bucket order: one sort of the (bucket, id) pairs, each
            # packed in a uint64, is cheaper than an argsort
            pairs <<= np.uint64(32)
            pairs |= np.arange(V, dtype=np.uint64)
            pairs.sort()
            pairs &= np.uint64(0xFFFFFFFF)
            self._order = pairs.astype(np.int32)
            self._keys = keys[self._order]
        self._adjacency: Optional[np.ndarray] = None

    def _buckets(self, keys: np.ndarray) -> np.ndarray:
        """The top bits of key * 2^64 / phi: a Fibonacci hash."""
        h = keys * np.uint64(0x9E3779B97F4A7C15)
        h >>= self._shift
        return h

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """One key per row; injective on the rows of vertices only."""
        n, k, q = self.spec.n, self.spec.k, self.spec.q
        keys = np.zeros(len(rows), dtype=np.uint64)
        if q == 1:
            # colex rank; members above n are clipped, and their rows fail
            # the equality check of ids_of_rows
            table = _colex_table(n, k)
            for c in range(k):
                keys += table[c][np.minimum(rows[:, c], np.uint64(n))]
            return keys
        radix = np.uint64(q ** n)
        for c in range(k):
            keys = keys * radix + rows[:, c]
        return keys

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, vid: int) -> Vertex:
        row = tuple(self.rows[vid].tolist())
        if self.spec.q == 1:
            return Subset(self.spec.n, row)
        return Subspace(self.spec.n, self.spec.q, row)

    def ids_of_keys(self, keys) -> np.ndarray:
        """Ids of the vertices with these packed keys; KeyError if a key
        names no vertex.  Any integer array or list is taken as uint64.

        A subspace key is compared with the stored keys at probes 0, 1, ...
        from its bucket start, each probe on the keys still unmatched, for
        at most the widest bucket; a stored key equal to the key asked for
        is that vertex wherever it stands, so the comparison is the whole
        check.  Every colex rank below V names a subset.
        """
        # an int64 array times a uint64 scalar would be float64
        keys = np.asarray(keys).astype(np.uint64, copy=False)
        if self.spec.q == 1:
            if len(keys) and keys.max() >= len(self._order):
                raise KeyError(f"a key does not name a vertex of {self.spec}")
            return self._order[keys]
        last = len(self._keys) - 1
        pos = self._starts[self._buckets(keys)]
        miss = np.flatnonzero(self._keys[pos] != keys)
        at, want = pos[miss], keys[miss]
        for _ in range(1, self._width):
            if not len(miss):
                break
            at += 1
            np.minimum(at, last, out=at)
            hit = self._keys[at] == want
            pos[miss[hit]] = at[hit]
            miss, at, want = miss[~hit], at[~hit], want[~hit]
        if len(miss):
            raise KeyError(f"a key does not name a vertex of {self.spec}")
        return self._order[pos].astype(np.intp)

    def ids_of_rows(self, rows) -> np.ndarray:
        """Ids of an (m, k) array of rows; KeyError if any row is no vertex.

        A row that is not canonical (a subspace row wider than n digits,
        members out of order) can pack to the key of another vertex, so the
        rows found are compared with the rows asked for.
        """
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.ndim != 2 or rows.shape[1] != self.spec.k:
            raise KeyError(f"rows of shape {rows.shape} are not {self.spec.k}-rows")
        ids = self.ids_of_keys(self._pack(rows))
        if not np.array_equal(np.take(self.rows, ids, axis=0), rows):
            raise KeyError(f"a row does not name a vertex of {self.spec}")
        return ids


def _colex_table(n: int, k: int) -> np.ndarray:
    """T[c, m] = C(m - 1, c + 1) where member m can stand at place c, else 0.

    Row c sums to at most C(n - k + c, c + 1), so every key is below C(n, k).
    """
    return np.array([[math.comb(m - 1, c + 1) if c < m <= n - k + c + 1 else 0
                      for m in range(n + 1)] for c in range(k)],
                    dtype=np.uint64).reshape(k, n + 1)


@lru_cache(maxsize=None)
def vertex_index(spec: GraphSpec) -> VertexIndex:
    return VertexIndex(spec)


# ----------------------------------------------------------------------
# Containment tables between levels
# ----------------------------------------------------------------------

@dataclass
class ContainmentTable:
    """For each vertex of the k-level, the ids of its j-subobjects.

    ids has shape (vertex_count, s) where s = [k choose j]_q; sub_index is
    the j-level VertexIndex.  ids is the transposed view of one C-contiguous
    (s, vertex_count) int32 array, so each column ids[:, t] (subobject slot
    t of every vertex) is contiguous, and the passes of verify.py read one
    column at a time.  Vertices of the j-level are contained in cliques of
    constant size: every two k-objects over a common (k-1)-object are
    adjacent.
    """

    spec: GraphSpec
    j: int
    sub_index: VertexIndex
    ids: np.ndarray

    @property
    def per_vertex(self) -> int:
        return self.ids.shape[1]

    @property
    def containing_count(self) -> int:
        """Number of k-objects containing a fixed j-object."""
        n, k, j, q = self.spec.n, self.spec.k, self.j, self.spec.q
        return gaussian(n - j, k - j, q)

    @cached_property
    def members(self) -> np.ndarray:
        """(j-level count, containing_count) ascending ids over each j-object.

        For j = k-1 the rows are the star cliques: two vertices are adjacent
        iff they share a row, and then they share exactly one.  The stable
        sort runs over ids in vertex-major order, so each row ascends.
        """
        s = self.per_vertex
        order = np.argsort(self.ids.ravel(), kind="stable")
        return (order // s).reshape(len(self.sub_index), self.containing_count)


@lru_cache(maxsize=None)
def containment_table(spec: GraphSpec, j: int) -> ContainmentTable:
    """Build the k-level to j-level containment table.

    A j-subobject of every vertex at once is a pattern of j rows over the
    vertex's k rows: the j-subspaces of a subspace are K*B over the RREF
    j-by-k patterns K (subspaces.subobject_patterns), and a j-subset picks
    j member columns, a pattern of unit rows.  One loop over the patterns
    serves every q, and each pattern row goes straight into the packed key
    of the subobject (the key of VertexIndex._pack): a subset member adds
    its colex term; a subspace row is the XOR of its columns when q <= 2 or
    j in {0, k} (unit pattern rows), otherwise it is combined from base-q
    digits through the uint8 tables of galois.field_tables, used for
    q <= FIELD_TABLE_MAX_Q only (ValueError above it), and enters the key
    times the radix q^n.

    Each slot's keys are looked up at once by VertexIndex.ids_of_keys; in
    the hash index of subspaces a key is found only where it equals a
    stored key.  For subspaces that is the whole row check: every combined
    row is below q^n, and radix packing is injective on such rows.  Subset
    slots also compare the rows found with the members picked.  Slot t
    fills row t of one C-contiguous (s, V) int32 array, whose transpose is
    ContainmentTable.ids.
    """
    if not 0 <= j <= spec.k:
        raise ValueError(f"sublevel {j} out of range 0..{spec.k}")
    q, n, k = spec.q, spec.n, spec.k
    xor = q <= 2 or j in (0, k)
    if not xor and q > FIELD_TABLE_MAX_Q:
        raise ValueError(
            f"the level-{j} table of {spec} combines rows over GF({q}); "
            f"GF(q) tables are built for q <= {FIELD_TABLE_MAX_Q} only")
    idx = vertex_index(spec)
    sub = vertex_index(spec.level(j))
    V = len(idx)
    if q == 1:
        unit = np.eye(k, dtype=int)
        pats = [unit[list(cols)] for cols in itertools.combinations(range(k), j)]
        members = np.ascontiguousarray(idx.rows.T, dtype=np.min_scalar_type(n))
        colex = _colex_table(n, j)
    else:
        pats = sp.subobject_patterns(k, j, q)
        columns = np.ascontiguousarray(idx.rows.T)
        radix = np.uint64(q ** n)
    if not xor:
        add, mul = field_tables(q)
        weights = np.uint64(q) ** np.arange(n, dtype=np.uint64)
        # (k, V, n) base-q digits of the packed rows
        digits = (columns[:, :, None] // weights % np.uint64(q)).astype(np.uint8)
    ids = np.empty((len(pats), V), dtype=np.int32)
    for t, pat in enumerate(pats):
        keys = np.zeros(V, dtype=np.uint64)
        picked = []
        for r, prow in enumerate(pat):
            # a pattern row is never zero
            (col0, c0), *rest = [(col, c) for col, c in enumerate(prow) if c]
            picked.append(col0)
            if q == 1:
                keys += colex[r][members[col0]]
                continue
            if xor:
                row = columns[col0].copy()
                for col, _ in rest:
                    row ^= columns[col]
            else:
                acc = mul[c0][digits[col0]]
                for col, c in rest:
                    acc = add[acc, mul[c][digits[col]]]
                row = acc @ weights
            keys *= radix
            keys += row
        ids[t] = sub.ids_of_keys(keys)
        if q == 1 and not np.array_equal(np.take(sub.rows, ids[t], axis=0),
                                         idx.rows[:, picked]):
            raise KeyError(f"a subset of {spec} is no vertex of {sub.spec}")
    return ContainmentTable(spec, j, sub, ids.T)


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
