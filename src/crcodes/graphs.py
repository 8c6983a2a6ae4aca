"""Johnson and Grassmann graph models.

J(n,k) has the k-subsets of {1..n} as vertices, adjacent when they share
k-1 elements; J_q(n,k) has the k-subspaces of GF(q)^n, adjacent when they
meet in a (k-1)-subspace.  Vertex ids follow the canonical enumeration
order of the subspaces module, so ids are stable across runs.

The eigenvalues come as the ladder

    theta_i = q^(i+1) * [n-k-i]_q * [k-i]_q - [i]_q      (i = 0..k)

with [m]_q = (q^m - 1)/(q - 1), degenerating to (k-i)(n-k-i) - i for the
Johnson case; theta_0 is the valency.

Adjacency is never stored for its own sake.  Every adjacency question goes
through the (k-1) containment table: each adjacent pair of k-objects
contains exactly one common (k-1)-object, so the star cliques (the vertices
over one fixed (k-1)-object, ContainmentTable.members) carry all edge
information.  Dense neighbor lists (adjacency_lists) are built from them
only for small graphs, as a reference for tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from . import subspaces as sp
from .galois import prime_factors
from .subspaces import Subset, Subspace, gaussian

Vertex = Union[Subspace, Subset]

EDGE_CACHE_MAX_VERTICES = 100_000


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
    """The i-th eigenvalue of the graph, exact; theta(0) is the valency."""
    if not 0 <= i <= spec.k:
        raise ValueError(f"eigenvalue index {i} out of range 0..{spec.k}")
    n, k, q = spec.n, spec.k, spec.q
    if q == 1:
        return (k - i) * (n - k - i) - i
    return q ** (i + 1) * _gq1(n - k - i, q) * _gq1(k - i, q) - _gq1(i, q)


def theta_ladder(spec: GraphSpec) -> list[int]:
    """All eigenvalues theta_0 > theta_1 > ... > theta_k."""
    vals = [theta(spec, i) for i in range(spec.k + 1)]
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1)), \
        f"eigenvalue ladder not strictly decreasing: {vals}"
    return vals


def eigenvalue_multiplicity(spec: GraphSpec, i: int) -> int:
    n, q = spec.n, spec.q
    return gaussian(n, i, q) - (gaussian(n, i - 1, q) if i > 0 else 0)


# ----------------------------------------------------------------------
# Vertex indexing
# ----------------------------------------------------------------------

class VertexIndex:
    """Bijection between [0, vertex_count) and canonical vertices.

    Ids follow the canonical enumeration order.  A packed uint64 key array
    provides fast id lookup whenever the vertex fits in one word (q = 2
    with n*k <= 64, or any Johnson graph with n <= 64); otherwise a dict
    keyed on the vertex object is used.
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.vertices: list[Vertex] = sp.enumerate_level(spec.n, spec.k, spec.q)
        self._keys: Optional[np.ndarray] = None
        self._sorted_keys: Optional[np.ndarray] = None
        self._sort_perm: Optional[np.ndarray] = None
        self._lookup: Optional[dict] = None
        self.rows: Optional[np.ndarray] = None  # (V, k) packed rows / members
        self._adjacency: Optional[np.ndarray] = None
        if spec.q == 2 and spec.n * spec.k <= 64:
            rows = np.zeros((len(self.vertices), spec.k), dtype=np.uint32)
            for i, v in enumerate(self.vertices):
                rows[i] = v.rows
            self.rows = rows
            self._keys = self._pack_keys(rows)
        elif spec.q == 1 and spec.n <= 64:
            rows = np.zeros((len(self.vertices), spec.k), dtype=np.uint32)
            for i, v in enumerate(self.vertices):
                rows[i] = v.members
            self.rows = rows
            self._keys = np.zeros(len(self.vertices), dtype=np.uint64)
            for i, v in enumerate(self.vertices):
                self._keys[i] = v.bitmask()
        if self._keys is not None:
            self._sort_perm = np.argsort(self._keys).astype(np.int64)
            self._sorted_keys = self._keys[self._sort_perm]
        else:
            self._lookup = {v: i for i, v in enumerate(self.vertices)}

    def _pack_keys(self, rows: np.ndarray) -> np.ndarray:
        n = self.spec.n
        keys = np.zeros(len(rows), dtype=np.uint64)
        for c in range(rows.shape[1]):
            keys = (keys << np.uint64(n)) | rows[:, c].astype(np.uint64)
        return keys

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, vid: int) -> Vertex:
        return self.vertices[vid]

    def key_of_vertex(self, v: Vertex) -> int:
        if self.spec.q == 1:
            return v.bitmask()
        key = 0
        for r in v.rows:
            key = (key << self.spec.n) | r
        return key

    def id_of(self, v: Vertex) -> int:
        if self._lookup is not None:
            return self._lookup[v]
        return int(self.ids_of_keys(np.array([self.key_of_vertex(v)],
                                             dtype=np.uint64))[0])

    def ids_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized key -> id; raises KeyError if any key is unknown."""
        pos = np.searchsorted(self._sorted_keys, keys)
        if (pos >= len(self._sorted_keys)).any() or \
                (self._sorted_keys[np.minimum(pos, len(self._sorted_keys) - 1)]
                 != keys).any():
            raise KeyError("key does not name a vertex of this graph")
        return self._sort_perm[pos]


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
    the j-level VertexIndex.  Vertices of the j-level are contained in
    cliques of constant size: every two k-objects over a common
    (k-1)-object are adjacent.
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
        iff they share a row, and then they share exactly one.
        """
        s = self.per_vertex
        order = np.argsort(self.ids.ravel(), kind="stable")
        return (order // s).reshape(len(self.sub_index), self.containing_count)


@lru_cache(maxsize=None)
def containment_table(spec: GraphSpec, j: int) -> ContainmentTable:
    """Build the k-level to j-level containment table, vectorized when possible."""
    if not 0 <= j <= spec.k:
        raise ValueError(f"sublevel {j} out of range 0..{spec.k}")
    idx = vertex_index(spec)
    sub = vertex_index(spec.level(j))
    V = len(idx)
    q, n, k = spec.q, spec.n, spec.k
    if q == 1 and idx.rows is not None:
        pats = list(itertools.combinations(range(k), j))
        ids = np.zeros((V, len(pats)), dtype=np.int64)
        for t, cols in enumerate(pats):
            keys = np.zeros(V, dtype=np.uint64)
            for c in cols:
                keys |= np.uint64(1) << (idx.rows[:, c].astype(np.uint64) - np.uint64(1))
            ids[:, t] = sub.ids_of_keys(keys)
        return ContainmentTable(spec, j, sub, ids)
    if q == 2 and idx.rows is not None and sub._sorted_keys is not None:
        pats = sp.subobject_patterns(k, j, 2)
        ids = np.zeros((V, len(pats)), dtype=np.int64)
        for t, pat in enumerate(pats):
            keys = np.zeros(V, dtype=np.uint64)
            for prow in pat:
                acc = np.zeros(V, dtype=np.uint64)
                for col, c in enumerate(prow):
                    if c:
                        acc ^= idx.rows[:, col].astype(np.uint64)
                keys = (keys << np.uint64(n)) | acc
            ids[:, t] = sub.ids_of_keys(keys)
        return ContainmentTable(spec, j, sub, ids)
    # general path (small graphs over q > 2)
    pats = sp.subobject_patterns(k, j, q) if q > 1 else None
    ids = np.zeros((V, gaussian(k, j, q)), dtype=np.int64)
    for i, v in enumerate(idx.vertices):
        subs = sp.subspaces_of(v, j) if q > 1 else sp.subsets_of(v, j)
        for t, s in enumerate(subs):
            ids[i, t] = sub.id_of(s)
    return ContainmentTable(spec, j, sub, ids)


# ----------------------------------------------------------------------
# Adjacency
# ----------------------------------------------------------------------

def adjacency_check(u: Vertex, w: Vertex) -> bool:
    """True iff u and w are adjacent (meet in a (k-1)-object)."""
    if isinstance(u, Subset):
        return u.k == w.k and sp.subset_meet(u, w) == u.k - 1
    return u.k == w.k and sp.intersection_dim(u, w) == u.k - 1


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
