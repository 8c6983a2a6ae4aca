"""Group actions on graph vertices, orbits, and orbit quotient matrices.

A group is given by generator permutations of the points: the [n]_q
points of a Grassmann graph or the n points of a Johnson graph, by their
ids in the level-1 vertex index.  A vertex is the set of its points, its
row of the level-1 containment table, held as a bit set of point ids
(ceil(points / 64) uint64 words, built one table column at a time), so
GroupAction reads each generator's vertex permutation off that table:
vertex u goes to the vertex whose point set equals the set of u's moved
points, matched by sorting the sets.  That one match is the exhaustive
automorphism check.  It fails unless the points of every
vertex go to the points of a vertex, and a point bijection that passes
keeps the sizes of intersections, so it keeps adjacency (two vertices
share exactly [k-1]_q points).  Every permutation of the n points of
J(n, k) passes; a star<->top duality of an n = 2k graph moves no points
and cannot be given.  join_actions is one GroupAction over the
concatenated point generators; the match is memoized on the point
permutation, so a join checks no generator again.

Orbits are numbered by the least lexicographic key of their members
(subspaces.enumerate_level), not by their least vertex id.  The exact
solver branches on orbits in that numbering, so it shapes every search
tree.  Numbered by least id instead, criterion 8 of the acceptance tests
takes about 69 s of search instead of 28 on a 2-core VM: its gamma1 = 15
is no longer decided in pass 1, and milp runs on the 90-, 155- and
165-orbit rungs.

The orbits of an automorphism group induce an equitable partition, so
the orbit quotient matrix B (B_ij = neighbors of an O_i vertex inside O_j)
is counted from one representative per orbit.  An action that normalizes
a group permutes its orbits (orbit_permutation), which is the symmetry
bip.solve branches on.

The Singer-type action multiplies vectors of GF(q)^n, read as elements of
GF(q^n), by a fixed power of a primitive element a; the Frobenius action
raises them to a power q^j.  Both are GF(q)-linear, so each is a matrix
that permutes the [n]_q points: a is the companion matrix of the default
modulus (galois.py), and sigma: v -> v^q the matrix of x^i -> x^(iq).
_field_maps turns the two matrices into point maps once per graph, by one
matrix point map, and singer:e and frobenius:j are their powers a^e and
sigma^j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .galois import companion, default_modulus, matrix_power, prime_factors
from .graphs import GraphSpec, containment_table, vertex_index
from .subspaces import enumerate_level
from .verify import VerificationError

# Largest orbit count whose dense (r, r) int64 quotient matrix is built
# (about 1.2 GB); quotient_matrix refuses more before allocating.
QUOTIENT_MAX_ORBITS = 12_000

_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


@dataclass
class GroupAction:
    """Point permutations, and the vertex permutations (full id -> id
    arrays) they induce, which passed the match of the module docstring."""

    spec: GraphSpec
    point_generators: list
    description: str = ""
    generators: list = field(init=False, repr=False)

    def __post_init__(self):
        points = self.spec.level(1).vertex_count
        gens = []
        for p in self.point_generators:
            p = np.asarray(p, dtype=np.int64)
            if p.shape != (points,) or \
                    not np.array_equal(np.sort(p), np.arange(points)):
                raise VerificationError("generator is not a point permutation")
            gens.append(p)
        self.point_generators = gens
        self.generators = [_vertex_perm(self.spec, p.tobytes()) for p in gens]


def join_actions(actions: Sequence[GroupAction]) -> GroupAction:
    """The group generated by actions on one graph, named a+b+...: one
    GroupAction over their point generators."""
    spec = actions[0].spec
    if any(a.spec != spec for a in actions):
        raise VerificationError("actions on different graphs")
    return GroupAction(spec, [p for a in actions for p in a.point_generators],
                       "+".join(a.description for a in actions))


@lru_cache(maxsize=4)
def _points_of(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int32 point ids of each vertex, the ascending point sets of the
    vertices, and their order (sets = _point_sets(ids)[order]), computed
    once for every generator on spec."""
    ids = containment_table(spec, 1).ids
    sets = _point_sets(ids, spec.level(1).vertex_count)
    order = np.lexsort(sets.T[::-1])
    return ids, sets[order], order


def _point_sets(ids: np.ndarray, points: int,
                point_perm: Optional[np.ndarray] = None) -> np.ndarray:
    """(V, ceil(points / 64)) uint64 bit sets of the rows of ids, moved by
    point_perm if given: bit p % 64 of word p // 64 is set for point p.
    Built one column at a time; a column sets one bit in each row, so no
    word is written twice by one scatter."""
    V, words = len(ids), -(-points // 64)
    sets = np.zeros((V, words), dtype=np.uint64)
    flat, base = sets.ravel(), np.arange(V) * words
    for col in ids.T:
        p = col if point_perm is None else point_perm[col]
        flat[base + (p >> 6)] |= _BITS[p & 63]
    return sets


@lru_cache(maxsize=16)
def _vertex_perm(spec: GraphSpec, key: bytes) -> np.ndarray:
    """The vertex permutation p with points(p[u]) = point_perm(points(u)),
    point_perm the int64 array of bytes key; VerificationError unless every
    moved point set is the point set of a vertex.  Made once per point
    permutation: a join or a ladder rung reuses the read-only result of
    each part's."""
    point_perm = np.frombuffer(key, dtype=np.int64)
    ids, sets, order = _points_of(spec)
    image = _point_sets(ids, len(point_perm), point_perm)
    im = np.lexsort(image.T[::-1])
    if not np.array_equal(sets, image[im]):
        raise VerificationError("generator is not a graph automorphism")
    p = np.empty(len(ids), dtype=np.int64)
    p[im] = order
    p.flags.writeable = False
    return p


@lru_cache(maxsize=8)
def _field_maps(spec: GraphSpec) -> tuple[np.ndarray, ...]:
    """The point maps of a (v -> a*v, a the class of x modulo
    galois.default_modulus(q, n)) and sigma (v -> v^q): the matrices C_f
    and the one whose column i is C_f^(iq) e_0, the vector of x^(iq) =
    (x^i)^q.  Prime q only: then GF(q)^n is GF(q^n) in the basis
    1, x, ..., x^(n-1)."""
    if spec.family != "grassmann":
        raise VerificationError("field actions are defined on Grassmann graphs")
    q, n = spec.q, spec.n
    if prime_factors(q) != [q]:
        raise VerificationError(
            f"field actions implemented for prime q only, got q={q}")
    a = companion(q, default_modulus(q, n))
    aq = matrix_power(a, q, q)
    sigma = np.column_stack([matrix_power(aq, i, q)[:, 0] for i in range(n)])
    return _matrix_point_map(spec, a), _matrix_point_map(spec, sigma)


def _matrix_point_map(spec: GraphSpec, matrix: np.ndarray) -> np.ndarray:
    """The point map <v> -> <M v> of an invertible (n, n) matrix over a
    prime q: the level-1 rows are unpacked to digits and moved, each image
    is scaled by the inverse of its leading (first nonzero) digit, as RREF
    does, then packed and looked up."""
    q, n = spec.q, spec.n
    points = vertex_index(spec.level(1))
    weights = np.uint64(q) ** np.arange(n, dtype=np.uint64)
    digits = (points.rows // weights % np.uint64(q)).astype(np.int64)
    image = digits @ matrix.T % q
    lead = image[np.arange(len(image)), (image != 0).argmax(axis=1)]
    inverse = np.array([0] + [pow(c, -1, q) for c in range(1, q)])
    image = (image * inverse[lead, None] % q).astype(np.uint64)
    return points.ids_of_rows((image * weights).sum(axis=1)[:, None])


def _power(perm: np.ndarray, e: int) -> np.ndarray:
    """perm applied e >= 0 times, by repeated squaring (a new array)."""
    out, base = np.arange(len(perm)), perm
    while e:
        if e & 1:
            out = base[out]
        base = base[base]
        e >>= 1
    return out


def singer_action(spec: GraphSpec, exponent: int) -> GroupAction:
    """Multiplication of GF(q)^n by a^exponent, a primitive in GF(q^n):
    the exponent-th power of a's point map (a^(q^n-1) = 1)."""
    a, _ = _field_maps(spec)
    perm = _power(a, exponent % (spec.q ** spec.n - 1))
    return GroupAction(spec, [perm], description=f"singer:{exponent}")


def frobenius_action(spec: GraphSpec, power: int = 1) -> GroupAction:
    """The field power map v -> v^(q^power) on GF(q^n), GF(q)-linear: the
    power-th power of sigma's point map (sigma^n = 1)."""
    _, sigma = _field_maps(spec)
    perm = _power(sigma, power % spec.n)
    return GroupAction(spec, [perm], description=f"frobenius:{power}")


@dataclass
class OrbitSystem:
    """Orbits of a GroupAction, numbered by ascending least lexicographic
    key (orbit_system)."""

    spec: GraphSpec
    orbit_of: np.ndarray          # (V,) orbit id per vertex
    orbits: list                  # list of sorted id arrays
    description: str = ""

    @property
    def count(self) -> int:
        return len(self.orbits)

    def sizes(self) -> np.ndarray:
        return np.array([len(o) for o in self.orbits], dtype=np.int64)

    @cached_property
    def representatives(self) -> np.ndarray:
        """The least vertex id of each orbit, orbits[i][0]: where orbit id
        i first occurs in orbit_of.  Read-only; made once per system."""
        reps = np.unique(self.orbit_of, return_index=True)[1]
        reps.flags.writeable = False
        return reps


@lru_cache(maxsize=4)
def _lex_order(spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lex, rank): lex[r] is the vertex of lexicographic rank r, and
    rank[v] the rank of vertex v, from the keys of
    subspaces.enumerate_level.  Read-only, as the cache hands them out."""
    key = enumerate_level(spec.n, spec.k, spec.q)[1]
    lex = np.argsort(key)
    rank = np.empty_like(lex)
    rank[lex] = np.arange(len(lex))
    lex.flags.writeable = rank.flags.writeable = False
    return lex, rank


def orbit_system(action: GroupAction) -> OrbitSystem:
    """Orbits as the classes of their least lexicographic rank, in array
    passes.

    The generators are carried to ranks, g' = rank[g[lex]] (_lex_order),
    and label[x] is always a rank of x's orbit with label[x] <= x.  For
    each generator g', label = min(label, label[g']) with g' squared each
    step makes label the minimum over g''s cycles; label = label[label]
    jumps to the smaller labels other generators found.  When a pass over
    every generator changes nothing, label is constant on each orbit, so
    it is the orbit's least rank, and orbit ids follow ascending least
    ranks (the module docstring says why).  The orbits are then read back
    on vertex ids.
    """
    lex, rank = _lex_order(action.spec)
    label = np.arange(len(lex), dtype=np.int64)
    changed = True
    while changed:
        before = label
        for g in action.generators:
            step = rank[g[lex]]
            while True:
                new = np.minimum(label, label[step])
                if np.array_equal(new, label):
                    break
                label = new[new]
                step = step[step]
        changed = not np.array_equal(label, before)
    _, orbit_of = np.unique(label[rank], return_inverse=True)
    orbit_of = orbit_of.astype(np.int64, copy=False)
    order = np.argsort(orbit_of, kind="stable")
    bounds = np.cumsum(np.bincount(orbit_of))[:-1]
    return OrbitSystem(action.spec, orbit_of, np.split(order, bounds),
                       description=action.description)


def orbit_permutation(osys: OrbitSystem,
                      action: GroupAction) -> Optional[np.ndarray]:
    """The permutation pi of osys's orbits that action's generator induces.

    action is one field action (one generator g), which maps orbit i onto
    orbit pi[i] exactly when g normalizes the group of osys.  The check is
    exhaustive: every vertex v must have orbit_of[g[v]] == pi[orbit_of[v]],
    and None is returned when one does not.  g is a bijection, so a pi that
    passes is a permutation and keeps orbit sizes.
    """
    (g,) = action.generators
    image = osys.orbit_of[g]
    pi = image[osys.representatives]
    if not np.array_equal(image, pi[osys.orbit_of]):
        return None
    return pi


def quotient_matrix(spec: GraphSpec, osys: OrbitSystem) -> np.ndarray:
    """Orbit quotient matrix, counted from each orbit's representative.

    A representative's neighbors are the other members of its s stars, so
    its row is the orbit-label count over those stars, less s on its own
    orbit.  All rows are counted by one bincount, representative i's
    labels offset by i * r into r * r bins.  Generators are verified
    automorphisms, so every member of an orbit has the same row; valency
    row sums and edge-count symmetry are still checked.
    """
    r = osys.count
    if r > QUOTIENT_MAX_ORBITS:
        raise ValueError(
            f"{osys.description or 'this group'} has {r} orbits on {spec}; a "
            f"dense quotient matrix is built for at most {QUOTIENT_MAX_ORBITS}")
    table = containment_table(spec, spec.k - 1)
    stars = table.members
    s = table.per_vertex
    labels = osys.orbit_of[stars[table.ids[osys.representatives]]]
    labels = labels.reshape(r, -1) + (np.arange(r) * r)[:, None]
    B = np.bincount(labels.ravel(), minlength=r * r).reshape(r, r)
    B.ravel()[::r + 1] -= s     # representative i is in orbit i
    m = spec.valency
    if not (B.sum(axis=1) == m).all():
        raise VerificationError("quotient matrix row sums differ from valency")
    sizes = osys.sizes()
    if not np.array_equal(B * sizes[:, None], (B * sizes[:, None]).T):
        raise VerificationError("quotient matrix violates edge-count symmetry")
    return B
