"""Group actions on graph vertices, orbits, and orbit quotient matrices.

A group is given by explicit generator permutations of the vertex ids.
Every generator is checked exhaustively to be a graph automorphism before
it is accepted, at every graph size, through the star cliques of the
(k-1) containment table.  The orbits of an automorphism group induce an
equitable partition, so the orbit quotient matrix B (B_ij = neighbors of
an O_i vertex inside O_j) is counted from one representative per orbit.

The Singer-type action multiplies vectors of GF(q)^n, read as elements of
GF(q^n), by a fixed power of a primitive element; the Frobenius action
raises them to a power q^j.  A GF(q)-linear map permutes the [n]_q points,
and a k-subspace is the set of its points, so a field action moves the
points only and reads the vertex permutation off the level-1 containment
table, by the same sorted-row match that checks the star cliques.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import subspaces as sp
from .galois import is_prime, make_field
from .graphs import GraphSpec, containment_table, vertex_index
from .verify import VerificationError

# Largest orbit count whose dense (r, r) int64 quotient matrix is built
# (about 1.2 GB); quotient_matrix refuses more before allocating.
QUOTIENT_MAX_ORBITS = 12_000


@dataclass
class GroupAction:
    """Generator permutations (full id -> id arrays) on a graph's vertices."""

    spec: GraphSpec
    generators: list
    description: str = ""

    def __post_init__(self):
        V = self.spec.vertex_count
        gens = []
        for g in self.generators:
            g = np.asarray(g, dtype=np.int64)
            if g.shape != (V,) or len(np.unique(g)) != V:
                raise VerificationError("generator is not a vertex permutation")
            gens.append(g)
        self.generators = gens
        for g in gens:
            _check_automorphism(self.spec, g)


def _check_automorphism(spec: GraphSpec, perm: np.ndarray) -> None:
    """Exhaustive: perm must map the set of star cliques onto itself.

    Adjacent vertices share exactly one (k-1)-object, so a permutation that
    maps every star onto a star is an automorphism.  The converse fails only
    for a star<->top duality of an n = 2k graph, which is refused; none of
    the actions built here is one.
    """
    stars = _fixed_side(spec, True)
    _match_rows(stars, np.sort(perm[stars[0]], axis=1),
                "generator is not a graph automorphism")


@lru_cache(maxsize=4)
def _fixed_side(spec: GraphSpec, stars: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rows every match on spec compares against, and their lexsort.

    stars: the star cliques, one row of vertex ids per (k-1)-object;
    otherwise the sorted point ids of each vertex.  Every generator and
    every field action on one graph matches against the same rows, so
    their sort order is computed once.
    """
    if stars:
        rows = containment_table(spec, spec.k - 1).members
    else:
        rows = np.sort(containment_table(spec, 1).ids, axis=1)
    return rows, np.lexsort(rows.T[::-1])


def _match_rows(fixed: tuple[np.ndarray, np.ndarray], image: np.ndarray,
                error: str) -> np.ndarray:
    """The permutation p with image[i] == rows[p[i]], (rows, order) = fixed.

    fixed comes from _fixed_side; VerificationError(error) unless image
    holds exactly the rows of rows.
    """
    rows, at = fixed
    im = np.lexsort(image.T[::-1])
    if not np.array_equal(rows[at], image[im]):
        raise VerificationError(error)
    p = np.empty(len(rows), dtype=np.int64)
    p[im] = at
    return p


def _field_induced_perm(spec: GraphSpec, move) -> np.ndarray:
    """Vertex id -> id of the image of a GF(q)-linear map, read off its points.

    move maps a packed vector to a packed vector.  Only the [n]_q points are
    moved and re-normalized; a k-subspace is the set of its points, so its
    image is the vertex whose sorted row of the level-1 table equals the
    moved, sorted row.
    """
    points = vertex_index(spec.level(1))
    moved = [sp.rref([move(r)], spec.n, spec.q).rows
             for r in points.rows[:, 0].tolist()]
    point_perm = points.ids_of_rows(
        np.array(moved, dtype=np.uint64).reshape(len(points), 1))
    points_of = _fixed_side(spec, False)
    return _match_rows(points_of, np.sort(point_perm[points_of[0]], axis=1),
                       "field map does not permute the vertices")


def _field_for(spec: GraphSpec, modulus):
    if spec.family != "grassmann":
        raise VerificationError("field actions are defined on Grassmann graphs")
    if not is_prime(spec.q):
        raise VerificationError(
            f"field actions implemented for prime q only, got q={spec.q}")
    return make_field(spec.q, spec.n, modulus)


def singer_action(spec: GraphSpec, exponent: int,
                  modulus: Optional[Sequence[int]] = None) -> GroupAction:
    """Multiplication of GF(q)^n by a^exponent, a primitive in GF(q^n).

    Prime q only: for prime q a packed vector of GF(q)^n is already the
    index of the corresponding field element, so each point moves by one
    field multiplication.
    """
    field = _field_for(spec, modulus)
    factor = field.pow_i(field.generator, exponent)
    perm = _field_induced_perm(spec, lambda r: field.mul_i(r, factor))
    return GroupAction(spec, [perm], description=f"singer:{exponent}")


def frobenius_action(spec: GraphSpec, power: int = 1,
                     modulus: Optional[Sequence[int]] = None) -> GroupAction:
    """The field power map v -> v^(q^power) on GF(q^n), GF(q)-linear."""
    field = _field_for(spec, modulus)
    e = spec.q ** (power % spec.n)
    perm = _field_induced_perm(spec, lambda r: field.pow_i(r, e))
    return GroupAction(spec, [perm], description=f"frobenius:{power}")


@dataclass
class OrbitSystem:
    """Orbits of a GroupAction, ids assigned by ascending minimum vertex id."""

    spec: GraphSpec
    orbit_of: np.ndarray          # (V,) orbit id per vertex
    orbits: list                  # list of sorted id arrays
    description: str = ""

    @property
    def count(self) -> int:
        return len(self.orbits)

    def sizes(self) -> np.ndarray:
        return np.array([len(o) for o in self.orbits], dtype=np.int64)

    def representatives(self) -> np.ndarray:
        return np.array([int(o[0]) for o in self.orbits], dtype=np.int64)


def orbit_system(action: GroupAction) -> OrbitSystem:
    """Union of generator-closure classes, scanned in vertex id order."""
    V = action.spec.vertex_count
    orbit_of = np.full(V, -1, dtype=np.int64)
    orbits = []
    for start in range(V):
        if orbit_of[start] != -1:
            continue
        oid = len(orbits)
        stack = [start]
        orbit_of[start] = oid
        members = [start]
        while stack:
            v = stack.pop()
            for g in action.generators:
                w = int(g[v])
                if orbit_of[w] == -1:
                    orbit_of[w] = oid
                    members.append(w)
                    stack.append(w)
        orbits.append(np.array(sorted(members), dtype=np.int64))
    return OrbitSystem(action.spec, orbit_of, orbits,
                       description=action.description)


def quotient_matrix(spec: GraphSpec, osys: OrbitSystem) -> np.ndarray:
    """Orbit quotient matrix, counted from each orbit's representative.

    A representative's neighbors are the other members of its s stars, so
    its row is the orbit-label count over those stars, less s on its own
    orbit.  Generators are verified automorphisms, so every member of an
    orbit has the same row; valency row sums and edge-count symmetry are
    still checked.
    """
    r = osys.count
    if r > QUOTIENT_MAX_ORBITS:
        raise ValueError(
            f"{osys.description or 'this group'} has {r} orbits on {spec}; a "
            f"dense quotient matrix is built for at most {QUOTIENT_MAX_ORBITS}")
    table = containment_table(spec, spec.k - 1)
    stars = table.members
    s = table.per_vertex
    B = np.zeros((r, r), dtype=np.int64)
    for i, rep in enumerate(osys.representatives()):
        B[i] = np.bincount(osys.orbit_of[stars[table.ids[rep]]].ravel(),
                           minlength=r)
        B[i, osys.orbit_of[rep]] -= s
    m = spec.valency
    if not (B.sum(axis=1) == m).all():
        raise VerificationError("quotient matrix row sums differ from valency")
    sizes = osys.sizes()
    if not np.array_equal(B * sizes[:, None], (B * sizes[:, None]).T):
        raise VerificationError("quotient matrix violates edge-count symmetry")
    return B
