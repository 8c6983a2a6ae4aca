"""Spreads, Steiner quadruple systems, avoid codes and the classical codes.

The Desarguesian d-spread of GF(q)^n is the set of point orbits of the
Singer power a^((q^n-1)/(q^d-1)), which generates the multiplicative group
of the subfield GF(q^d) inside GF(q^n): the orbit of a point <v> is the
set of points of the d-subspace v*GF(q^d), and these partition the points.

The Steiner quadruple system is the set of zero-sum 4-subsets of GF(2)^m,
the supports of the weight-4 codewords of the extended Hamming code of
length 2^m, a 3-(2^m, 4, 1) design.

A design is a code on the level of its blocks: a spread is a set of
d-subspaces, a quadruple system a set of 4-subsets, each held as the vertex
ids of that level.  An avoid code collects the vertices containing no
block of a design; the push-forward of a value vector from level k to
level l sums the values over the k-subobjects of each l-object.

The classical codes of J_q(n, k) are read off packed rows and containment
tables, with no per-vertex object: a vertex lies in a hyperplane when all
of its points (its row of the level-1 table) do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import subspaces as sp
from .galois import prime_factors
from .graphs import GraphSpec, containment_table, ids_of_rows, vertex_index
from .orbits import orbit_system, singer_action
from .subspaces import Subspace
from .verify import Code


# ----------------------------------------------------------------------
# Spreads
# ----------------------------------------------------------------------

def desarguesian_spread(q: int, n: int, d: int = 2) -> Code:
    """The point orbits of a^((q^n-1)/(q^d-1)) as d-subspaces of GF(q)^n.

    Requires d | n.  An orbit has the [d]_q points of one block, so a
    d-subspace is a block when all its points lie in one orbit.  The blocks
    partition the points, so the result is a 1-(n, d, 1)_q design (a
    d-spread), returned as a code on the level of d-subspaces.  Only prime
    q is supported, as for the field actions: non-prime q would need an
    explicit subfield isomorphism to identify GF(q)-coordinates, which this
    library does not fix.
    """
    if n % d != 0:
        raise ValueError(f"a {d}-spread of GF({q})^{n} needs {d} | {n}")
    if prime_factors(q) != [q]:
        raise ValueError(
            f"spread construction implemented for prime q only, got q={q}")
    level = GraphSpec("grassmann", q, n, d, allow_unbalanced=True)
    subfield = singer_action(level.level(1), (q ** n - 1) // (q ** d - 1))
    orbit = orbit_system(subfield).orbit_of[containment_table(level, 1).ids]
    return Code(level, np.flatnonzero((orbit == orbit[:, :1]).all(axis=1)),
                label="spread")


def desarguesian_2spread(q: int, n: int) -> Code:
    """The classical 2-spread; n must be even."""
    if n % 2 != 0:
        raise ValueError(f"a 2-spread of GF({q})^{n} needs even n, got {n}")
    return desarguesian_spread(q, n, 2)


# ----------------------------------------------------------------------
# Extended Hamming code and its Steiner quadruple system
# ----------------------------------------------------------------------

def extended_hamming_sqs(m: int) -> Code:
    """The zero-sum 4-subsets {a, b, c, d} of GF(2)^m: a 3-(2^m, 4, 1) design.

    They are the supports of the weight-4 words of the extended Hamming
    code of length 2^m, returned as a code on the level of 4-subsets.  The
    nonzero vector v sits at position v and the zero vector at position
    2^m.  Each block is taken once, from its three smallest vectors
    a < b < c, whose sum d = a ^ b ^ c is then the largest.
    """
    if m < 3:
        raise ValueError(f"need m >= 3 for a quadruple system, got {m}")
    n = 2 ** m
    abc = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    quads = np.column_stack([abc, np.bitwise_xor.reduce(abc, axis=1)])
    quads = quads[quads[:, 3] > quads[:, 2]]
    quads[quads == 0] = n
    quads.sort(axis=1)
    level = GraphSpec("johnson", 1, n, 4, allow_unbalanced=True)
    return Code(level, ids_of_rows(level, quads), label="sqs")


# ----------------------------------------------------------------------
# Codes inside J_q(n, k)
# ----------------------------------------------------------------------

def symplectic_code(n: int = 6, q: int = 2) -> Code:
    """Totally isotropic k-subspaces under the standard alternating form.

    Fixed to q = 2 and k = n/2's floor at 3 for the desk-scale graph; a
    subspace qualifies when the form vanishes on every basis pair.  With
    coordinates paired (1,2),(3,4),..., the form of two packed rows u, w
    is the bit parity of u & swap(w), where swap exchanges the two bits of
    every pair; the parity of each n-bit word is looked up in a table.
    """
    if q != 2 or n != 6:
        raise ValueError("symplectic code is implemented for J_2(6,3)")
    spec = GraphSpec("grassmann", 2, 6, 3)
    rows = vertex_index(spec).rows
    even = np.uint64(sum(1 << i for i in range(0, n, 2)))
    swapped = ((rows & even) << np.uint64(1)) | ((rows >> np.uint64(1)) & even)
    odd = np.array([bin(x).count("1") % 2 for x in range(1 << n)], dtype=bool)
    form = np.zeros(len(rows), dtype=bool)
    for i, j in itertools.combinations(range(spec.k), 2):
        form |= odd[rows[:, i] & swapped[:, j]]
    return Code(spec, np.flatnonzero(~form), label="symplectic")


def coordinate_hyperplane(n: int, q: int) -> Subspace:
    """span(e_1 .. e_{n-1}): the hyperplane with last coordinate zero."""
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    return sp.rref(rows, n, q)


def _hyperplane_points(spec: GraphSpec, hyperplane: Optional[Subspace]):
    """The level-1 ids of the graph's vertices, and a mask of the points
    that lie in the hyperplane (by default the coordinate one).

    The hyperplane's own points come from its subspaces, not from its row
    of the level-(n-1) table: that level packs into one word only while
    q^(n(n-1)) <= 2^64, which J_2(9, k) already exceeds.
    """
    if spec.family != "grassmann":
        raise ValueError("hyperplane codes live in Grassmann graphs")
    h = hyperplane if hyperplane is not None else coordinate_hyperplane(spec.n, spec.q)
    if (h.n, h.q, h.k) != (spec.n, spec.q, spec.n - 1):
        raise ValueError(f"hyperplane must be a {spec.n - 1}-subspace "
                         f"of GF({spec.q})^{spec.n}")
    table = containment_table(spec, 1)
    inside = np.zeros(table.sub_count, dtype=bool)
    points = [p.rows for p in sp.subspaces_of(h, 1)]
    inside[ids_of_rows(spec.level(1), points)] = True
    return table.ids, inside


def hyperplane_code(spec: GraphSpec, hyperplane: Optional[Subspace] = None) -> Code:
    """All k-subspaces contained in the given (n-1)-subspace: the vertices
    whose points all lie in it."""
    points, inside = _hyperplane_points(spec, hyperplane)
    return Code(spec, np.flatnonzero(inside[points].all(axis=1)),
                label="hyperplane")


def hyperplane_point_code(spec: GraphSpec,
                          hyperplane: Optional[Subspace] = None,
                          point: Optional[int] = None) -> Code:
    """k-subspaces in the hyperplane or containing the point (a packed vector)."""
    points, inside = _hyperplane_points(spec, hyperplane)
    v = point if point is not None else spec.q ** (spec.n - 1)
    try:  # the point's canonical row; the zero vector spans no point
        pid = ids_of_rows(spec.level(1), [sp.rref([v], spec.n, spec.q).rows])[0]
    except KeyError:
        raise ValueError(f"point {v} is not a nonzero vector of "
                         f"GF({spec.q})^{spec.n}") from None
    if inside[pid]:
        raise ValueError("point must lie outside the hyperplane")
    ids = np.flatnonzero(inside[points].all(axis=1) | (points == pid).any(axis=1))
    return Code(spec, ids, label="hyperplane-point")


# ----------------------------------------------------------------------
# Avoid codes
# ----------------------------------------------------------------------

def blocks_contained_counts(spec: GraphSpec, design: Code) -> np.ndarray:
    """How many blocks of the design lie inside each vertex of the graph.

    The design is a code on a lower level of the same ambient space, its
    blocks given by their ids at that level.
    """
    if design.spec != spec.level(design.spec.k):
        raise ValueError("design and graph live in different ambient spaces")
    table = containment_table(spec, design.spec.k)
    flags = np.zeros(table.sub_count, dtype=np.int64)
    flags[design.ids] = 1
    counts = np.zeros(spec.vertex_count, dtype=np.int64)
    for col in table.ids.T:
        counts += flags[col]
    return counts


def avoid_code(spec: GraphSpec, design: Code,
               label: Optional[str] = None) -> Code:
    """The vertices containing no block of the design (possibly empty)."""
    counts = blocks_contained_counts(spec, design)
    ids = np.nonzero(counts == 0)[0]
    return Code(spec, ids, label=label or "avoid")


# ----------------------------------------------------------------------
# Push-forward of value vectors along containment
# ----------------------------------------------------------------------

@dataclass
class ValueVector:
    """One exact value (int or Fraction) per vertex id of a level."""

    spec: GraphSpec
    values: Sequence

    def __post_init__(self):
        if len(self.values) != self.spec.vertex_count:
            raise ValueError(
                f"expected {self.spec.vertex_count} values, got {len(self.values)}")


def pushforward(values: ValueVector, l: int) -> ValueVector:
    """Sum the level-k values over the k-subobjects of each l-object.

    Maps eigenvectors of the level-k graph to eigenvectors of the level-l
    graph for the same ladder index; the all-ones vector maps to the
    constant [l choose k]_q.
    """
    spec = values.spec
    if l <= spec.k:
        raise ValueError(f"push-forward needs l > k, got l={l}, k={spec.k}")
    upper = GraphSpec(spec.family, spec.q, spec.n, l, allow_unbalanced=True)
    table = containment_table(upper, spec.k)
    vals = values.values
    vals = vals.tolist() if isinstance(vals, np.ndarray) else list(vals)
    if all(isinstance(v, int) for v in vals) and \
            max(map(abs, vals)) * table.per_vertex < 2 ** 63:
        # int64 sums of per_vertex values are exact under this bound
        out = np.array(vals, dtype=np.int64)[table.ids].sum(axis=1)
    else:
        out = [sum(vals[j] for j in row) for row in table.ids.tolist()]
    return ValueVector(upper, out)
