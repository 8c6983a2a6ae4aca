"""Designs and codes: spreads, Steiner quadruple systems, avoid codes.

The Desarguesian spread of GF(q)^n comes from the multiplicative cosets of
the subfield GF(q^d) inside GF(q^n): each coset together with zero is a
d-subspace, the cosets partition the nonzero vectors, and walking powers
a^j of a primitive element enumerates coset representatives.

The Steiner quadruple system is the set of zero-sum 4-subsets of GF(2)^m,
the supports of the weight-4 codewords of the extended Hamming code of
length 2^m, a 3-(2^m, 4, 1) design.

An avoid code collects the vertices containing no block of a design; the
push-forward of a value vector from level k to level l sums the values
over the k-subobjects of each l-object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import subspaces as sp
from .galois import make_field
from .graphs import GraphSpec, containment_table, vertex_index
from .subspaces import Subset, Subspace
from .verify import Code


class Design:
    """A set of k-subspaces (or k-subsets) of one ambient space, no repeats."""

    def __init__(self, n: int, k: int, q: int, blocks: Sequence):
        blocks = list(blocks)
        for b in blocks:
            if b.k != k:
                raise ValueError(f"block {b!r} does not have dimension {k}")
            if (b.n != n) or (isinstance(b, Subspace) and b.q != q) or \
                    (isinstance(b, Subset) and q != 1):
                raise ValueError(f"block {b!r} does not live in the ambient space")
        if q == 1:
            blocks.sort(key=lambda b: b.members)
        else:
            blocks.sort(key=lambda b: b.digit_key())
        self._index = set(blocks)
        if len(self._index) != len(blocks):
            raise ValueError("repeated blocks")
        self.n = n
        self.k = k
        self.q = q
        self.blocks = blocks

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, block) -> bool:
        return block in self._index

    def __iter__(self):
        return iter(self.blocks)

    def level_spec(self) -> GraphSpec:
        family = "johnson" if self.q == 1 else "grassmann"
        return GraphSpec(family, self.q, self.n, self.k, allow_unbalanced=True)

    def block_ids(self) -> np.ndarray:
        idx = vertex_index(self.level_spec())
        rows = [b.members if self.q == 1 else b.rows for b in self.blocks]
        return np.sort(idx.ids_of_rows(
            np.array(rows, dtype=np.uint64).reshape(len(rows), self.k)))

    def __repr__(self) -> str:
        return f"Design(n={self.n}, k={self.k}, q={self.q}, blocks={len(self)})"


# ----------------------------------------------------------------------
# Spreads
# ----------------------------------------------------------------------

def desarguesian_spread(q: int, n: int, d: int = 2) -> Design:
    """Cosets of the subfield GF(q^d) in GF(q^n) as d-subspaces of GF(q)^n.

    Requires d | n.  The blocks partition the nonzero vectors, so the
    result is a 1-(n, d, 1)_q design (a d-spread).  Only prime q is
    supported: non-prime q would need an explicit subfield isomorphism to
    identify GF(q)-coordinates, which this library does not fix.
    """
    if n % d != 0:
        raise ValueError(f"a {d}-spread of GF({q})^{n} needs {d} | {n}")
    from .galois import is_prime
    if not is_prime(q):
        raise ValueError(
            f"spread construction implemented for prime q only, got q={q}")
    field = make_field(q, n)
    a = field.generator
    count = (q ** n - 1) // (q ** d - 1)
    # basis of GF(q^d) over GF(q): 1, b, ..., b^(d-1) with b = a^count
    b_pows = [field.pow_i(a, j * count) if j else 1 for j in range(d)]
    blocks = []
    coset = 1
    for _ in range(count):
        rows = [field.digits_of_index(field.mul_i(coset, bp)) for bp in b_pows]
        blocks.append(sp.rref(rows, n, q))
        coset = field.mul_i(coset, a)
    return Design(n, d, q, blocks)


def desarguesian_2spread(q: int, n: int) -> Design:
    """The classical 2-spread; n must be even."""
    if n % 2 != 0:
        raise ValueError(f"a 2-spread of GF({q})^{n} needs even n, got {n}")
    return desarguesian_spread(q, n, 2)


# ----------------------------------------------------------------------
# Extended Hamming code and its Steiner quadruple system
# ----------------------------------------------------------------------

def extended_hamming_sqs(m: int) -> Design:
    """The zero-sum 4-subsets {a, b, c, d} of GF(2)^m: a 3-(2^m, 4, 1) design.

    They are the supports of the weight-4 words of the extended Hamming
    code of length 2^m.  The nonzero vector v sits at position v and the
    zero vector at position 2^m.  Each block is taken once, from its three
    smallest vectors a < b < c, whose sum d = a ^ b ^ c is then the largest.
    """
    if m < 3:
        raise ValueError(f"need m >= 3 for a quadruple system, got {m}")
    n = 2 ** m
    abc = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    quads = np.column_stack([abc, np.bitwise_xor.reduce(abc, axis=1)])
    quads = quads[quads[:, 3] > quads[:, 2]]
    quads[quads == 0] = n
    quads.sort(axis=1)
    return Design(n, 4, 1, [Subset(n, tuple(row)) for row in quads.tolist()])


# ----------------------------------------------------------------------
# Codes inside J_q(n, k)
# ----------------------------------------------------------------------

def _symplectic_pairing(u: int, w: int, n: int) -> int:
    """Standard alternating form over GF(2), coordinates paired (1,2),(3,4),..."""
    acc = 0
    for i in range(0, n, 2):
        acc ^= ((u >> i) & 1) & ((w >> (i + 1)) & 1)
        acc ^= ((u >> (i + 1)) & 1) & ((w >> i) & 1)
    return acc


def symplectic_code(n: int = 6, q: int = 2) -> Code:
    """Totally isotropic k-subspaces under the standard alternating form.

    Fixed to q = 2 and k = n/2's floor at 3 for the desk-scale graph; a
    subspace qualifies when the form vanishes on every basis pair.
    """
    if q != 2 or n != 6:
        raise ValueError("symplectic code is implemented for J_2(6,3)")
    spec = GraphSpec("grassmann", 2, 6, 3)
    ids = []
    for vid, rows in enumerate(vertex_index(spec).rows.tolist()):
        good = True
        for i in range(3):
            for j in range(i, 3):
                if _symplectic_pairing(rows[i], rows[j], 6):
                    good = False
                    break
            if not good:
                break
        if good:
            ids.append(vid)
    return Code(spec, ids, label="symplectic")


def coordinate_hyperplane(n: int, q: int) -> Subspace:
    """span(e_1 .. e_{n-1}): the hyperplane with last coordinate zero."""
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    return sp.rref(rows, n, q)


def hyperplane_code(spec: GraphSpec, hyperplane: Optional[Subspace] = None) -> Code:
    """All k-subspaces contained in the given (n-1)-subspace."""
    if spec.family != "grassmann":
        raise ValueError("hyperplane codes live in Grassmann graphs")
    h = hyperplane if hyperplane is not None else coordinate_hyperplane(spec.n, spec.q)
    if h.k != spec.n - 1:
        raise ValueError(f"hyperplane must have dimension {spec.n - 1}")
    idx = vertex_index(spec)
    ids = [vid for vid in range(len(idx)) if sp.contains(h, idx[vid])]
    return Code(spec, ids, label="hyperplane")


def hyperplane_point_code(spec: GraphSpec,
                          hyperplane: Optional[Subspace] = None,
                          point: Optional[int] = None) -> Code:
    """k-subspaces in the hyperplane or containing the point (a packed vector)."""
    if spec.family != "grassmann":
        raise ValueError("hyperplane codes live in Grassmann graphs")
    h = hyperplane if hyperplane is not None else coordinate_hyperplane(spec.n, spec.q)
    v = point if point is not None else sp.pack_row(
        [0] * (spec.n - 1) + [1], spec.q)
    if h.contains_vector(v):
        raise ValueError("point must lie outside the hyperplane")
    idx = vertex_index(spec)
    ids = [vid for vid in range(len(idx))
           if sp.contains(h, idx[vid]) or idx[vid].contains_vector(v)]
    return Code(spec, ids, label="hyperplane-point")


# ----------------------------------------------------------------------
# Design-in-vertex counting and avoid codes
# ----------------------------------------------------------------------

def contained_blocks_count(vertex: Union[Subspace, Subset], design: Design) -> int:
    """How many blocks of the design lie inside the given vertex.

    Probes the vertex's own subobjects of the block dimension against the
    design's membership index, so the cost is [k choose j]_q probes
    regardless of the design size.
    """
    if design.k > vertex.k:
        raise ValueError("blocks are larger than the vertex")
    if design.q == 1:
        subs = sp.subsets_of(vertex, design.k)
    else:
        subs = sp.subspaces_of(vertex, design.k)
    return sum(1 for s in subs if s in design)


def blocks_contained_counts(spec: GraphSpec, design: Design) -> np.ndarray:
    """contained_blocks_count for every vertex id, vectorized."""
    if (design.n, design.q) != (spec.n, spec.q):
        raise ValueError("design and graph live in different ambient spaces")
    table = containment_table(spec, design.k)
    flags = np.zeros(len(table.sub_index), dtype=np.int64)
    flags[design.block_ids()] = 1
    return flags[table.ids].sum(axis=1)


def avoid_code(spec: GraphSpec, design: Design,
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
    if isinstance(vals, np.ndarray) and np.issubdtype(vals.dtype, np.integer):
        out = vals[table.ids].sum(axis=1)
    else:
        arr = list(vals)
        try:
            arr_np = np.asarray(arr, dtype=np.int64)
            out = arr_np[table.ids].sum(axis=1)
        except (TypeError, OverflowError, ValueError):
            out = [sum(arr[j] for j in row) for row in table.ids]
    return ValueVector(upper, out)
