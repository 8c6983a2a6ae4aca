"""Canonical k-subspaces of GF(q)^n and k-subsets of {1..n}.

A subspace is stored by its reduced row echelon basis.  Each row is packed
into a single integer in base q, column j in digit j, so for q = 2 a row
is a bitmask with column j at bit j and row reduction is word XOR.  Two
Subspace values are equal exactly when they are the same subspace.

enumerate_rows gives a whole level at once as a (count, k) uint64 array:
packed basis rows for subspaces, sorted members for subsets.  This array
is the graph layer's vertex representation; Subspace and Subset are the
per-object values for row reduction, whose GF(q) scalars are mod-q
integers for prime q and galois.field_tables lookups otherwise.

The canonical order of subspaces (used for vertex ids) is lexicographic on
the flattened k-by-n matrix of coefficient digits, row major; subsets are
ordered lexicographically on their sorted member lists.

A level is built by the q-Pascal recursion on the last coordinate,
[m,k]_q = q^k [m-1,k]_q + [m-1,k-1]_q: a k-object on m coordinates either
has a free last column (an object on m-1 coordinates and one digit per
row) or has e_{m-1} as its last row (a (k-1)-object on m-1 coordinates
under it); for subsets, without m or with m.  The recursion lists every
object once, each with its canonical sort key, in a fixed recursion order
(colex order for subsets) that graphs.containment_table computes in too;
one sort per level gives the canonical order, the rank of each
recursion position and the position of each canonical id.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .galois import field_tables, prime_factors


@lru_cache(maxsize=None)
def _scalars(q: int):
    """GF(q) as (axpy, neg, inv): axpy(c, x, y) = c*x + y on lists of
    digits, neg and inv of one scalar.  Mod-q integers for prime q, else
    lookups in galois.field_tables (ValueError above its TABLE_MAX_Q)."""
    if prime_factors(q) == [q]:
        return (lambda c, x, y: [(c * a + b) % q for a, b in zip(x, y)],
                lambda c: -c % q, lambda c: pow(c, -1, q))
    add, mul = field_tables(q)
    neg = (add == 0).argmax(axis=1).tolist()
    inv = (mul == 1).argmax(axis=1).tolist()
    return (lambda c, x, y: add[mul[c, x], y].tolist(), neg.__getitem__,
            inv.__getitem__)


def gaussian(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of GF(q)^n; ordinary binomial at q = 1."""
    if k < 0 or k > n:
        return 0
    if q == 1:
        num = 1
        for i in range(k):
            num = num * (n - i) // (i + 1)
        return num
    num, den = 1, 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def pack_row(digits: Sequence[int], q: int) -> int:
    v = 0
    for d in reversed(list(digits)):
        v = v * q + d
    return v


def unpack_row(row: int, n: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(row % q)
        row //= q
    return tuple(out)


class Subspace:
    """A k-dimensional subspace of GF(q)^n, basis in RREF, rows packed base q."""

    __slots__ = ("n", "q", "rows")

    def __init__(self, n: int, q: int, rows: tuple[int, ...]):
        self.n = n
        self.q = q
        self.rows = rows

    @property
    def k(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and other.n == self.n
            and other.q == self.q
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, q={self.q}, rows={list(self.rows)})"


class Subset:
    """A k-subset of {1..n}, members strictly increasing."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Sequence[int]):
        members = tuple(members)
        if any(members[i] >= members[i + 1] for i in range(len(members) - 1)):
            raise ValueError(f"members not strictly increasing: {members}")
        if members and not (1 <= members[0] and members[-1] <= n):
            raise ValueError(f"members out of range [1, {n}]: {members}")
        self.n = n
        self.members = members

    @property
    def k(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subset)
            and other.n == self.n
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"Subset(n={self.n}, members={list(self.members)})"


# ----------------------------------------------------------------------
# Row reduction
# ----------------------------------------------------------------------

def _pivot_bit(row: int) -> int:
    return (row & -row).bit_length() - 1


def _rref_bits(vectors: Iterable[int]) -> list[int]:
    rows: list[int] = []  # fully reduced, unique pivots
    for v in vectors:
        for r in rows:
            if v & (r & -r):
                v ^= r
        if v:
            lb = v & -v
            for i, r in enumerate(rows):
                if r & lb:
                    rows[i] = r ^ v
            rows.append(v)
    rows.sort(key=_pivot_bit)
    return rows


def rref(vectors: Iterable[Sequence[int] | int], n: int, q: int) -> Subspace:
    """Reduced row echelon span of the given vectors.

    Vectors may be digit sequences of length n or packed base-q integers.
    The zero span yields the unique 0-dimensional subspace.
    """
    packed = [int(v) if isinstance(v, (int, np.integer)) else pack_row(v, q)
              for v in vectors]
    if q == 2:
        return Subspace(n, 2, tuple(_rref_bits(packed)))
    axpy, neg, inv = _scalars(q)
    work = [list(unpack_row(v, n, q)) for v in packed]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = axpy(inv(work[r][col]), work[r], [0] * n)
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = axpy(neg(work[i][col]), work[r], work[i])
        r += 1
        if r == len(work):
            break
    return Subspace(n, q, tuple(pack_row(row, q) for row in work[:r]))


# ----------------------------------------------------------------------
# Enumeration: the q-Pascal recursion, then one sort
# ----------------------------------------------------------------------

def digit_vectors(k: int, q: int) -> np.ndarray:
    """Every vector of GF(q)^k as a (q^k, k) uint64 digit array: row d
    holds d = sum_r d_r q^r.  One zero row for q = 1."""
    d = np.arange(q ** k, dtype=np.uint64)[:, None]
    return d // np.uint64(q) ** np.arange(k, dtype=np.uint64) % np.uint64(q)


def _recursion_rows(n: int, k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of every k-object in recursion order, and a uint64 sort key
    per row that ascends in canonical order for q >= 2 and descends for
    q = 1.

    Level (m, k') holds the k'-objects on the first m coordinates.  It is
    built from level m-1 as its A-block, then its B-block:

      A  the last column is free: a level-(m-1, k') matrix R and a digit
         vector d of GF(q)^k' in column m-1, at position d * |L(m-1, k')|
         + position of R (q = 1: the subsets without m);
      B  the last row is e_{m-1}: a level-(m-1, k'-1) matrix R on top
         (q = 1: the subsets with m as last member).

    Both sizes give [m,k']_q = q^k' [m-1,k']_q + [m-1,k'-1]_q.  The A-block
    of d = 0 is level (m-1, k') itself, so every level (m, k') is the head
    of one buffer per k', grown in place: only the blocks of d != 0 and the
    B-block are written (for q = 1, only the B-block).  A key is a sum of
    one weight per nonzero entry, fixed by the top level (n, k): digit d at
    (r, c) adds d q^(n(k-r)-1-c), the place of (r, c) in the flattened
    k-by-n digit matrix; member s at place c adds C(n-s, k-c), which sums to
    C(n, k) - 1 less the lexicographic rank.
    """
    # level (m, kk) is needed for m <= n - k + kk only
    rows = [np.zeros((gaussian(n - k + kk, kk, q), kk), np.uint64)
            for kk in range(k + 1)]
    keys = [np.zeros(len(r), np.uint64) for r in rows]
    for m in range(1, n + 1):
        unit = m if q == 1 else q ** (m - 1)  # the entry of a B row's e_{m-1}
        for kk in range(max(1, k - n + m), min(m, k) + 1):
            weights = np.array([math.comb(n - m, k - r) if q == 1 else
                                q ** (n * (k - r) - m) for r in range(kk)],
                               dtype=np.uint64)
            digits = digit_vectors(kk, q)[1:]
            below, on = gaussian(m - 1, kk, q), gaussian(m - 1, kk - 1, q)
            n_a = (len(digits) + 1) * below
            level, key = rows[kk], keys[kk]
            np.add(level[:below], (digits * np.uint64(unit))[:, None, :],
                   out=level[below:n_a].reshape(len(digits), below, kk))
            np.add(key[:below], (digits @ weights)[:, None],
                   out=key[below:n_a].reshape(len(digits), below))
            level[n_a:n_a + on, :-1] = rows[kk - 1][:on]
            level[n_a:n_a + on, -1] = unit
            np.add(keys[kk - 1][:on], weights[-1], out=key[n_a:n_a + on])
    return rows[k], keys[k]


def enumerate_level(n: int, k: int, q: int):
    """(rows, rank, position): every vertex of one level as a row of a
    (count, k) uint64 array in canonical order, the int32 canonical id
    rank[p] of the p-th object in recursion order (_recursion_rows), and
    its inverse, the int32 recursion position position[i] of vertex i.
    Recursion order is the order the containment tables of graphs.py
    compute in.  Raises ValueError when q^(n*k) > 2^64: the k rows then no
    longer pack into one uint64 key.
    """
    if q > 1 and q ** (n * k) > 1 << 64:
        raise ValueError(
            f"the {k}-subspaces of GF({q})^{n} need q^(n*k) <= 2^64 "
            f"to pack into one word, got {q}^{n * k}")
    rows, key = _recursion_rows(n, k, q)
    order = np.argsort(key)
    if q == 1:  # descending keys
        order = order[::-1]
    position = order.astype(np.int32)
    rank = np.empty(len(order), dtype=np.int32)
    rank[position] = np.arange(len(order), dtype=np.int32)
    return np.take(rows, position, axis=0), rank, position


def enumerate_rows(n: int, k: int, q: int) -> np.ndarray:
    """Every vertex of one level as a row of a (count, k) uint64 array.

    For q = 1 a row is a k-subset of {1..n}, members ascending, and rows
    come in lexicographic order.  For q >= 2 a row is the packed RREF basis
    of a k-subspace of GF(q)^n, in canonical order.  Raises ValueError when
    q^(n*k) > 2^64: the k rows then no longer pack into one uint64 key.
    """
    return enumerate_level(n, k, q)[0]


# ----------------------------------------------------------------------
# Subobjects: j-dimensional subspaces of a k-dimensional subspace are the
# products K*B over all RREF j-by-k patterns K.  Because B is in RREF with
# pivot columns forming an identity, K*B is itself already in RREF, so the
# canonical forms come out for free.
# ----------------------------------------------------------------------

@lru_cache(maxsize=128)
def subobject_patterns(k: int, j: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All RREF patterns, each a j-tuple of digit rows of length k."""
    return tuple(tuple(unpack_row(r, k, q) for r in rows)
                 for rows in enumerate_rows(k, j, q).tolist())


def apply_pattern(u: Subspace, pattern) -> Subspace:
    """K*B for one pattern K; the result is already in RREF."""
    q, n = u.q, u.n
    rows = []
    if q == 2:
        for prow in pattern:
            acc = 0
            for t, c in enumerate(prow):
                if c:
                    acc ^= u.rows[t]
            rows.append(acc)
    else:
        axpy = _scalars(q)[0]
        digits = [list(unpack_row(row, n, q)) for row in u.rows]
        for prow in pattern:
            acc = [0] * n
            for t, c in enumerate(prow):
                if c:
                    acc = axpy(c, digits[t], acc)
            rows.append(pack_row(acc, q))
    return Subspace(n, q, tuple(rows))


def subspaces_of(u: Subspace, j: int) -> list[Subspace]:
    """All j-subspaces of u, canonical forms."""
    if j < 0 or j > u.k:
        return []
    return [apply_pattern(u, p) for p in subobject_patterns(u.k, j, u.q)]
