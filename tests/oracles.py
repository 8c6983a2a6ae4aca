"""Reference implementations that only the tests use.

Each one answers a question the package answers faster some other way
(through packed rows or containment tables), so the tests compare the two.
"""

import math
import re
from functools import lru_cache
from itertools import combinations, repeat

import numpy as np

from crcodes import files
from crcodes import subspaces as sp
from crcodes.galois import default_modulus, prime_factors
from crcodes.graphs import vertex_index
from crcodes.orbits import OrbitSystem
from crcodes.subspaces import Subset, Subspace
from crcodes.verify import Code


def digit_key(s: Subspace) -> tuple:
    """Flattened digit matrix, row major: the canonical sort key."""
    return tuple(d for r in s.rows for d in sp.unpack_row(r, s.n, s.q))


@lru_cache(maxsize=None)
def _char(q: int) -> tuple:
    """(p, m) with q = p^m."""
    (p,) = prime_factors(q)
    return p, round(math.log(q, p))


def gf_mul(a: int, b: int, q: int) -> int:
    """a*b in GF(q) on indices (base-p digits of the residue polynomial,
    constant term first): the schoolbook product of the two polynomials,
    reduced by long division mod galois.default_modulus(p, m)."""
    p, m = _char(q)
    if m == 1:
        return a * b % q
    f = default_modulus(p, m)
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(sp.unpack_row(a, m, p)):
        for j, y in enumerate(sp.unpack_row(b, m, p)):
            prod[i + j] += x * y
    for t in range(2 * m - 2, m - 1, -1):  # subtract c x^(t-m) f
        c = prod[t] % p
        for j in range(m + 1):
            prod[t - m + j] -= c * f[j]
    return sp.pack_row([c % p for c in prod[:m]], p)


def gf_add(a: int, b: int, q: int) -> int:
    p, m = _char(q)
    return sp.pack_row([(x + y) % p for x, y in zip(sp.unpack_row(a, m, p),
                                                    sp.unpack_row(b, m, p))], p)


def gf_pow(a: int, e: int, q: int) -> int:
    """a^e for e >= 0, by repeated squaring."""
    out = 1
    while e:
        if e & 1:
            out = gf_mul(out, a, q)
        a = gf_mul(a, a, q)
        e >>= 1
    return out


def gf_neg(a: int, q: int) -> int:
    return gf_mul(prime_factors(q)[0] - 1, a, q)  # index p - 1 is -1


def gf_inv(a: int, q: int) -> int:
    return gf_pow(a, q - 2, q)


def _axpy(c: int, x: int, y: int, n: int, q: int) -> int:
    """c*x + y for packed vectors of GF(q)^n, one digit at a time."""
    return sp.pack_row([gf_add(gf_mul(c, a, q), b, q) for a, b in zip(
        sp.unpack_row(x, n, q), sp.unpack_row(y, n, q))], q)


def vectors(u: Subspace) -> list:
    """All q^k packed vectors of the subspace."""
    vs = [0]
    for row in u.rows:
        vs = [_axpy(c, row, v, u.n, u.q) for c in range(u.q) for v in vs]
    return vs


def id_of(idx, v) -> int:
    """The id of one Subspace or Subset in a VertexIndex."""
    row = v.members if idx.spec.q == 1 else v.rows
    return int(idx.ids_of_rows([row])[0])


def subsets_of(s: Subset, j: int) -> list:
    return [Subset(s.n, c) for c in combinations(s.members, j)]


def _reduce_vector(vec: int, rows, n: int, q: int) -> int:
    """Reduce vec against RREF rows; zero iff vec lies in their span."""
    if q == 2:
        for r in rows:
            if vec & (r & -r):
                vec ^= r
        return vec
    for r in rows:
        dr = sp.unpack_row(r, n, q)
        c = sp.unpack_row(vec, n, q)[next(j for j, d in enumerate(dr) if d)]
        if c:
            vec = _axpy(gf_neg(c, q), r, vec, n, q)
    return vec


def intersection_dim(u: Subspace, w: Subspace) -> int:
    """dim(U cap W) = dim U + dim W - rank of the stacked bases."""
    if u.n != w.n or u.q != w.q:
        raise ValueError("subspaces live in different ambient spaces")
    stacked = sp.rref(list(u.rows) + list(w.rows), u.n, u.q)
    return u.k + w.k - stacked.k


def contains(u: Subspace, w: Subspace) -> bool:
    """True iff W <= U (every basis row of W reduces to zero against U)."""
    if u.n != w.n or u.q != w.q:
        raise ValueError("subspaces live in different ambient spaces")
    if w.k > u.k:
        return False
    return all(_reduce_vector(r, u.rows, u.n, u.q) == 0 for r in w.rows)


def eigenvalue_multiplicity(spec, i: int) -> int:
    n, q = spec.n, spec.q
    return sp.gaussian(n, i, q) - (sp.gaussian(n, i - 1, q) if i > 0 else 0)


def lex_order(n: int, k: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(lex, rank) of one level: lex[r] is the vertex id of lexicographic
    rank r (subspaces.enumerate_level's keys), rank[v] the rank of id v.
    Pins taken while ids were lexicographic ranks are checked through it."""
    lex = np.argsort(sp.enumerate_level(n, k, q)[1])
    rank = np.empty_like(lex)
    rank[lex] = np.arange(len(lex))
    return lex, rank


def lex_rows(n: int, k: int, q: int) -> np.ndarray:
    """The rows of one level in lexicographic order."""
    return sp.enumerate_rows(n, k, q)[lex_order(n, k, q)[0]]


def enumerate_subspaces(n: int, k: int, q: int) -> list:
    """All k-subspaces of GF(q)^n as Subspace objects, in the order of
    their lexicographic keys."""
    if k < 0 or k > n:
        return []
    return [Subspace(n, q, tuple(row)) for row in lex_rows(n, k, q).tolist()]


def enumerate_subsets(n: int, k: int) -> list:
    """All k-subsets of {1..n} in the order of their lexicographic keys."""
    return [Subset(n, row) for row in lex_rows(n, k, 1).tolist()]


def pivot_pattern_rows(n: int, k: int, q: int) -> np.ndarray:
    """The rows of subspaces.enumerate_rows by the loop it replaced: every
    pivot pattern's free digits, then one sort on the lexicographic key;
    itertools.combinations for subsets."""
    if q == 1:
        members = list(combinations(range(1, n + 1), k))
        return np.array(members, dtype=np.uint64).reshape(len(members), k)
    rows, keys = [np.zeros((0, k), np.uint64)], [np.zeros(0, np.uint64)]
    for piv in combinations(range(n), k):
        free = [(r, c) for r in range(k) for c in range(piv[r] + 1, n)
                if c not in piv]
        count = q ** len(free)
        chunk = np.tile(np.array([q ** c for c in piv], np.uint64), (count, 1))
        key = np.full(count, sum(q ** (n * k - 1 - r * n - c)
                                 for r, c in enumerate(piv)), np.uint64)
        vals = np.arange(count, dtype=np.uint64)
        for r, c in free:
            digit = vals % np.uint64(q)
            vals //= np.uint64(q)
            chunk[:, r] += digit * np.uint64(q ** c)
            key += digit * np.uint64(q ** (n * k - 1 - r * n - c))
        rows.append(chunk)
        keys.append(key)
    return np.concatenate(rows)[np.argsort(np.concatenate(keys))]


def projective_points(u: Subspace) -> list:
    """The 1-subspaces contained in u, each scaled to a leading 1, sorted."""
    seen = set()
    for v in vectors(u):
        if v == 0:
            continue
        digits = sp.unpack_row(v, u.n, u.q)
        inv = gf_inv(next(d for d in digits if d), u.q)
        seen.add(sp.pack_row([gf_mul(inv, d, u.q) for d in digits], u.q))
    pts = sorted((Subspace(u.n, u.q, (v,)) for v in seen),
                 key=digit_key)
    assert len(pts) == sp.gaussian(u.k, 1, u.q)
    return pts


def adjacency_check(u, w) -> bool:
    """True iff the two k-objects meet in a (k-1)-object."""
    if isinstance(u, Subset):
        return u.k == w.k and len(set(u.members) & set(w.members)) == u.k - 1
    return u.k == w.k and intersection_dim(u, w) == u.k - 1


def parse_opb(text: str):
    """Inverse of bip.export_opb, for round-trip checks: (rows, rhs)."""
    rows, rhs = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("*"):
            continue
        body, target = line.split("=")
        rows.append({int(m.group(2)) - 1: int(m.group(1))
                     for m in re.finditer(r"([+-]\d+)\s+x(\d+)", body)})
        rhs.append(int(target.replace(";", "").strip()))
    return rows, rhs


def hyperplane_code_ids(spec, h: Subspace, point=None) -> list:
    """The vertices inside h, or containing the point: one sp.contains test
    per vertex object."""
    idx = vertex_index(spec)
    line = sp.rref([point], spec.n, spec.q) if point is not None else None
    return [vid for vid in range(len(idx)) if contains(h, idx[vid])
            or (line is not None and contains(idx[vid], line))]


def symplectic_code_ids(spec) -> list:
    """The totally isotropic vertices of J_2(n, k): the form that pairs
    coordinates (1,2),(3,4),... on every pair of basis rows, digit by digit."""
    def form(u, w):
        a, b = sp.unpack_row(u, spec.n, 2), sp.unpack_row(w, spec.n, 2)
        return sum(a[i] * b[i ^ 1] for i in range(spec.n)) % 2
    return [vid for vid, rows in enumerate(vertex_index(spec).rows.tolist())
            if not any(form(u, w) for u, w in combinations(rows, 2))]


def contained_blocks_count(vertex, design: Code) -> int:
    """How many blocks of the design (a code on its block level) lie in the
    vertex: its own subobjects of the block dimension, looked up one by one."""
    j, idx = design.spec.k, vertex_index(design.spec)
    subs = subsets_of(vertex, j) if design.spec.q == 1 else sp.subspaces_of(vertex, j)
    return len({id_of(idx, s) for s in subs} & set(design.ids.tolist()))


def code_from_lines(text: str) -> Code:
    """Inverse of files.code_to_text, one str line at a time.

    The reader that files.py's byte parser replaced: str.strip per line, a
    separator count per line, one int() per token, and a per-line pass that
    names the first line that is no vertex.
    """
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    spec, size, label = files._parse_header(lines[0][1], lines[0][0])
    body = lines[1:]
    if spec.k == 0:  # its one vertex is written as a blank line
        head = lines[0][0]
        body = list(enumerate(
            (ln.strip() for ln in text.splitlines()[head:]), head + 1))
    if len(body) != size:
        raise ValueError(f"header says {size} vertices, file has {len(body)}")
    idx = vertex_index(spec)
    try:
        ids = idx.ids_of_rows(_line_rows([ln for _, ln in body], spec))
    except (ValueError, OverflowError, KeyError):
        for no, ln in body:  # name the first line that is no vertex
            try:
                idx.ids_of_rows(_line_rows([ln], spec))
            except (ValueError, OverflowError, KeyError):
                raise ValueError(
                    f"line {no}: {ln!r} is not a vertex of {spec}") from None
        raise
    return Code(spec, ids, label=label)


def _line_rows(texts: list, spec) -> np.ndarray:
    """The (len(texts), k) uint64 rows of vertex lines."""
    k = spec.k
    if k == 0:
        if any(texts):
            raise ValueError("a line of a k = 0 graph is not blank")
        return np.empty((len(texts), 0), dtype=np.uint64)
    sep, base = (",", 10) if spec.q == 1 else (":", 16)
    if not (np.char.count(np.array(texts, dtype=str), sep) == k - 1).all():
        raise ValueError(f"a line does not hold {k} integers")
    part = sep.join(texts).split(sep)
    return np.array(list(map(int, part, repeat(base))),
                    dtype=np.uint64).reshape(-1, k)


def orbit_system_loop(action) -> OrbitSystem:
    """orbits.orbit_system as a Python loop: a stack walk over the
    generators from each vertex not yet seen, in the order of the
    lexicographic keys of subspaces.enumerate_level."""
    spec = action.spec
    V = spec.vertex_count
    orbit_of = np.full(V, -1, dtype=np.int64)
    orbits = []
    for start in lex_order(spec.n, spec.k, spec.q)[0]:
        if orbit_of[start] != -1:
            continue
        oid = len(orbits)
        stack = [int(start)]
        orbit_of[start] = oid
        members = [int(start)]
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
