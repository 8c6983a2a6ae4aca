"""Reference implementations that only the tests use.

Each one answers a question the package answers faster some other way
(through packed rows or containment tables), so the tests compare the two.
"""

import re
from pathlib import Path

from crcodes import files
from crcodes import subspaces as sp
from crcodes.subspaces import Subset, Subspace


def enumerate_subspaces(n: int, k: int, q: int) -> list:
    """All k-subspaces of GF(q)^n as Subspace objects, in canonical order."""
    if k < 0 or k > n:
        return []
    return [Subspace(n, q, tuple(row))
            for row in sp.enumerate_rows(n, k, q).tolist()]


def enumerate_subsets(n: int, k: int) -> list:
    """All k-subsets of {1..n} in lexicographic member order."""
    return [Subset(n, row) for row in sp.enumerate_rows(n, k, 1).tolist()]


def projective_points(u: Subspace) -> list:
    """The 1-subspaces contained in u, each scaled to a leading 1, sorted."""
    sc = sp.scalar_field(u.q)
    seen = set()
    for v in u.vectors():
        if v == 0:
            continue
        digits = sp.unpack_row(v, u.n, u.q)
        inv = sc.inv_i(next(d for d in digits if d))
        seen.add(sp.pack_row([sc.mul_i(inv, d) for d in digits], u.q))
    pts = sorted((Subspace(u.n, u.q, (v,)) for v in seen),
                 key=lambda s: s.digit_key())
    assert len(pts) == sp.gaussian(u.k, 1, u.q)
    return pts


def adjacency_check(u, w) -> bool:
    """True iff the two k-objects meet in a (k-1)-object."""
    if isinstance(u, Subset):
        return u.k == w.k and len(set(u.members) & set(w.members)) == u.k - 1
    return u.k == w.k and sp.intersection_dim(u, w) == u.k - 1


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


def write_design(path, design) -> None:
    Path(path).write_text(files.design_to_text(design), encoding="utf-8")
