"""GF(p^m) through the companion matrix of its defining polynomial.

An element of GF(p^m) = GF(p)[x]/f is the vector of coefficients of its
residue polynomial, constant term first, and its *index* is the integer
with those base-p digits (least significant first).  The one field
primitive is the companion matrix C_f of the monic modulus f: C_f times
the vector of g is the vector of x*g mod f, so C_f^i e_0 is x^i mod f and
multiplication by a = sum a_i x^i is the matrix sum a_i C_f^i.  The
Singer and Frobenius actions of orbits.py are such matrices over a prime
q, and field_tables builds the tables of a prime power q from them.

Default defining polynomials (all primitive, coefficient lists ascending):

    GF(2):    x + 1
    GF(4):    x^2 + x + 1
    GF(8):    x^3 + x + 1
    GF(16):   x^4 + x + 1
    GF(32):   x^5 + x^2 + 1
    GF(64):   x^6 + x + 1
    GF(128):  x^7 + x^3 + 1
    GF(256):  x^8 + x^4 + x^3 + x^2 + 1
    GF(512):  x^9 + x^4 + 1
    GF(1024): x^10 + x^3 + 1

For a (p, m) pair without a table entry the primitive polynomial of
smallest packed coefficient index (constant term the lowest digit) is found
by search.  f is primitive when C_f has order p^m - 1:
C_f^(p^m-1) = I and C_f^((p^m-1)/r) != I for each prime r | p^m-1.  Then
x has that order modulo f, so every nonzero residue is a power of x, a
unit, and f is irreducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

# Ascending coefficient lists, constant term first, all monic and primitive.
_DEFAULT_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 1, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
}

# Largest q whose (q, q) tables field_tables builds: 2 MB each at q = 1024
TABLE_MAX_Q = 1024


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def companion(p: int, modulus: Sequence[int]) -> np.ndarray:
    """The (m, m) int64 companion matrix C_f of a monic modulus f of degree
    m >= 1 over GF(p), coefficients ascending: column j is x^(j+1) mod f.
    ValueError unless p is prime and f monic."""
    if prime_factors(p) != [p]:
        raise ValueError(f"characteristic {p} is not prime")
    f = [int(c) % p for c in modulus]
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        raise ValueError(f"modulus {tuple(modulus)} is not monic of degree "
                         f">= 1 over GF({p})")
    c = np.zeros((m, m), dtype=np.int64)
    c[np.arange(1, m), np.arange(m - 1)] = 1
    c[:, -1] = [-a % p for a in f[:-1]]
    return c


def matrix_power(c: np.ndarray, e: int, p: int) -> np.ndarray:
    """c^e mod p for e >= 0, by repeated squaring."""
    out = np.eye(len(c), dtype=np.int64)
    while e:
        if e & 1:
            out = out @ c % p
        c = c @ c % p
        e >>= 1
    return out


def is_primitive(p: int, modulus: Sequence[int]) -> bool:
    """Whether C_f has order p^m - 1 (module docstring)."""
    c = companion(p, modulus)
    eye = np.eye(len(c), dtype=np.int64)
    order = p ** len(c) - 1
    return np.array_equal(matrix_power(c, order, p), eye) and not any(
        np.array_equal(matrix_power(c, order // r, p), eye)
        for r in prime_factors(order))


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """The table's modulus for GF(p^m), else the search's (module docstring)."""
    got = _DEFAULT_MODULI.get((p, m))
    if got is not None:
        return got
    if prime_factors(p) != [p] or m < 1:
        raise ValueError(f"no field GF({p}^{m}): need a prime p and m >= 1")
    # a primitive polynomial exists for every such (p, m)
    for idx in range(1, p ** m):
        f = tuple(idx // p ** j % p for j in range(m)) + (1,)
        if f[0] and is_primitive(p, f):
            return f


@lru_cache(maxsize=None)
def field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, q) addition and multiplication tables of GF(q) on indices, in
    the smallest unsigned dtype that holds q - 1.

    With q = p^m and f = default_modulus(p, m) primitive, the vectors
    C_f^j e_0 (the powers x^j) for j < q - 1 run over every nonzero
    element, so a*b = x^(log a + log b).  Addition is digitwise mod p,
    built one digit at a time.  For prime q this is mod-q arithmetic.
    ValueError unless q is a prime power up to TABLE_MAX_Q.
    """
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    if q > TABLE_MAX_Q:
        raise ValueError(f"GF({q}) tables are built for q <= {TABLE_MAX_Q} only")
    (p,) = factors
    m = round(np.log(q) / np.log(p))
    c = companion(p, default_modulus(p, m))
    weights = p ** np.arange(m)
    column = np.eye(m, dtype=np.int64)[:, 0]
    antilog = np.empty(q - 1, dtype=np.int64)
    for j in range(q - 1):
        antilog[j] = column @ weights
        column = c @ column % p
    log = np.zeros(q, dtype=np.int64)
    log[antilog] = np.arange(q - 1)
    mul = antilog[(log[:, None] + log) % (q - 1)]
    mul[0] = mul[:, 0] = 0
    # add over the low i digits, then digit i on top: index x * p^i + a
    digit = (np.arange(p)[:, None] + np.arange(p)) % p
    add = np.zeros((1, 1), dtype=np.int64)
    for i in range(m):
        low = p ** i
        add = (digit[:, None, :, None] * low + add[None, :, None, :]).reshape(
            p * low, p * low)
    dtype = np.min_scalar_type(q - 1)
    return add.astype(dtype), mul.astype(dtype)
