import hashlib
import random

import numpy as np
import pytest

import oracles
from crcodes import constructions as con
from crcodes import orbits as ob
from crcodes.galois import (default_modulus, field_tables, is_primitive,
                            prime_factors)
from crcodes.graphs import GraphSpec


def brute_force_order(mul, a):
    """Multiplicative order by repeated multiplication, no pow shortcuts."""
    v = a
    order = 1
    while v != 1:
        v = mul[v, a]
        order += 1
        assert order <= len(mul)
    return order


def test_prime_field_gf2():
    add, mul = field_tables(2)
    assert add.tolist() == [[0, 1], [1, 0]]
    assert mul.tolist() == [[0, 0], [0, 1]]


def test_default_gf64_modulus_is_primitive():
    assert default_modulus(2, 6) == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
    assert is_primitive(2, default_modulus(2, 6))
    # independent check: order of x (index 2) by brute-force multiplication
    assert brute_force_order(field_tables(64)[1], 2) == 63


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        is_primitive(4, [1, 1])
    with pytest.raises(ValueError):
        default_modulus(4, 1)


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over GF(2)
    assert not is_primitive(2, [1, 0, 1, 0, 1])


def test_irreducible_but_imprimitive_modulus_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5
    assert not is_primitive(2, [1, 1, 1, 1, 1])
    assert is_primitive(2, [1, 1, 0, 0, 1])


def test_generator_order_exhaustive():
    for (p, m) in [(2, 4), (2, 6), (2, 8), (2, 10), (3, 2), (5, 1), (7, 1),
                   (3, 4)]:
        q = p ** m
        _, mul = field_tables(q)
        # the class of x: index p, or -f_0 when f = x + f_0
        a = p if m > 1 else -default_modulus(p, 1)[0] % p
        seen = set()
        v = 1
        for _ in range(q - 1):
            v = int(mul[v, a])
            seen.add(v)
        assert v == 1
        assert len(seen) == q - 1  # a really generates
        assert oracles.gf_pow(a, q - 1, q) == 1


def test_gf4_square_of_generator():
    _, mul = field_tables(4)  # modulus x^2 + x + 1
    assert mul[2, 2] == 3  # a^2 = a + 1


def test_char2_self_addition():
    add, _ = field_tables(64)
    assert (np.diagonal(add) == 0).all()


@pytest.mark.parametrize("p,m", [(2, 3), (2, 6), (2, 8), (3, 2), (3, 4)])
def test_field_axioms_random(p, m):
    q = p ** m
    add, mul = field_tables(q)
    rng = random.Random(0xC0FFEE + p * 100 + m)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul[a, mul[b, c]] == mul[mul[a, b], c]
        assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
        assert add[a, oracles.gf_neg(a, q)] == 0
        # the tables against the schoolbook polynomial product
        assert mul[a, b] == oracles.gf_mul(a, b, q)
        assert add[a, b] == oracles.gf_add(a, b, q)


@pytest.mark.parametrize("p,m", [(2, 6), (2, 8), (3, 2)])
def test_inverses_exhaustive(p, m):
    q = p ** m
    _, mul = field_tables(q)
    for a in range(1, q):
        assert mul[a, oracles.gf_inv(a, q)] == 1
    assert not (mul[0] == 1).any()  # zero has no inverse


@pytest.mark.parametrize("p,m,modulus", [
    (3, 2, (2, 1, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (3, 6, (2, 1, 0, 0, 0, 0, 1)),
    (5, 4, (2, 2, 1, 0, 1)),
    (5, 2, (2, 1, 1)),
    (7, 2, (3, 1, 1)),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
    (17, 4, (11, 1, 0, 0, 1)),
])
def test_default_moduli_outside_the_table(p, m, modulus):
    # found by the deterministic search, not read from _DEFAULT_MODULI
    assert default_modulus(p, m) == modulus


def test_prime_factors():
    assert prime_factors(63) == [3, 7]
    assert prime_factors(64) == [2]
    assert prime_factors(255) == [3, 5, 17]


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


# sha256 of the int64 point maps (a then sigma), spread ids and uint8 field
# tables as built by per-element GF(p^m) index arithmetic, which the
# companion-matrix builds must reproduce byte for byte
FIELD_MAP_DIGESTS = {
    (2, 6, 3): "9c9e9e402942a7a7f9ecda6b5a6faa96da2db42b2c8cd32f5e22afc38b6e74ad",
    (2, 7, 3): "559aae2960c3b8e3287d076aeeb333a8eaa56768064b5890fc6f2be6144a8a01",
    (2, 8, 4): "4e45629d85a3b128fc00a5a0e40df23d5d9b97fcfbe03b1032caee7389566a7c",
    (3, 6, 3): "042eadc75ae33873b8056ddf20958988358db22c70286104f88bc8ee78d812ec",
    (5, 4, 2): "def2a408eece4233a6702f635095b8b81741c3f906eaade937edf83b567fe4b4",
    (17, 4, 2): "6e83cb54eadb590ff50dc4bd2b6087815a7b53055963cf194a2d145edfb00cd7",
}
SPREAD_DIGESTS = {
    (2, 8, 2): "86638f8b6111b051060faf204d7f9f79040b3af0ab9ce40616d8658e497afbf9",
    (3, 6, 2): "cb0f7f9ca80b6bcb8c46dce2ac10ba299fa05377748ac6ee93e06471195eb325",
    (2, 6, 3): "9ae3191d3ea3d8f41020f7fc2a68874456e7100545ee39e3ad30f10036daa799",
    (5, 4, 2): "405f818d07dc3afbc95f834990b8c7f884aa39033d0358360973216bbdeadc11",
    (2, 6, 2): "116c216ffe900286bfcf634463c8c6fb0b047bc542b4b716c9f1052da012e3a1",
}
# add then mul of every prime power q <= 256, ascending
TABLES_DIGEST = "4602168e557ee49249f26d1ff87f497ac25d1548079a43362fd492da3a32143d"


def test_field_matrices_reproduce_the_pinned_bytes():
    for (q, n, k), want in FIELD_MAP_DIGESTS.items():
        maps = ob._field_maps(GraphSpec("grassmann", q, n, k))
        assert _sha256(*(m.astype("<i8") for m in maps)) == want, (q, n, k)
    for (q, n, d), want in SPREAD_DIGESTS.items():
        ids = con.desarguesian_spread(q, n, d).ids
        assert _sha256(ids.astype("<i8")) == want, (q, n, d)
    tables = [field_tables(q) for q in range(2, 257)
              if len(prime_factors(q)) == 1]
    assert all(t.dtype == np.uint8 for pair in tables for t in pair)
    assert _sha256(*(t for pair in tables for t in pair)) == TABLES_DIGEST
