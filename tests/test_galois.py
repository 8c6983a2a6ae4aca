import random

import pytest

from crcodes.galois import FieldError, make_field, prime_factors


def brute_force_order(field, idx):
    """Multiplicative order by repeated multiplication, no pow shortcuts."""
    v = idx
    order = 1
    while v != 1:
        v = field.mul_i(v, idx)
        order += 1
        assert order <= field.order
    return order


def test_prime_field_gf2():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.add_i(1, 1) == 0
    assert f.mul_i(1, 1) == 1


def test_default_gf64_modulus_is_primitive():
    f = make_field(2, 6)
    assert f.order == 64
    assert f.modulus == (1, 1, 0, 0, 0, 0, 1)  # x^6 + x + 1
    # independent check: order of x by brute-force exponentiation
    assert brute_force_order(f, f.generator) == 63


def test_nonprime_characteristic_rejected():
    with pytest.raises(FieldError):
        make_field(4, 1)


def test_reducible_modulus_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over GF(2)
    with pytest.raises(FieldError):
        make_field(2, 4, [1, 0, 1, 0, 1])


def test_irreducible_but_imprimitive_modulus_rejected():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5
    with pytest.raises(FieldError):
        make_field(2, 4, [1, 1, 1, 1, 1])


def test_generator_order_exhaustive():
    for (p, m) in [(2, 4), (2, 6), (2, 8), (2, 10), (3, 2), (5, 1), (7, 1),
                   (3, 4)]:
        f = make_field(p, m)
        a = f.generator
        assert f.pow_i(a, f.order - 1) == 1
        seen = set()
        v = 1
        for _ in range(f.order - 1):
            v = f.mul_i(v, a)
            seen.add(v)
        assert len(seen) == f.order - 1  # a really generates


def test_gf4_square_of_generator():
    f = make_field(2, 2)  # modulus x^2 + x + 1
    a = f.generator
    assert f.mul_i(a, a) == 3  # a^2 = a + 1


def test_char2_self_addition():
    f = make_field(2, 6)
    for idx in range(0, 64, 7):
        assert f.add_i(idx, idx) == 0


@pytest.mark.parametrize("p,m", [(2, 3), (2, 6), (2, 8), (3, 2), (3, 4)])
def test_field_axioms_random(p, m):
    f = make_field(p, m)
    rng = random.Random(0xC0FFEE + p * 100 + m)
    for _ in range(200):
        a, b, c = (rng.randrange(f.order) for _ in range(3))
        assert f.mul_i(a, f.mul_i(b, c)) == f.mul_i(f.mul_i(a, b), c)
        assert f.mul_i(a, f.add_i(b, c)) == f.add_i(f.mul_i(a, b), f.mul_i(a, c))
        assert f.add_i(a, f.neg_i(a)) == 0


@pytest.mark.parametrize("p,m", [(2, 6), (2, 8), (3, 2)])
def test_inverses_exhaustive(p, m):
    f = make_field(p, m)
    for a in range(1, f.order):
        assert f.mul_i(a, f.inv_i(a)) == 1
    with pytest.raises(FieldError):
        f.inv_i(0)


@pytest.mark.parametrize("p,m,modulus", [
    (3, 2, (2, 1, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (3, 6, (2, 1, 0, 0, 0, 0, 1)),
    (5, 1, (3, 1)),
    (5, 2, (2, 1, 1)),
    (7, 2, (3, 1, 1)),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
])
def test_default_moduli_outside_the_table(p, m, modulus):
    # found by the deterministic search, not read from _DEFAULT_MODULI
    assert make_field(p, m).modulus == modulus


def test_prime_factors():
    assert prime_factors(63) == [3, 7]
    assert prime_factors(64) == [2]
    assert prime_factors(255) == [3, 5, 17]
