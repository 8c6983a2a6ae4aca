"""Exact arithmetic in small finite fields GF(p^m).

An element of GF(p^m) is stored as its *index*: the integer whose base-p
digits (least significant digit first) are the coefficients of the residue
polynomial modulo the field's defining polynomial.  Index 0 is the zero
element, index 1 the unit, and index p is the residue class of x, which is
a multiplicative generator for every modulus accepted here.  Elements
are plain ints throughout: FieldSpec's *_i methods are the whole
arithmetic API.

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

For a (p, m) pair without a table entry the smallest primitive polynomial
(by packed coefficient index) is found by search.  Every modulus, supplied
or defaulted, is re-verified at construction: x^(q-1) = 1 and
x^((q-1)/r) != 1 for each prime r | q-1, so x has order q-1 modulo f.
Then every nonzero residue is a power of x, a unit, so f is irreducible.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# ----------------------------------------------------------------------
# Polynomial helpers over GF(p); a polynomial is a list of digits in
# [0, p), constant term first, no implied normalization.
# ----------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num by monic-leading den, coefficients mod p."""
    num = list(num)
    dd = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c == 0:
            continue
        f = (c * lead_inv) % p
        for j in range(dd + 1):
            num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return _poly_trim(num[:dd])


class FieldError(ValueError):
    """Invalid field construction or operation."""


class FieldSpec:
    """The field GF(p^m) with a fixed primitive defining polynomial.

    Parameters
    ----------
    characteristic : prime p
    degree : extension degree m >= 1
    modulus : optional ascending coefficient list of a monic degree-m
        polynomial over GF(p); defaults come from a built-in table or,
        failing that, a deterministic search.  The polynomial must be
        irreducible and x must generate the multiplicative group.
    """

    __slots__ = ("characteristic", "degree", "order", "modulus", "_xpow")

    def __init__(self, characteristic: int, degree: int,
                 modulus: Optional[Sequence[int]] = None):
        p, m = characteristic, degree
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if m < 1:
            raise FieldError(f"degree must be >= 1, got {m}")
        if modulus is None:
            modulus = _default_modulus(p, m)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {m}")
        self.characteristic = p
        self.degree = m
        self.order = p ** m
        self.modulus = modulus
        # digits of x^t mod f for t = m .. 2m-2, used to fold products
        self._xpow: list[tuple[int, ...]] = []
        for t in range(m, 2 * m - 1):
            xs = [0] * t + [1]
            self._xpow.append(tuple(_poly_mod(xs, modulus, p) + [0] * m)[:m])
        self._check_modulus()

    # -- construction-time verification ---------------------------------

    def _check_modulus(self) -> None:
        """x must have order q-1 modulo f (module docstring)."""
        x = self.generator
        qm1 = self.order - 1
        if self.pow_i(x, qm1) != 1:
            raise FieldError(
                f"modulus {self.modulus} is not primitive: x^{qm1} != 1")
        for r in prime_factors(qm1):
            if self.pow_i(x, qm1 // r) == 1:
                raise FieldError(
                    f"modulus {self.modulus} is not primitive: x^({qm1}//{r}) = 1")

    # -- identity, equality ---------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and other.characteristic == self.characteristic
            and other.degree == self.degree
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.characteristic, self.degree, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(GF({self.order}), modulus={list(self.modulus)})"

    # -- element plumbing -------------------------------------------------

    @property
    def generator(self) -> int:
        """Index of the class of x (a scalar for degree 1), always primitive."""
        if self.degree == 1:
            return (-self.modulus[0]) % self.characteristic
        return self.characteristic

    def digits_of_index(self, index: int) -> tuple[int, ...]:
        p = self.characteristic
        out = []
        for _ in range(self.degree):
            out.append(index % p)
            index //= p
        return tuple(out)

    def index_of_digits(self, digits: Sequence[int]) -> int:
        p = self.characteristic
        idx = 0
        for d in reversed(list(digits)):
            idx = idx * p + (d % p)
        return idx

    # -- index arithmetic -------------------------------------------------

    def add_i(self, a: int, b: int) -> int:
        p = self.characteristic
        out, mult = 0, 1
        for _ in range(self.degree):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_i(self, a: int) -> int:
        p = self.characteristic
        out, mult = 0, 1
        for _ in range(self.degree):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub_i(self, a: int, b: int) -> int:
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, m = self.characteristic, self.degree
        da = self.digits_of_index(a)
        db = self.digits_of_index(b)
        conv = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    conv[i + j] += ai * bj
        out = [c % p for c in conv[:m]]
        for t in range(m, 2 * m - 1):
            c = conv[t] % p
            if c:
                red = self._xpow[t - m]
                for j in range(m):
                    out[j] = (out[j] + c * red[j]) % p
        return self.index_of_digits(out)

    def pow_i(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv_i(a), -e
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul_i(result, base)
            base = self.mul_i(base, base)
            e >>= 1
        return result

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        return self.pow_i(a, self.order - 2)


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    got = _DEFAULT_MODULI.get((p, m))
    if got is not None:
        return got
    if m == 1:
        g = _smallest_primitive_root(p)
        return ((-g) % p, 1)
    # deterministic search: smallest packed coefficient index that works
    for idx in range(p ** m):
        coeffs = [0] * (m + 1)
        t = idx
        for j in range(m):
            coeffs[j] = t % p
            t //= p
        coeffs[m] = 1
        if coeffs[0] == 0:
            continue  # divisible by x
        try:
            FieldSpec(p, m, coeffs)
        except FieldError:
            continue
        return tuple(coeffs)
    raise FieldError(f"no primitive polynomial found for GF({p}^{m})")


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in factors):
            return g
    raise FieldError(f"no primitive root mod {p}")


def make_field(p: int, m: int, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct GF(p^m), validating primality of p and the modulus invariants."""
    return FieldSpec(p, m, modulus)
