"""Exact arithmetic in small finite fields GF(p^m).

An element of GF(p^m) is stored as its *index*: the integer whose base-p
digits (least significant digit first) are the coefficients of the residue
polynomial modulo the field's defining polynomial.  Index 0 is the zero
element, index 1 the unit, and index p is the residue class of x, which is
a multiplicative generator for every modulus accepted here.

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
or defaulted, is re-verified at construction: irreducibility by trial
division against all monic polynomials of degree up to m/2, and
primitivity of x by checking x^((q-1)/r) != 1 for each prime r | q-1.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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

_LOG_TABLE_MAX_ORDER = 4096


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


def _poly_is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(p ** d):
            cand = [0] * (d + 1)
            t = idx
            for j in range(d):
                cand[j] = t % p
                t //= p
            cand[d] = 1
            if not _poly_mod(coeffs, cand, p):
                return False
    return True


class FieldError(ValueError):
    """Invalid field construction or operation."""


class FieldElement:
    """An element of a FieldSpec, identified by its integer index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FieldSpec", index: int):
        self.field = field
        self.index = index

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("elements belong to different fields")
            return other.index
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other):
        return FieldElement(self.field, self.field.add_i(self.index, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub_i(self.index, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_i(self.index))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul_i(self.index, self._coerce(other)))

    def __truediv__(self, other):
        j = self._coerce(other)
        return FieldElement(self.field, self.field.mul_i(self.index, self.field.inv_i(j)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_i(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_i(self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((self.field.characteristic, self.field.degree, self.index))

    def __repr__(self) -> str:
        return f"GF({self.field.order})[{self.index}]"


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

    __slots__ = (
        "characteristic", "degree", "order", "modulus",
        "_mod_int", "_xpow", "_tables",
    )

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
        # packed modulus for the characteristic-2 fast path
        self._mod_int = sum(c << i for i, c in enumerate(modulus)) if p == 2 else 0
        # digits of x^t mod f for t = m .. 2m-2, used to fold products
        self._xpow: list[tuple[int, ...]] = []
        for t in range(m, 2 * m - 1):
            xs = [0] * t + [1]
            self._xpow.append(tuple(_poly_mod(xs, modulus, p) + [0] * m)[:m])
        self._tables = None  # lazy (exp, log) pair, published once
        self._check_modulus()

    # -- construction-time verification ---------------------------------

    def _check_modulus(self) -> None:
        p, m = self.characteristic, self.degree
        if m > 1 and not _poly_is_irreducible(self.modulus, p):
            raise FieldError(f"modulus {self.modulus} is reducible over GF({p})")
        x = p if m > 1 else self.index_of_digits(
            [(-self.modulus[0]) % p])  # for m = 1, x maps to a scalar
        qm1 = self.order - 1
        for r in prime_factors(qm1):
            if self.pow_i(x, qm1 // r) == 1:
                raise FieldError(
                    f"modulus {self.modulus} is not primitive: x^({qm1}//{r}) = 1")
        if self.pow_i(x, qm1) != 1 and qm1 > 0:
            raise FieldError("internal: x^(q-1) != 1")

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

    def element(self, index: int) -> FieldElement:
        if not 0 <= index < self.order:
            raise FieldError(f"index {index} out of range for GF({self.order})")
        return FieldElement(self, index)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def generator(self) -> FieldElement:
        """The residue class of x (a scalar for degree 1), always primitive."""
        if self.degree == 1:
            return FieldElement(self, (-self.modulus[0]) % self.characteristic)
        return FieldElement(self, self.characteristic)

    def elements(self) -> Iterable[FieldElement]:
        return (FieldElement(self, i) for i in range(self.order))

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
        if self.characteristic == 2:
            return a ^ b
        p = self.characteristic
        out, mult = 0, 1
        for _ in range(self.degree):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg_i(self, a: int) -> int:
        if self.characteristic == 2:
            return a
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
        if self.characteristic == 2:
            # carry-less multiply, then reduce by the modulus bits
            res = 0
            while b:
                if b & 1:
                    res ^= a
                a <<= 1
                b >>= 1
            deg, mod = self.degree, self._mod_int
            for t in range(res.bit_length() - 1, deg - 1, -1):
                if (res >> t) & 1:
                    res ^= mod << (t - deg)
            return res
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

    def _exp_log(self):
        """Lazily built (exp, log) tables; assigned once, benign to race."""
        tables = self._tables
        if tables is None:
            g = self.generator.index
            exp = [1] * (self.order - 1)
            log = [0] * self.order
            v = 1
            for i in range(self.order - 1):
                exp[i] = v
                log[v] = i
                v = self.mul_i(v, g)
            tables = (exp, log)
            self._tables = tables
        return tables

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        if a == 1:
            return 1
        if self.order <= _LOG_TABLE_MAX_ORDER:
            exp, log = self._exp_log()
            return exp[(self.order - 1 - log[a]) % (self.order - 1)]
        return self.pow_i(a, self.order - 2)

    # -- subfields and coordinates ----------------------------------------

    def subfield(self, d: int) -> tuple[FieldElement, ...]:
        """All elements of the subfield of order p^d, sorted by index.

        The result is {0} together with the powers a^(j*(q-1)/(p^d-1)) of
        the generator; closure under + and * is verified before returning.
        """
        p, m = self.characteristic, self.degree
        if d < 1 or m % d != 0:
            raise FieldError(f"no subfield of degree {d} in GF({p}^{m})")
        sub_order = p ** d
        step = (self.order - 1) // (sub_order - 1)
        g = self.generator.index
        idxs = {0, 1}
        v = self.pow_i(g, step)
        w = v
        for _ in range(sub_order - 2):
            idxs.add(w)
            w = self.mul_i(w, v)
        if len(idxs) != sub_order:
            raise FieldError("internal: subfield has wrong size")
        for a in idxs:
            for b in idxs:
                if self.add_i(a, b) not in idxs or self.mul_i(a, b) not in idxs:
                    raise FieldError("internal: subfield not closed")
        return tuple(FieldElement(self, i) for i in sorted(idxs))

    def as_vector(self, elem: FieldElement) -> tuple[int, ...]:
        """Coordinates of elem over the prime field in the basis 1, x, ..., x^(m-1)."""
        if elem.field != self:
            raise FieldError("element belongs to a different field")
        return self.digits_of_index(elem.index)

    def from_vector(self, digits: Sequence[int]) -> FieldElement:
        """Inverse of as_vector."""
        if len(digits) != self.degree:
            raise FieldError(f"expected {self.degree} coordinates, got {len(digits)}")
        return FieldElement(self, self.index_of_digits(digits))

    def subfield_coords(self, elem: FieldElement, d: int) -> tuple[FieldElement, ...]:
        """Coordinates of elem over the order-p^d subfield in the basis 1, x, ..., x^(n-1).

        The n = m/d coordinates are returned as elements of this field that
        happen to lie in the subfield, so no external isomorphism is needed.
        """
        if elem.field != self:
            raise FieldError("element belongs to a different field")
        p, m = self.characteristic, self.degree
        if d < 1 or m % d != 0:
            raise FieldError(f"no subfield of degree {d} in GF({p}^{m})")
        n = m // d
        if d == 1:
            return tuple(FieldElement(self, c) for c in self.digits_of_index(elem.index))
        b = self.pow_i(self.generator.index, (self.order - 1) // (p ** d - 1))
        # GF(p)-basis x^i * b^j of the whole field, one column per (i, j)
        cols = []
        for i in range(n):
            xi = self.pow_i(self.generator.index, i) if i else 1
            for j in range(d):
                bj = self.pow_i(b, j) if j else 1
                cols.append(self.digits_of_index(self.mul_i(xi, bj)))
        sol = _solve_mod_p(cols, self.digits_of_index(elem.index), p)
        coords = []
        for i in range(n):
            acc = 0
            for j in range(d):
                c = sol[i * d + j]
                if c:
                    acc = self.add_i(acc, self.mul_i(c, self.pow_i(b, j) if j else 1))
            coords.append(FieldElement(self, acc))
        return tuple(coords)


def _solve_mod_p(cols: list[tuple[int, ...]], rhs: tuple[int, ...], p: int) -> list[int]:
    """Solve M c = rhs over GF(p) where M has the given columns (square, invertible)."""
    m = len(rhs)
    aug = [[cols[j][i] % p for j in range(m)] + [rhs[i] % p] for i in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [aug[i][m] for i in range(m)]


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
        if not _poly_is_irreducible(coeffs, p):
            continue
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
