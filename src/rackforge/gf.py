"""Finite fields GF(q) = GF(s^a) with a deterministic choice of modulus.

Elements are coefficient vectors over GF(s), low degree first. The modulus
for a > 1 is the monic irreducible polynomial of degree a whose coefficient
vector (c_0, ..., c_{a-1}) has minimal integer encoding sum(c_i s^i); prime
fields use the convention modulus = x. This makes every field object, and
everything built on top (projective point orderings, group generators),
reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numth import is_prime, prime_power_decompose

__all__ = [
    "FieldSpec",
    "FieldElement",
    "make_field",
    "primitive_element",
]


# -- polynomial helpers over GF(s), coefficient tuples low degree first ------


def _trim(coeffs):
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _poly_mul(a, b, s):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % s
    return _trim(out)


def _poly_mod(a, mod, s):
    a = list(a)
    lead_inv = pow(mod[-1], s - 2, s) if mod[-1] != 1 else 1
    while len(a) >= len(mod):
        c = a[-1] * lead_inv % s
        if c:
            off = len(a) - len(mod)
            for i, mi in enumerate(mod):
                a[off + i] = (a[off + i] - c * mi) % s
        a.pop()
    return _trim(a)


def _poly_divides(d, a, s):
    return not _poly_mod(a, d, s)


def _encode(coeffs, s, length):
    n = 0
    for i in range(length):
        c = coeffs[i] if i < len(coeffs) else 0
        n += c * s**i
    return n


def _decode(n, s, length):
    out = []
    for _ in range(length):
        out.append(n % s)
        n //= s
    return tuple(out)


def _is_irreducible(poly, s):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    if deg <= 0:
        return False
    if poly[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        for n in range(s**d):
            divisor = _decode(n, s, d) + (1,)
            if _poly_divides(divisor, poly, s):
                return False
    return True


# -- field spec and elements -------------------------------------------------


class FieldSpec:
    """GF(s^a) with a fixed modulus; owns all arithmetic on coefficient tuples."""

    __slots__ = ("s", "a", "q", "modulus")

    def __init__(self, s, a, modulus):
        self.s = s
        self.a = a
        self.q = s**a
        self.modulus = modulus

    def __repr__(self):
        return "FieldSpec(GF(%d), modulus=%s)" % (self.q, self.modulus_string())

    def modulus_string(self):
        terms = []
        for i in range(len(self.modulus) - 1, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else "x^%d" % i
                terms.append(var if c == 1 else "%d%s" % (c, var))
        return " + ".join(terms) if terms else "0"

    # coefficient-tuple arithmetic (internal fast path)

    def add(self, u, v):
        n = max(len(u), len(v))
        return _trim(
            tuple(
                ((u[i] if i < len(u) else 0) + (v[i] if i < len(v) else 0)) % self.s
                for i in range(n)
            )
        )

    def sub(self, u, v):
        n = max(len(u), len(v))
        return _trim(
            tuple(
                ((u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0)) % self.s
                for i in range(n)
            )
        )

    def mul(self, u, v):
        return _poly_mod(_poly_mul(u, v, self.s), self.modulus, self.s)

    def pow(self, u, n):
        if n < 0:
            u = self.inv(u)
            n = -n
        result = (1,)
        acc = u
        while n:
            if n & 1:
                result = self.mul(result, acc)
            n >>= 1
            if n:
                acc = self.mul(acc, acc)
        return result

    def inv(self, u):
        if not u:
            raise ZeroDivisionError("inversion of zero in GF(%d)" % self.q)
        return self.pow(u, self.q - 2)

    # element objects

    def element(self, coeffs):
        coeffs = _trim(tuple(c % self.s for c in coeffs))
        if len(coeffs) > self.a:
            coeffs = _poly_mod(coeffs, self.modulus, self.s)
        return FieldElement(self, coeffs)

    def zero(self):
        return FieldElement(self, ())

    def one(self):
        return FieldElement(self, (1,))

    def x(self):
        """Residue of the polynomial variable; zero in a prime field since
        the modulus there is x itself."""
        return self.element((0, 1))

    def element_at(self, index):
        """Element with the given index in 1..q, inverse to element_index."""
        if not 1 <= index <= self.q:
            raise ValueError("index %d out of range 1..%d" % (index, self.q))
        return FieldElement(self, _trim(_decode(index - 1, self.s, self.a)))

    def element_index(self, e):
        """Index in 1..q: 1 + sum(c_i s^i), so zero maps to 1."""
        return 1 + _encode(e.coeffs, self.s, self.a)

    def elements(self):
        """All q elements in index order."""
        return [self.element_at(i) for i in range(1, self.q + 1)]


@dataclass(frozen=True)
class FieldElement:
    """Element of a FieldSpec; coeffs is the trimmed low-first vector."""

    field: FieldSpec
    coeffs: tuple

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FieldElement(self.field, self.field.sub((), self.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._check(other)
        return FieldElement(
            self.field, self.field.mul(self.coeffs, self.field.inv(other.coeffs))
        )

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.coeffs, n))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.coeffs))

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else "x^%d" % i
                terms.append(var if c == 1 else "%d%s" % (c, var))
        return " + ".join(terms)

    def multiplicative_order(self):
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = 1
        acc = self
        while not acc.is_one():
            acc = acc * self
            n += 1
        return n


def make_field(q):
    """GF(q) for a prime power q, with the deterministic modulus.

    Prime q uses modulus x; prime powers s^a pick the monic irreducible of
    degree a with minimal integer encoding, e.g. x^3 + x + 1 for q = 8.
    Composite non-prime-power q raises ValueError. Fields up to q = 2^20 are
    supported (the primitive element search factors q - 1 by trial division).
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if q > 2**20:
        raise ValueError("fields beyond 2^20 are not supported")
    decomp = prime_power_decompose(q)
    if decomp is None:
        raise ValueError("%d is not a prime power" % q)
    s, a = decomp
    if a == 1:
        return FieldSpec(s, 1, (0, 1))
    for n in range(s**a):
        candidate = _decode(n, s, a) + (1,)
        if _is_irreducible(candidate, s):
            return FieldSpec(s, a, candidate)
    raise AssertionError("no irreducible polynomial found, impossible")


def _factor(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_element(field):
    """First element in index order generating the multiplicative group.

    Order is checked against the factorization of q - 1, so only log-many
    powers are taken per candidate.
    """
    q = field.q
    prime_factors = _factor(q - 1) if q > 2 else []
    for i in range(2, q + 1):
        g = field.element_at(i)
        if all(
            field.pow(g.coeffs, (q - 1) // f) != (1,) for f in prime_factors
        ):
            return g
    raise AssertionError("no primitive element found, impossible")
