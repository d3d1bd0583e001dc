"""Finite fields GF(q) = GF(s^a) with a deterministic choice of modulus.

An element is its code in 0..q-1: the base-s number sum(c_i s^i) of its
coefficient vector (c_0, ..., c_{a-1}) over GF(s), low degree first. So 0
and 1 are zero and one, and s^t is x^t. The modulus for a > 1 is the monic
irreducible polynomial of degree a whose coefficient vector has the least
code; prime fields use the convention modulus = x. This makes every field
object, and everything built on top (projective point orderings, group
generators), reproducible across runs.
"""

from __future__ import annotations

from .numth import prime_power_decompose

__all__ = [
    "FieldSpec",
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


def _encode(coeffs, s):
    n = 0
    for c in reversed(coeffs):
        n = n * s + c
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
            if not _poly_mod(poly, divisor, s):
                return False
    return True


# -- field spec ----------------------------------------------------------------


class FieldSpec:
    """GF(s^a) with a fixed modulus; owns all arithmetic on element codes."""

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

    def add(self, u, v):
        s = self.s
        out, place = 0, 1
        while u or v:
            out += (u + v) % s * place
            u //= s
            v //= s
            place *= s
        return out

    def mul(self, u, v):
        s, a = self.s, self.a
        product = _poly_mul(_decode(u, s, a), _decode(v, s, a), s)
        return _encode(_poly_mod(product, self.modulus, s), s)

    def pow(self, u, n):
        if n < 0:
            u = self.inv(u)
            n = -n
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, u)
            n >>= 1
            if n:
                u = self.mul(u, u)
        return result

    def inv(self, u):
        if not u:
            raise ZeroDivisionError("inversion of zero in GF(%d)" % self.q)
        return self.pow(u, self.q - 2)


def make_field(q):
    """GF(q) for a prime power q, with the deterministic modulus.

    Prime q uses modulus x; prime powers s^a pick the monic irreducible of
    degree a with the least code, e.g. x^3 + x + 1 for q = 8.
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
    """The least code generating the multiplicative group.

    Order is checked against the factorization of q - 1, so only log-many
    powers are taken per candidate.
    """
    q = field.q
    prime_factors = _factor(q - 1) if q > 2 else []
    for g in range(1, q):
        if all(field.pow(g, (q - 1) // f) != 1 for f in prime_factors):
            return g
    raise AssertionError("no primitive element found, impossible")
