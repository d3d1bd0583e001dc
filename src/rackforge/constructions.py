"""Concrete permutation groups and conjugacy classes used by the search:
projective special linear groups acting on projective points, affine
Frobenius groups on a binary field, and the class of p-cycles at a degree.

All constructions are deterministic: field elements are their codes in
0..q-1 (see gf.py) and points are ordered by their tuples of codes, so the
same (k, r) always yields the same generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, compress, permutations, product
from math import factorial, gcd

from .gf import _factor, make_field, primitive_element
from .groups import alternating_group, build_bsgs, conjugacy_orbit_contains
from .numth import is_prime, prime_power_decompose
from .perm import Permutation, conjugate

__all__ = [
    "ProjectivePointIndex",
    "projective_points",
    "psl_order",
    "psl_permutation_group",
    "order_p_class_reps",
    "affine_frobenius_group",
    "NaturalClass",
    "natural_class",
    "class_elements",
    "seeded_conjugates",
]


@dataclass(frozen=True)
class ProjectivePointIndex:
    """Normalized representatives of the points of P^(k-1)(F_r).

    Each point is a tuple of k field codes whose first nonzero coordinate
    is 1, in increasing tuple order. `index` maps a normalized vector to its
    1-based position.
    """

    field: object
    k: int
    points: tuple
    index: dict

    @property
    def count(self):
        return len(self.points)

    def normalize(self, vector):
        """Scale so the first nonzero coordinate is 1."""
        field = self.field
        for c in vector:
            if c == 1:
                return vector
            if c:
                inv = field.inv(c)
                return tuple(field.mul(v, inv) for v in vector)
        raise ValueError("zero vector has no projective point")


def projective_points(k, r):
    """The (r^k - 1)/(r - 1) points of P^(k-1)(F_r) with a stable order."""
    if k < 2:
        raise ValueError("need k >= 2")
    field = make_field(r)
    # normalized vectors: first nonzero coordinate is 1, so they are exactly
    # (0,...,0,1,free,...,free) with the 1 in position lead
    points = sorted(
        (0,) * lead + (1,) + tail
        for lead in range(k)
        for tail in product(range(field.q), repeat=k - lead - 1)
    )
    index = {vec: i + 1 for i, vec in enumerate(points)}
    return ProjectivePointIndex(field=field, k=k, points=tuple(points), index=index)


def psl_order(k, r):
    """|PSL_k(r)| = r^(k(k-1)/2) * prod_{i=2..k} (r^i - 1) / gcd(k, r-1)."""
    n = r ** (k * (k - 1) // 2)
    for i in range(2, k + 1):
        n *= r**i - 1
    return n // gcd(k, r - 1)


def psl_permutation_group(k, r):
    """PSL_k(r) acting on the points of P^(k-1)(F_r).

    Generators are the transvections E_ij(b) for b in the power basis
    {1, x, ..., x^(a-1)} of F_r; these generate SL_k(r), and the induced
    permutation group on projective points is PSL_k(r) since the kernel of
    the action is the scalar subgroup. The stored group order is checked
    against the closed form.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if prime_power_decompose(r) is None:
        raise ValueError("r must be a prime power")
    geometry = projective_points(k, r)
    field = geometry.field
    degree = geometry.count
    basis = [field.s**t for t in range(field.a)]  # the codes of x^t

    generators = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for b in basis:
                images = []
                for vec in geometry.points:
                    w = list(vec)
                    w[i] = field.add(w[i], field.mul(b, vec[j]))
                    moved = geometry.normalize(tuple(w))
                    images.append(geometry.index[moved] - 1)
                generators.append(Permutation(images))
    group = build_bsgs(generators, degree=degree)
    expected = psl_order(k, r)
    if group.order != expected:
        raise AssertionError(
            "constructed order %d, expected %d" % (group.order, expected)
        )
    return group


def order_p_class_reps(G, p, seed=0):
    """One representative per conjugacy class of order-p elements of G.

    Requires the Sylow p-subgroups to have order exactly p: they are then
    cyclic and all conjugate, so every order-p element is conjugate to a
    power of any one order-p element x, found by powering seeded random
    elements up to their p-part. x^l ~ x^t exactly when x^(t/l) ~ x, so
    H = {e : x^e ~ x} is a subgroup of (Z/p)^* whose cosets are the classes
    of the powers, and the reps are x^l for the least l of each coset, in
    increasing order.

    (Z/p)^* is cyclic, so H is its unique subgroup of order d = |H|, and
    with root a primitive root mod p, the element root^((p-1)/q^c) of order q^c
    lies in H exactly when q^c divides d. So d, and with it H, is decided
    prime by prime: for each prime q dividing p - 1, test c = 1, 2, ...
    while q^c divides p - 1, and stop at the first failure. That is at most
    Omega(p - 1) conjugacy tests x ~ x^e (prime factors counted with
    multiplicity; 4 at p = 307, 6 at p = 757), not p - 1. Each test is in
    closed form when G is the full alternating group on the points it
    moves, else a sift of the |C(x)| conjugators of x onto x^e when
    |C(x)|^2 <= |G|, else an orbit search.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    order = G.order
    if order % p != 0:
        raise ValueError("group order is not divisible by %d" % p)
    if order % (p * p) == 0:
        raise ValueError("Sylow subgroups of order %d required" % p)
    attempts = max(64, 64 * int(math.log(max(order, 2))))
    rng = random.Random(seed)
    x = None
    for _ in range(attempts):
        g = G.sample(rng)
        o = g.order()
        if o % p == 0:
            x = g ** (o // p)
            break
    if x is None:
        raise ValueError("no order-%d element found in %d samples" % (p, attempts))

    root = primitive_element(make_field(p))
    d = 1
    for q in _factor(p - 1):
        c = 1
        while (p - 1) % q**c == 0:
            e = pow(root, (p - 1) // q**c, p)
            if conjugacy_orbit_contains(G, x, x**e).answer != "yes":
                break
            d *= q
            c += 1
    h = [pow(root, (p - 1) // d * j, p) for j in range(d)]
    reps = []
    covered = set()
    for l in range(1, p):
        if l not in covered:
            reps.append(x**l)
            covered.update(l * e % p for e in h)
    return reps


def affine_frobenius_group(h):
    """The Frobenius group F_q x| F_q^* for q = 2^h, acting on the q field
    elements (labelled by their codes), generated by the translation
    e -> e + 1 and a dilation e -> g e by a primitive g.
    Order q(q - 1).
    """
    if h < 2:
        raise ValueError("need h >= 2")
    field = make_field(2**h)
    q = field.q
    g = primitive_element(field)
    translation = Permutation(field.add(e, 1) for e in range(q))
    dilation = Permutation(field.mul(g, e) for e in range(q))
    group = build_bsgs([translation, dilation], degree=q)
    if group.order != q * (q - 1):
        raise AssertionError(
            "constructed order %d, expected %d" % (group.order, q * (q - 1))
        )
    return group


@dataclass(frozen=True)
class NaturalClass:
    """The alternating-group conjugacy class of the standard p-cycle at
    degree m, for m in {p, p+1}; the symmetric class splits, and this is
    the half containing (1 2 ... p)."""

    p: int
    m: int
    sigma: Permutation
    class_size: int


def _check_class(p, m):
    """Raise ValueError unless p is a prime >= 5 and m is p or p+1; builds nothing."""
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if m not in (p, p + 1):
        raise ValueError("m must be p or p+1")


def natural_class(p, m):
    _check_class(p, m)
    sigma = Permutation.cycle(list(range(1, p + 1)), m)
    size = factorial(m) // (2 * p * factorial(m - p))
    return NaturalClass(p=p, m=m, sigma=sigma, class_size=size)


# byte k: parity of the k-th lexicographic permutation, i.e. of k's factorial digit sum
_FLIP = bytes([1, 0]) + bytes(254)
_ODD = b"\0"
for _n in range(2, 8):
    _ODD = b"".join(_ODD.translate(_FLIP) if a & 1 else _ODD for a in range(_n))
_EVEN = _ODD.translate(_FLIP)


def class_elements(p, m):
    """Iterate the full alternating class of the standard p-cycle at degree m,
    each element exactly once.

    Walks the p-cycles by support, then by the lexicographic order of the
    cycle after its least point, and keeps the half whose point arrangement
    (that cycle, then the off-support points in increasing order) is even.
    The arrangement conjugates (1 2 ... p) to the cycle, and at m <= p + 1
    every other such conjugator differs from it by a power of (1 2 ... p),
    which is even. The least point inverts nothing, and the i-th support
    point s_i (from 0) exceeds s_i - i off-support points, so the sign is
    the tail's times that of sum(s_i - i). The tail's last (up to 7) places
    read theirs from a fixed table; each prefix before them adds its own.
    """
    _check_class(p, m)
    identity = list(range(m))
    for support in combinations(range(m), p):
        head, items = support[:1], support[1:]
        cross = sum(support) - p * (p - 1) // 2
        for prefix in permutations(items, max(p - 8, 0)):
            unused = tuple(x for x in items if x not in prefix)
            sign = cross + sum(
                y < x for i, x in enumerate(prefix) for y in prefix[i + 1 :] + unused
            )
            for tail in compress(permutations(unused), _ODD if sign & 1 else _EVEN):
                body = prefix + tail
                images = identity.copy()
                for x, y in zip(head + body, body + head):
                    images[x] = y
                yield Permutation._of(tuple(images))


def seeded_conjugates(p, m, seed=0):
    """Endless seeded sample of the class of the standard p-cycle at degree
    m: its conjugates by uniform elements of A_m drawn from
    random.Random(seed), so a seed always gives the same sequence."""
    sigma = natural_class(p, m).sigma
    rng = random.Random(seed)
    ambient = alternating_group(m)
    while True:
        yield conjugate(ambient.sample(rng), sigma)
