"""Concrete permutation groups and conjugacy classes used by the search:
projective special linear groups acting on projective points, affine
Frobenius groups on a binary field, and the class of p-cycles at a degree.

All constructions are deterministic: point orderings come from the field's
index bijection, so the same (k, r) always yields the same generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import factorial, gcd

from .gf import make_field, primitive_element
from .groups import alternating_group, build_bsgs, conjugacy_class_list, conjugacy_orbit_contains
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

    Each point is a tuple of k field elements whose first nonzero coordinate
    is 1, ordered lexicographically by coordinate indices. `index` maps a
    normalized vector to its 1-based position.
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
        for c in vector:
            if not c.is_zero():
                inv = c.inverse()
                return tuple(v * inv for v in vector)
        raise ValueError("zero vector has no projective point")


def projective_points(k, r):
    """The (r^k - 1)/(r - 1) points of P^(k-1)(F_r) with a stable order."""
    if k < 2:
        raise ValueError("need k >= 2")
    field = make_field(r)
    elements = field.elements()
    zero, one = field.zero(), field.one()

    points = []
    # normalized vectors: first nonzero coordinate is 1, so they are exactly
    # (0,...,0,1,free,...,free) with the 1 in position i
    for lead in range(k):
        tail_len = k - lead - 1
        stack = [()]
        for _ in range(tail_len):
            stack = [t + (e,) for t in stack for e in elements]
        for tail in stack:
            points.append((zero,) * lead + (one,) + tail)

    def sort_key(vec):
        return tuple(field.element_index(c) for c in vec)

    points.sort(key=sort_key)
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
    basis = [field.element_at(field.s**t + 1) for t in range(field.a)]
    # element_at(s^t + 1) is x^t: encoding 1 + sum(c_i s^i) with c_t = 1

    generators = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            for b in basis:
                images = []
                for vec in geometry.points:
                    w = list(vec)
                    w[i] = w[i] + b * vec[j]
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
    increasing order. Deciding H takes one walk of the class of x, of
    |G|/|C_G(x)| elements, or, when G is the full alternating or symmetric
    group on the points it moves, p - 1 closed-form conjugacy tests.
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

    powers = [None] + [x**e for e in range(1, p)]
    if G.is_natural_alternating() or G.is_natural_symmetric():
        h = [e for e in range(1, p) if conjugacy_orbit_contains(G, x, powers[e]).answer == "yes"]
    else:
        walk = {y.images for y in conjugacy_class_list(G, x)}
        h = [e for e in range(1, p) if powers[e].images in walk]
    reps = []
    covered = set()
    for l in range(1, p):
        if l not in covered:
            reps.append(powers[l])
            covered.update(l * e % p for e in h)
    return reps


def affine_frobenius_group(h):
    """The Frobenius group F_q x| F_q^* for q = 2^h, acting on the q field
    elements (labelled by the field's index bijection), generated by the
    translation e -> e + 1 and a dilation e -> g e by a primitive g.
    Order q(q - 1).
    """
    if h < 2:
        raise ValueError("need h >= 2")
    field = make_field(2**h)
    q = field.q
    one = field.one()
    g = primitive_element(field)
    elements = field.elements()
    translation = Permutation(
        field.element_index(e + one) - 1 for e in elements
    )
    dilation = Permutation(field.element_index(g * e) - 1 for e in elements)
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

    @property
    def type_notation(self):
        return "(%s)" % (", ".join(["1"] * (self.m - self.p) + [str(self.p)]))


def natural_class(p, m):
    if not is_prime(p) or p < 5:
        raise ValueError("p must be a prime >= 5")
    if m not in (p, p + 1):
        raise ValueError("m must be p or p+1")
    sigma = Permutation.cycle(list(range(1, p + 1)), m)
    size = factorial(m) // (2 * p * factorial(m - p))
    return NaturalClass(p=p, m=m, sigma=sigma, class_size=size)


def class_elements(p, m):
    """Iterate the full alternating class of the standard p-cycle at degree m,
    each element exactly once.

    Enumerates all p-cycles (support choice times cyclic order anchored at
    the least moved point) and keeps the half lying in the class of
    (1 2 ... p), decided by the parity of an aligning conjugator. The class
    of p-cycles always splits since the type is all-odd-all-distinct.
    """
    from itertools import combinations, permutations

    natural_class(p, m)  # validates the (p, m) combination
    for support in combinations(range(1, m + 1), p):
        for rest in permutations(support[1:]):
            cycle_points = (support[0],) + rest
            # aligning conjugator g: maps the support of sigma, in cycle order,
            # onto cycle_points, and the off-support points onto the rest
            images = [0] * m
            order_sigma = list(range(1, p + 1))
            for a, b in zip(order_sigma, cycle_points):
                images[a - 1] = b - 1
            fixed_sigma = list(range(p + 1, m + 1))
            fixed_tau = [q for q in range(1, m + 1) if q not in support]
            for a, b in zip(fixed_sigma, fixed_tau):
                images[a - 1] = b - 1
            if Permutation(images).parity() == 1:
                yield Permutation.cycle(list(cycle_points), m)


def seeded_conjugates(p, m, seed=0):
    """Endless seeded sample of the class of the standard p-cycle at degree
    m: its conjugates by uniform elements of A_m drawn from
    random.Random(seed), so a seed always gives the same sequence."""
    sigma = natural_class(p, m).sigma
    rng = random.Random(seed)
    ambient = alternating_group(m)
    while True:
        yield conjugate(ambient.sample(rng), sigma)
