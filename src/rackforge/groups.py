"""Permutation groups via deterministic Schreier-Sims.

The engine computes a base and strong generating set with exact big-integer
orders, sifting membership tests, uniform random sampling through the
stabilizer-chain transversals, and a capped breadth-first conjugacy orbit
search. Base points are chosen deterministically (smallest moved point
first), so identical generator lists always produce identical chains.

Internally permutations are raw 0-based image tuples; the public surface
uses perm.Permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .perm import Permutation

__all__ = [
    "PermGroup",
    "OrbitProbe",
    "build_bsgs",
    "conjugacy_orbit_contains",
    "conjugacy_class_list",
    "alternating_conjugate",
    "alternating_group",
    "symmetric_group",
]


def _compose(a, b):
    """(a.b)(i) = a(b(i)) on raw image tuples."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _conj(g, x, g_inv):
    """g x g^-1 on raw tuples, with g_inv precomputed."""
    return tuple(g[x[g_inv[i]]] for i in range(len(g)))


class _Level:
    """One stabilizer-chain level: base point, own generators, transversal."""

    __slots__ = ("point", "gens", "transversal", "inv_transversal", "orbit", "progress", "dirty")

    def __init__(self, point, identity):
        self.point = point
        self.gens = []           # (gid, perm) pairs whose depth is exactly this level
        self.transversal = {point: identity}
        self.inv_transversal = {point: identity}
        self.orbit = [point]     # discovery order
        self.progress = {}       # gid -> orbit prefix length already sifted against
        self.dirty = False       # orbit must be extended before further processing


class PermGroup:
    """Group generated by permutations of a fixed degree, with a BSGS."""

    def __init__(self, degree, generators, levels, identity):
        self.degree = degree
        self.generators = tuple(generators)
        self._levels = levels
        self._identity = identity

    # -- queries -----------------------------------------------------------

    @property
    def order(self):
        n = 1
        for level in self._levels:
            n *= len(level.orbit)
        return n

    @property
    def base(self):
        """Base points, 1-based."""
        return tuple(level.point + 1 for level in self._levels)

    def contains(self, x):
        if isinstance(x, Permutation):
            x = x.images
        if len(x) != self.degree:
            return False
        return self._sift(x) is None

    def _sift(self, g):
        """Reduce g through the chain; None when g factors completely,
        else (residue, level_index)."""
        for idx, level in enumerate(self._levels):
            beta = g[level.point]
            rep_inv = level.inv_transversal.get(beta)
            if rep_inv is None:
                return (g, idx)
            g = _compose(rep_inv, g)
        if g == self._identity:
            return None
        return (g, len(self._levels))

    def sample(self, rng):
        """Uniform random element: independent uniform transversal choices."""
        g = self._identity
        for level in self._levels:
            beta = level.orbit[rng.randrange(len(level.orbit))]
            g = _compose(g, level.transversal[beta])
        return Permutation(g)

    def moved_points(self):
        """Sorted 1-based points moved by at least one generator."""
        moved = set()
        for g in self.generators:
            moved.update(g.support())
        return tuple(sorted(moved))

    def is_natural_alternating(self):
        """Whether this group is the full alternating group on the points it
        moves. Order |U|!/2 inside Sym(U) forces Alt(U): that is the unique
        index-2 subgroup of a finite symmetric group."""
        u = len(self.moved_points())
        return u >= 3 and self.order == factorial(u) // 2

    def is_natural_symmetric(self):
        """Whether this group is the full symmetric group on the points it
        moves."""
        u = len(self.moved_points())
        return u >= 2 and self.order == factorial(u)

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d, base=%r)" % (
            self.degree,
            self.order,
            self.base,
        )


def _smallest_moved(g):
    for i, j in enumerate(g):
        if i != j:
            return i
    return None


class _Builder:
    def __init__(self, degree, gens):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels = []
        self.input_gens = gens
        self.next_gid = 0

    def run(self):
        for g in self.input_gens:
            self._place(g)
        i = len(self.levels) - 1
        while i >= 0:
            added_at = self._check_level(i)
            if added_at is None:
                i -= 1
            else:
                i = added_at
        return self.levels

    def _place(self, g):
        """Insert a nontrivial element at its depth (number of leading base
        points it fixes), creating a new level when it fixes them all. Orbits
        of the affected levels are marked stale."""
        if g == self.identity:
            return None
        depth = 0
        for level in self.levels:
            if g[level.point] != level.point:
                break
            depth += 1
        if depth == len(self.levels):
            self.levels.append(_Level(_smallest_moved(g), self.identity))
        self.levels[depth].gens.append((self.next_gid, g))
        self.next_gid += 1
        for level in self.levels[: depth + 1]:
            level.dirty = True
        return depth

    def _gens_at(self, idx):
        """Strong generators of the idx-th stabilizer group: everything whose
        depth is at least idx, with their stable ids."""
        out = []
        for level in self.levels[idx:]:
            out.extend(level.gens)
        return out

    def _extend_orbit(self, idx):
        level = self.levels[idx]
        gens = [g for _, g in self._gens_at(idx)]
        frontier = list(level.orbit)
        while frontier:
            next_frontier = []
            for beta in frontier:
                rep = level.transversal[beta]
                for s in gens:
                    gamma = s[beta]
                    if gamma not in level.transversal:
                        new_rep = _compose(s, rep)
                        level.transversal[gamma] = new_rep
                        level.inv_transversal[gamma] = _inverse(new_rep)
                        level.orbit.append(gamma)
                        next_frontier.append(gamma)
            frontier = next_frontier
        level.dirty = False

    def _sift_from(self, idx, g):
        """Sift g through levels idx..end; None if it vanishes, else
        (residue, drop_level)."""
        for j in range(idx, len(self.levels)):
            level = self.levels[j]
            beta = g[level.point]
            rep_inv = level.inv_transversal.get(beta)
            if rep_inv is None:
                return (g, j)
            g = _compose(rep_inv, g)
        if g == self.identity:
            return None
        return (g, len(self.levels))

    def _check_level(self, idx):
        """Sift every unprocessed Schreier generator of level idx. Returns the
        level index where a residue was inserted, or None when the level is
        verified complete (given deeper levels complete).

        A Schreier generator whose sift leaves a residue counts as handled
        once the residue joins the strong set: it then factors through the
        deeper transversals and the new generator by construction.
        """
        level = self.levels[idx]
        while True:
            if level.dirty:
                self._extend_orbit(idx)
            advanced = False
            orbit_len = len(level.orbit)
            for gid, s in self._gens_at(idx):
                start = level.progress.get(gid, 0)
                if start >= orbit_len:
                    continue
                advanced = True
                for pos in range(start, orbit_len):
                    beta = level.orbit[pos]
                    gamma = s[beta]
                    schreier = _compose(
                        level.inv_transversal[gamma],
                        _compose(s, level.transversal[beta]),
                    )
                    if schreier == self.identity:
                        continue
                    result = self._sift_from(idx + 1, schreier)
                    if result is not None:
                        residue, _ = result
                        level.progress[gid] = pos + 1
                        return self._place(residue)
                level.progress[gid] = orbit_len
            if not advanced:
                return None


def build_bsgs(generators, degree=None):
    """Base and strong generating set for the group the generators produce.

    Deterministic: base points are smallest-moved-point first and the chain
    depends only on the generator list order. Orders up to alternating degree
    24 and beyond are exact big integers.
    """
    gens = []
    for g in generators:
        if isinstance(g, Permutation):
            gens.append(g.images)
        else:
            gens.append(tuple(g))
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators must share one degree")
    levels = _Builder(degree, gens).run()
    return PermGroup(degree, [Permutation(g) for g in gens], levels, tuple(range(degree)))


@dataclass(frozen=True)
class OrbitProbe:
    """Outcome of a capped conjugacy orbit search."""

    answer: str  # 'yes' | 'no' | 'capped'
    visited: int
    cap: int


def conjugacy_orbit_contains(group, x, target, cap=10_000_000):
    """Decide whether target is a group-conjugate of x.

    Breadth-first search of {g x g^-1} by generator conjugation with a
    visited-set cap. When the group is the full alternating (or symmetric)
    group on its degree the answer comes from the class-splitting criterion
    instead of enumeration.
    """
    if isinstance(x, Permutation):
        x = x.images
    if isinstance(target, Permutation):
        target = target.images
    n = group.degree
    if len(x) != n or len(target) != n:
        raise ValueError("degree mismatch in conjugacy search")
    moved = group.moved_points()
    moved_set = set(moved)
    confined = all(
        x[i] == i and target[i] == i
        for i in range(n)
        if i + 1 not in moved_set
    )
    if confined and group.is_natural_alternating():
        xr = Permutation(x).restricted_to(moved)
        tr = Permutation(target).restricted_to(moved)
        if xr.parity() == 1 and tr.parity() == 1:
            answer = alternating_conjugate(xr, tr, len(moved))
            return OrbitProbe("yes" if answer else "no", 0, cap)
        if xr.parity() != tr.parity():
            return OrbitProbe("no", 0, cap)
        # both odd: some even-length cycle centralizes, so the class does
        # not split and conjugacy reduces to equal cycle type
        same = _sorted_type(x) == _sorted_type(target)
        return OrbitProbe("yes" if same else "no", 0, cap)
    if confined and group.is_natural_symmetric():
        same = _sorted_type(x) == _sorted_type(target)
        return OrbitProbe("yes" if same else "no", 0, cap)
    gens = [(g.images, _inverse(g.images)) for g in group.generators]
    if x == target:
        return OrbitProbe("yes", 1, cap)
    start = bytes(x) if n < 256 else tuple(x)
    goal = bytes(target) if n < 256 else tuple(target)
    seen = {start}
    frontier = [x]
    visited = 1
    while frontier:
        next_frontier = []
        for y in frontier:
            for g, g_inv in gens:
                z = _conj(g, y, g_inv)
                key = bytes(z) if n < 256 else z
                if key in seen:
                    continue
                if key == goal:
                    return OrbitProbe("yes", visited + 1, cap)
                seen.add(key)
                visited += 1
                if visited > cap:
                    return OrbitProbe("capped", visited, cap)
                next_frontier.append(z)
        frontier = next_frontier
    return OrbitProbe("no", visited, cap)


def conjugacy_class_list(group, x, cap=10_000_000):
    """The full conjugacy class of x under the group, in BFS discovery
    order, as Permutations. Raises when the class exceeds the cap."""
    if isinstance(x, Permutation):
        x = x.images
    n = group.degree
    if len(x) != n:
        raise ValueError("degree mismatch in class enumeration")
    gens = [(g.images, _inverse(g.images)) for g in group.generators]
    seen = {x}
    out = [x]
    frontier = [x]
    while frontier:
        next_frontier = []
        for y in frontier:
            for g, g_inv in gens:
                z = _conj(g, y, g_inv)
                if z not in seen:
                    seen.add(z)
                    out.append(z)
                    if len(out) > cap:
                        raise ValueError("conjugacy class larger than cap %d" % cap)
                    next_frontier.append(z)
        frontier = next_frontier
    return [Permutation(z) for z in out]


def _sorted_type(images):
    lengths = []
    seen = [False] * len(images)
    for i in range(len(images)):
        if seen[i]:
            continue
        l = 1
        seen[i] = True
        j = images[i]
        while j != i:
            seen[j] = True
            l += 1
            j = images[j]
        lengths.append(l)
    return tuple(sorted(lengths))


def alternating_conjugate(sigma, tau, m=None):
    """Whether sigma and tau are conjugate inside the alternating group A_m.

    Both inputs must be even permutations of degree m. Builds one aligning
    conjugator; if it is even the answer is yes, otherwise yes exactly when
    the cycle type is not all-odd-all-distinct (fixed points counted as
    1-cycles), i.e. when the symmetric-group class does not split.
    """
    if m is None:
        m = sigma.degree
    if sigma.degree != m or tau.degree != m:
        raise ValueError("degree mismatch")
    if sigma.parity() != 1 or tau.parity() != 1:
        raise ValueError("alternating_conjugate needs even permutations")
    c_sigma = sorted(sigma.cycles(include_fixed=True), key=lambda c: (len(c), c))
    c_tau = sorted(tau.cycles(include_fixed=True), key=lambda c: (len(c), c))
    if [len(c) for c in c_sigma] != [len(c) for c in c_tau]:
        return False
    images = [0] * m
    for cs, ct in zip(c_sigma, c_tau):
        for a, b in zip(cs, ct):
            images[a - 1] = b - 1
    conjugator = Permutation(images)
    if conjugator.parity() == 1:
        return True
    lengths = [len(c) for c in c_sigma]
    splits = all(l % 2 == 1 for l in lengths) and len(set(lengths)) == len(lengths)
    return not splits


def alternating_group(m):
    """A_m with the standard pair of generators."""
    if m < 3:
        raise ValueError("alternating_group needs m >= 3")
    three = Permutation.cycle([1, 2, 3], m)
    if m == 3:
        return build_bsgs([three])
    if m % 2 == 1:
        long_cycle = Permutation.cycle(list(range(1, m + 1)), m)
    else:
        long_cycle = Permutation.cycle(list(range(2, m + 1)), m)
    return build_bsgs([three, long_cycle])


def symmetric_group(m):
    """S_m generated by a transposition and an m-cycle."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    if m == 1:
        return build_bsgs([Permutation.identity(1)], degree=1)
    swap = Permutation.cycle([1, 2], m)
    if m == 2:
        return build_bsgs([swap])
    return build_bsgs([swap, Permutation.cycle(list(range(1, m + 1)), m)])
