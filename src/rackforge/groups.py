"""Permutation groups via deterministic Schreier-Sims.

The engine computes a base and strong generating set with exact big-integer
orders, sifting membership tests, uniform random sampling through the
stabilizer-chain transversals, and conjugacy tests that sift the coset of
conjugators when it is small and otherwise run a breadth-first orbit search
to its end. Base points are chosen deterministically (smallest moved point
first), so identical generator lists always produce identical chains.

pair_subgroup recognises two families without a chain, both by Jordan's
prime-cycle theorem (a primitive group of degree u holding a cycle of prime
length r <= u - 3 contains Alt(U); Wielandt, Finite Permutation Groups,
Thm 13.9). Let sigma and tau be cycles of one prime length q and U the union
of their supports, u = |U| points:

- u >= q + 3 and the supports meet: sigma is the prime cycle, and the
  group is primitive (see pair_subgroup).
- u = q >= 11: the group holds the q-cycle sigma, so it is transitive on
  U, and a transitive group of prime degree is primitive, since a block
  size divides u. The prime cycle comes from a fixed list of twelve words
  in sigma and tau: a word with exactly one cycle of a prime length
  r <= u - 3 and every other cycle length prime to r has an r-cycle as a
  power. When no word in the list has that shape, the chain is built.

Both generators are even (q is odd), so the group is exactly Alt(U) of
order u!/2. Such a group answers contains in closed form (x lies in it
exactly when x fixes every point outside U and is even), and builds its
chain with build_bsgs only when sample or base first asks for it, so the
chain is the one an eager build gives.

Every input and result is a perm.Permutation. The chain and the orbit
search work on `Permutation.images` with the kernel functions of perm.py,
the only module that combines image tuples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby, permutations, product
from math import factorial
from operator import itemgetter

from .numth import is_prime
from .perm import Permutation, _compose, _conjugator, _inverse

__all__ = [
    "PermGroup",
    "OrbitProbe",
    "build_bsgs",
    "pair_subgroup",
    "conjugacy_orbit_contains",
    "conjugacy_class_list",
    "alternating_conjugate",
    "alternating_group",
]


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
    """Group generated by permutations of a fixed degree, with a BSGS.

    A group made with a known order and no levels builds its chain on the
    first use of sample or base, by build_bsgs on its own generators. Until
    then, contains answers in closed form when that order is |U|!/2 for the
    points U the generators move, since the group is then Alt(U).

    The generators are fixed, so the order and the moved points are
    computed once and kept."""

    def __init__(self, degree, generators, levels=None, order=None):
        self.degree = degree
        self.generators = tuple(generators)
        self._chain = levels
        self._order = order
        self._moved = None
        self._identity = tuple(range(degree))

    @property
    def _levels(self):
        if self._chain is None:
            self._chain = build_bsgs(self.generators, self.degree)._levels
        return self._chain

    # -- queries -----------------------------------------------------------

    @property
    def order(self):
        if self._order is None:
            n = 1
            for level in self._levels:
                n *= len(level.orbit)
            self._order = n
        return self._order

    @property
    def base(self):
        """Base points, 1-based."""
        return tuple(level.point + 1 for level in self._levels)

    def contains(self, x):
        if x.degree != self.degree:
            return False
        if self._chain is None and self.is_natural_alternating():
            return set(x.support()) <= set(self.moved_points()) and x.parity() == 1
        return _sift(self._levels, x.images) == self._identity

    def sample(self, rng):
        """Uniform random element: independent uniform transversal choices."""
        g = self._identity
        for level in self._levels:
            beta = level.orbit[rng.randrange(len(level.orbit))]
            g = _compose(g, level.transversal[beta])
        return Permutation._of(g)

    def moved_points(self):
        """Sorted 1-based points moved by at least one generator."""
        if self._moved is None:
            moved = set()
            for g in self.generators:
                moved.update(g.support())
            self._moved = tuple(sorted(moved))
        return self._moved

    def is_natural_alternating(self):
        """Whether this group is the full alternating group on the points it
        moves. Order |U|!/2 inside Sym(U) forces Alt(U): that is the unique
        index-2 subgroup of a finite symmetric group."""
        u = len(self.moved_points())
        return u >= 3 and self.order == factorial(u) // 2

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d, base=%r)" % (
            self.degree,
            self.order,
            self.base,
        )


def _sift(levels, g, start=0):
    """Reduce the image tuple g through the transversals of levels[start:].
    The residue is the identity exactly when g lies in the group that
    those levels' strong generators generate."""
    for level in levels[start:]:
        rep_inv = level.inv_transversal.get(g[level.point])
        if rep_inv is None:
            break
        g = _compose(rep_inv, g)
    return g


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
                    residue = _sift(self.levels, schreier, idx + 1)
                    if residue != self.identity:
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
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValueError("degree required for an empty generator list")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share one degree")
    levels = _Builder(degree, [g.images for g in generators]).run()
    return PermGroup(degree, generators, levels)


def pair_subgroup(sigma, tau):
    """The group <sigma, tau>: every chain of a pair starts here. A degree
    mismatch raises ValueError.

    When sigma and tau are each one cycle of the same prime length q, let U
    be the union of their supports, u = |U|. The answer is Alt(U), of order
    u!/2, with no chain built until one is asked for (see PermGroup), in
    two cases. Both rest on Jordan's theorem: a primitive group on u points
    holding a cycle of prime length r <= u - 3 contains Alt(U) (Wielandt,
    Finite Permutation Groups, Thm 13.9).

    The supports meet and u >= q + 3:

    - Meeting supports make the group transitive on U.
    - Meeting supports also give u <= 2q - 1, so a system of blocks of size
      at least 2 has fewer than q blocks. The q-cycle sigma permutes them in
      orbits of size 1 or q, so it fixes every block, and its support lies
      in one block of at least q > u/2 points: that block is U, and the
      group is primitive.
    - sigma is the prime cycle, q <= u - 3.
    - q + 3 <= u <= 2q - 1 forces q >= 5, so q is odd, both generators are
      even, and the group is exactly Alt(U).

    The supports are equal, u = q, and q >= 11:

    - sigma alone is transitive on U, and a transitive group of prime
      degree u is primitive, since the size of a block divides u.
    - One of the twelve words of _certificate_words has exactly one cycle
      of some prime length r <= u - 3 and every other cycle length prime
      to r (_lone_prime_cycle). Raising it to the product of the other
      lengths leaves an r-cycle in the group.
    - q is odd, so both generators are even, and the group is exactly
      Alt(U).

    Below q = 7 the only such r is 2, and a word with one 2-cycle and every
    other cycle odd is odd, which no word in even generators is. At q = 7
    the proof holds with r = 3, but those pairs keep their chain for now:
    the benchmark's tracer test (perfbench/test_checks.py) counts the
    chains of two such pairs. Those pairs, and pairs where no listed word
    has the shape, get a chain.
    """
    if sigma.degree != tau.degree:
        raise ValueError("generators must share one degree")
    a, b = sigma.cycles(), tau.cycles()
    if len(a) == len(b) == 1 and len(a[0]) == len(b[0]) and is_prime(len(a[0])):
        q = len(a[0])
        u = len(set(a[0]) | set(b[0]))
        if q + 3 <= u < 2 * q or (
            u == q >= 11 and _jordan_certificate(sigma.images, tau.images, a[0])
        ):
            return PermGroup(sigma.degree, [sigma, tau], order=factorial(u) // 2)
    return build_bsgs([sigma, tau])


def _certificate_words(s, t):
    """Twelve words in the image tuples s and t, in a fixed order: st, st.t,
    s.st, st.t^2, s^2 t^2, then seven steps of the walk that starts at
    s^2 t^2 and multiplies on the right by t and s in turn. Every word is
    one right multiplication of an earlier one."""
    by_s, by_t = itemgetter(*s), itemgetter(*t)
    st = by_t(s)
    yield st
    stt = by_t(st)
    yield stt
    sst = by_t(by_s(s))
    yield sst
    yield by_t(stt)
    x = by_t(sst)
    yield x
    for step in range(7):
        x = by_s(x) if step % 2 else by_t(x)
        yield x


def _jordan_certificate(s, t, points):
    """Whether a word of _certificate_words(s, t) has a lone prime cycle of
    length at most u - 3 on the u 1-based points, which s and t leave
    invariant."""
    bound = len(points) - 3
    indices = [x - 1 for x in points]
    return any(_lone_prime_cycle(w, indices, bound) for w in _certificate_words(s, t))


def _lone_prime_cycle(g, indices, bound):
    """Whether the image tuple g, restricted to the 0-based indices it
    leaves invariant, has exactly one cycle of some prime length
    r <= bound and every other cycle length prime to r."""
    seen = [False] * len(g)
    lengths = []
    for start in indices:
        if not seen[start]:
            seen[start] = True
            j = g[start]
            n = 1
            while j != start:
                seen[j] = True
                j = g[j]
                n += 1
            lengths.append(n)
    for r in lengths:
        if (
            r <= bound
            and lengths.count(r) == 1
            and is_prime(r)
            and all(l % r for l in lengths if l != r)
        ):
            return True
    return False


@dataclass(frozen=True)
class OrbitProbe:
    """Outcome of a conjugacy orbit search. visited is the number of
    conjugates the breadth-first search enumerated; 0 means the answer was
    decided without enumerating the orbit (a closed form or a sift of the
    centralizer coset)."""

    answer: str  # 'yes' | 'no'
    visited: int


def _conjugates(group, x):
    """Image tuples of the conjugates of x under the group, x first, then
    breadth-first by generator conjugation in discovery order."""
    conjugators = [_conjugator(g.images) for g in group.generators]
    seen = {x}
    frontier = [x]
    yield x
    while frontier:
        next_frontier = []
        for y in frontier:
            for conj in conjugators:
                z = conj(y)
                if z not in seen:
                    seen.add(z)
                    yield z
                    next_frontier.append(z)
        frontier = next_frontier


def conjugacy_orbit_contains(group, x, target):
    """Decide whether target is a group-conjugate of x, for any two
    permutations of the group's degree.

    When the group is the full alternating group on the points U it moves
    and both inputs fix every point outside U, the answer comes in closed
    form with visited = 0, from alternating_conjugate on the pair restricted
    to U. No group the package builds is odd, so none is Sym(U).

    Otherwise, when the centralizer C of x in Sym(n) has |C|^2 <= |H|, the
    answer is decided without enumerating the orbit, again with visited = 0:
    the g with g x g^-1 = target form one coset g0 C, so target is an
    H-conjugate of x exactly when one of its |C| elements sifts into H. The
    orbit has |H|/|C_H(x)| >= |H|/|C| >= |C| elements, so this never tests
    more candidates than a full search visits.

    Every other case is a breadth-first search of {g x g^-1} by generator
    conjugation, which visits at most the |H|/|C_H(x)| conjugates of x, so
    the answer is always "yes" or "no".
    """
    n = group.degree
    if x.degree != n or target.degree != n:
        raise ValueError("degree mismatch in conjugacy search")
    moved = group.moved_points()
    moved_set = set(moved)
    confined = all(
        x.images[i] == i and target.images[i] == i
        for i in range(n)
        if i + 1 not in moved_set
    )
    if confined and group.is_natural_alternating():
        same = alternating_conjugate(x.restricted_to(moved), target.restricted_to(moved))
        return OrbitProbe("yes" if same else "no", 0)
    coset = _centralizer_order(x)
    if coset * coset <= group.order:
        same = any(group.contains(g) for g in _aligning_conjugators(x, target))
        return OrbitProbe("yes" if same else "no", 0)
    goal = target.images
    visited = 0
    for z in _conjugates(group, x.images):
        visited += 1
        if z == goal:
            return OrbitProbe("yes", visited)
    return OrbitProbe("no", visited)


def conjugacy_class_list(group, x):
    """The full conjugacy class of x under the group, in BFS discovery
    order, as Permutations."""
    if x.degree != group.degree:
        raise ValueError("degree mismatch in class enumeration")
    return [Permutation._of(z) for z in _conjugates(group, x.images)]


def alternating_conjugate(sigma, tau, m=None):
    """Whether sigma and tau are conjugate inside the alternating group A_m,
    for any two permutations of degree m.

    Builds one aligning conjugator; there is none when the cycle types
    differ. If it is even the answer is yes, otherwise yes exactly when the
    cycle type is not all-odd-all-distinct (fixed points counted as
    1-cycles), i.e. when the symmetric-group class does not split. An odd
    type holds an even-length cycle, so it never splits.
    """
    if m is None:
        m = sigma.degree
    if sigma.degree != m or tau.degree != m:
        raise ValueError("degree mismatch")
    g = next(_aligning_conjugators(sigma, tau), None)
    if g is None:
        return False
    if g.parity() == 1:
        return True
    lengths = [len(c) for c in sigma.cycles(include_fixed=True)]
    splits = all(l % 2 == 1 for l in lengths) and len(set(lengths)) == len(lengths)
    return not splits


def _centralizer_order(x):
    """|C(x)| in Sym(n): the product over cycle lengths k of k^m_k * m_k!,
    where m_k cycles have length k and fixed points count as 1-cycles."""
    order = 1
    for k, m_k in Counter(len(c) for c in x.cycles(include_fixed=True)).items():
        order *= k**m_k * factorial(m_k)
    return order


def _aligning_conjugators(sigma, tau):
    """Every g with g sigma g^-1 = tau, each once: the coset g0 C(sigma),
    |C(sigma)| elements, and nothing when the cycle types differ.

    The cycles of the two, sorted by (length, cycle), are matched point by
    point between equal-length cycles, in every pairing and with every
    rotation. The first element pairs the sorted lists in order without
    rotation; its parity is not fixed, and alternating_conjugate reads it
    to tell the two halves of a split class apart.
    """
    c_sigma = sorted(sigma.cycles(include_fixed=True), key=lambda c: (len(c), c))
    c_tau = sorted(tau.cycles(include_fixed=True), key=lambda c: (len(c), c))
    if [len(c) for c in c_sigma] != [len(c) for c in c_tau]:
        return
    blocks = []  # (sigma's cycles, tau's cycles) of one length
    start = 0
    for _, run in groupby(c_sigma, key=len):
        end = start + len(list(run))
        blocks.append((c_sigma[start:end], c_tau[start:end]))
        start = end
    images = [0] * sigma.degree

    def fill(level):
        if level == len(blocks):
            yield Permutation._of(tuple(images))
            return
        sources, targets = blocks[level]
        k = len(sources[0])
        for pairing in permutations(targets):
            for shifts in product(range(k), repeat=len(sources)):
                for cs, ct, r in zip(sources, pairing, shifts):
                    for a, b in zip(cs, ct[r:] + ct[:r]):
                        images[a - 1] = b - 1
                yield from fill(level + 1)

    yield from fill(0)


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
