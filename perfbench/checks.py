"""Output checks that share no code with rackforge.

Permutations are plain 0-based image tuples here (i -> x[i]), products are
composed by hand, subgroups are closed by brute force, conjugacy orbits are
walked breadth first, and the homology references come from the rack table
alone. Every checker returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import random
import re
from math import factorial

VERDICTS = ("Ax1Fail", "Ax2Fail", "Witness", "Indeterminate")
CASE_TAGS = {"i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii", "xiii", "Ambiguous"}
NO_ROW = re.compile(r"no case matches p=(\d+), m=(\d+), order=(\d+)")
# (p, m, order) of AGL(3,2) = 2^3:L_3(2), for which the case table has no row
AGL_GAP = (7, 8, 1344)

# brute-force closures stop beyond this many elements (|A_8| = 20160)
CLOSURE_CAP = 25_000
ORBIT_CAP = 1_000_000


def compose(a, b):
    """a after b: i -> a[b[i]]."""
    return tuple(a[j] for j in b)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def squares_agree(s, t):
    """(st)^2 == (ts)^2."""
    st = compose(s, t)
    ts = compose(t, s)
    return compose(st, st) == compose(ts, ts)


def support_union(s, t):
    return {i for i in range(len(s)) if s[i] != i or t[i] != i}


def closure_order(gens, cap=CLOSURE_CAP):
    """Order of the group the generators make, by closing {1} under right
    multiplication; cap + 1 once the closure passes the cap."""
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    if len(seen) > cap:
                        return cap + 1
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def orbit_contains(gens, x, target, cap=ORBIT_CAP):
    """Whether target lies in {g x g^-1 : g in <gens>}, by BFS over the
    orbit; None when the orbit passes the cap."""
    pairs = [(g, inverse(g)) for g in gens]
    n = len(x)
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            if y == target:
                return True
            for g, gi in pairs:
                z = tuple(g[y[gi[i]]] for i in range(n))
                if z not in seen:
                    seen.add(z)
                    if len(seen) > cap:
                        return None
                    nxt.append(z)
        frontier = nxt
    return False


def check_pair(p, s, t, verdict, order, group_order=None, witness_expected=True, decide_ax2=False):
    """A type_d_pair verdict on (s, t), both p-cycles as image tuples.

    Ax1Fail must hold exactly when the squares of the two products agree.
    Past Ax1 the reported subgroup order must be a multiple of p dividing
    u!/2 (u the size of the union of the supports) and, when the pair lies
    in a known group, that group's order. A Witness needs t outside s's
    conjugation orbit under <s, t>; with decide_ax2, an Ax2Fail needs t
    inside it.
    """
    problems = []
    if verdict not in VERDICTS:
        return ["unknown verdict %r" % (verdict,)]
    if verdict == "Indeterminate":
        problems.append("indeterminate verdict")
    if (verdict == "Ax1Fail") != squares_agree(s, t):
        problems.append("verdict %s but squares %s" % (verdict, "agree" if squares_agree(s, t) else "differ"))
    if verdict == "Ax1Fail":
        return problems
    u = len(support_union(s, t))
    if not isinstance(order, int) or order < 1 or order % p or (factorial(u) // 2) % order:
        problems.append("subgroup order %r is not a multiple of %d dividing %d!/2" % (order, p, u))
    elif group_order is not None and group_order % order:
        problems.append("subgroup order %d does not divide the group order %d" % (order, group_order))
    if verdict == "Witness":
        if not witness_expected:
            problems.append("a witness where the class is not of type D")
        found = orbit_contains([s, t], s, t)
        if found is None:
            problems.append("witness orbit too large to check")
        elif found:
            problems.append("witness tau is conjugate to sigma in <sigma, tau>")
    if verdict == "Ax2Fail" and decide_ax2 and orbit_contains([s, t], s, t) is not True:
        problems.append("Ax2Fail but tau is not found in sigma's orbit")
    return problems


def check_identification(p, s, t, tag, m, order):
    """An fw_identify answer: a listed tag, m the support-union size, the
    order a multiple of p dividing m!/2, and the tag (xiii), the alternating
    group, exactly when the order is m!/2 (for p >= 5 no other row of the
    table has that order)."""
    problems = []
    u = len(support_union(s, t))
    if tag not in CASE_TAGS:
        problems.append("tag %r outside the case table" % (tag,))
    if m != u:
        problems.append("m = %r but the supports cover %d points" % (m, u))
    if not isinstance(order, int) or order < 1 or order % p or (factorial(u) // 2) % order:
        problems.append("order %r is not a multiple of %d dividing %d!/2" % (order, p, u))
    elif (tag == "xiii") != (order == factorial(u) // 2):
        problems.append("tag %r with order %d on %d points" % (tag, order, u))
    return problems


def check_order_by_closure(gens, order, cap=CLOSURE_CAP):
    """The reported order against a brute-force closure of the generators."""
    size = closure_order(gens, cap)
    if order <= cap:
        return [] if size == order else ["order %d but the closure has %d elements" % (order, size)]
    return [] if size > cap else ["order %d but the closure has only %d elements" % (order, size)]


def check_no_row_failure(p, s, t, message):
    """A failed identification is accepted only as the documented gap: the
    error names (p, m, order) = AGL_GAP, m is the pair's support-union size,
    and a brute-force closure of the pair has exactly that order."""
    found = NO_ROW.search(message)
    if found is None:
        return ["unexpected failure: %s" % message]
    named = tuple(int(v) for v in found.groups())
    if named != AGL_GAP:
        return ["failure names p=%d, m=%d, order=%d, not the AGL(3,2) gap" % named]
    if p != named[0] or len(support_union(s, t)) != named[1]:
        return ["failure names p=%d, m=%d for a pair with p=%d on %d points"
                % (named[0], named[1], p, len(support_union(s, t)))]
    return check_order_by_closure([s, t], named[2])


# -- homology ---------------------------------------------------------------


def inn_orbit_count(table):
    """Orbits of the inner group: y ~ act(x, y) for every x."""
    n = len(table)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in table:
        for y in range(n):
            a, b = find(y), find(row[y])
            if a != b:
                parent[a] = b
    return len({find(y) for y in range(n)})


def d3_slots(table):
    """d3(x, y, z) = (y, z) + (x, yz) - (x, z) - (xy, xz) on pair indices
    a*n + b, zero and repeated columns dropped. Each column has at most four
    entries, returned as four parallel (row, value) lists padded with
    value 0."""
    n = len(table)
    seen = set()
    rows = [[] for _ in range(4)]
    vals = [[] for _ in range(4)]
    for x in range(n):
        row_x = table[x]
        for y in range(n):
            xy = row_x[y]
            row_y = table[y]
            for z in range(n):
                col = {}
                for key, delta in (
                    (y * n + z, 1),
                    (x * n + row_y[z], 1),
                    (x * n + z, -1),
                    (xy * n + row_x[z], -1),
                ):
                    col[key] = col.get(key, 0) + delta
                col = tuple(sorted((k, v) for k, v in col.items() if v))
                if not col or col in seen:
                    continue
                seen.add(col)
                for slot in range(4):
                    key, value = col[slot] if slot < len(col) else (0, 0)
                    rows[slot].append(key)
                    vals[slot].append(value)
    return rows, vals


def _rref_kernel(a, ell, np):
    """Rank of a mod ell and a basis of {f : a f = 0}, by Gauss-Jordan
    elimination in place on an int64 array with entries in [0, ell).

    Entries are reduced only where they are read: the pivot column and the
    pivot row. Each step adds less than ell^2 to an entry, so after d steps
    every entry stays below d * ell^2 + ell, far inside int64 for the sizes
    used here.
    """
    k, d = a.shape
    pivots = []
    r = 0
    for j in range(d):
        if r == k:
            break
        col = a[:, j] % ell
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        i = r + nz[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
            col[[r, i]] = col[[i, r]]
        pivot_row = a[r, j:] * pow(int(col[r]), -1, ell) % ell
        a[r, j:] = pivot_row
        negated = (ell - col) % ell
        negated[r] = 0
        a[:, j:] += np.multiply.outer(negated, pivot_row)
        pivots.append(j)
        r += 1
    pivot_set = set(pivots)
    free = [j for j in range(d) if j not in pivot_set]
    kernel = np.zeros((len(free), d), dtype=np.int64)
    for t, j in enumerate(free):
        kernel[t, j] = 1
        kernel[t, pivots] = (ell - a[:r, j] % ell) % ell
    return r, kernel


def rank_mod(slots, n_rows, ell, seed=0, tries=3):
    """Exact rank of d3 over F_ell.

    d3 is compressed to d3 R for a seeded random R with 32 spare columns,
    so rank(d3 R) <= rank(d3); then every vector of the left kernel of d3 R
    is checked to annihilate d3 itself, which proves the two ranks equal.
    A compression that loses rank fails that proof and is drawn again.
    Entries stay below 2^53, so float arithmetic is exact.
    """
    import numpy as np

    rows = [np.asarray(r, dtype=np.int64) for r in slots[0]]
    vals = [np.asarray(v, dtype=np.int64) for v in slots[1]]
    n_cols = len(rows[0])
    k = min(n_cols, n_rows + 32)
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        compressed = np.zeros((n_rows, k))
        for lo in range(0, n_cols, 2048):
            hi = min(n_cols, lo + 2048)
            block = np.zeros((n_rows, hi - lo))
            for slot_rows, slot_vals in zip(rows, vals):
                block[slot_rows[lo:hi], np.arange(hi - lo)] += slot_vals[lo:hi]
            compressed += block @ rng.integers(0, ell, size=(hi - lo, k)).astype(np.float64)
        compressed = np.ascontiguousarray(compressed.T).astype(np.int64) % ell
        rank, kernel = _rref_kernel(compressed, ell, np)
        residue = np.zeros((kernel.shape[0], n_cols), dtype=np.int64)
        for slot_rows, slot_vals in zip(rows, vals):
            residue += kernel[:, slot_rows] * slot_vals
        if not (residue % ell).any():
            return rank
    raise RuntimeError("random compression lost rank %d times at ell=%d" % (tries, ell))


def _primes_of(values):
    out = set()
    for v in values:
        q = 2
        while q * q <= v:
            while v % q == 0:
                out.add(q)
                v //= q
            q += 1
        if v > 1:
            out.add(v)
    return out


BIG_PRIME = 65521
SMALL_PRIMES = (2, 3, 5, 7)


class H2Reference:
    """What H_2 of one rack table must look like, computed from the table.

    Etingof-Grana: the free rank is (number of Inn-orbits)^2. Torsion: an
    invariant factor of d3 is divisible by a prime ell exactly when the
    rank of d3 drops mod ell, once per such factor; the rank over F_65521
    stands in for the rational rank.
    """

    def __init__(self, table, seed=0):
        self.table = table
        self.n = len(table)
        self.orbits = inn_orbit_count(table)
        self.slots = d3_slots(table)
        self.seed = seed
        self._ranks = {}

    def rank(self, ell):
        if ell not in self._ranks:
            self._ranks[ell] = rank_mod(self.slots, self.n * self.n, ell, seed=self.seed)
        return self._ranks[ell]

    def check(self, free_rank, torsion):
        problems = []
        want_free = self.orbits**2
        if free_rank != want_free:
            problems.append("free rank %r, but %d Inn-orbits give %d" % (free_rank, self.orbits, want_free))
        rational = self.rank(BIG_PRIME)
        if self.n**2 - (self.n - self.orbits) - rational != want_free:
            problems.append("reference ranks disagree with the orbit count")
        torsion = tuple(torsion)
        for ell in sorted(set(SMALL_PRIMES) | _primes_of(torsion)):
            drop = rational - self.rank(ell)
            claimed = sum(1 for d in torsion if d % ell == 0)
            if drop != claimed:
                problems.append(
                    "d3 loses %d rank mod %d, but the torsion %r has %d factors divisible by %d"
                    % (drop, ell, torsion, claimed, ell)
                )
        return problems


def seeded_subset(items, count, seed):
    """A seeded choice of up to count items, in their original order."""
    items = list(items)
    if len(items) <= count:
        return items
    picks = sorted(random.Random(seed).sample(range(len(items)), count))
    return [items[i] for i in picks]
