"""Low-degree rack homology over the integers.

Chain groups are free abelian on cartesian powers of the rack; the
boundary maps used here are

    d2(x, y)    = (y) - (xy)
    d3(x, y, z) = (y, z) + (x, yz) - (x, z) - (xy, xz)

writing xy for act(x, y). This is the cellular chain complex of the rack
space (Fenn-Rourke-Sanderson), so d2 . d3 = 0: column (x, y, z) of
d2 . d3 is e_((xy)(xz)) - e_(x(yz)), which self-distributivity, checked
on every triple by `rack.validate_rack`, makes zero. It makes the
invariant factors of d3 exceeding 1 exactly the torsion of H_2 = ker d2 / im d3: the quotient (C_2/im d3) / H_2
embeds in free C_1, hence is torsion free. The group H^2(X, k^x) for an
algebraically closed field is Hom(H_2, k^x), one torus factor per free rank
and one root-of-unity group per invariant factor.

`second_homology` builds neither: by Etingof-Grana, Shapiro's lemma and the
universal coefficients, H_2 is the sum over the orbits of the abelianised
point stabilisers of the adjoint group, and one Smith form on their
Reidemeister-Schreier relation matrix gives it; the theorem and the
presentation are in its docstring. Only `boundary_matrices` builds d2 and
d3.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd

from .perm import _json
from .rack import _close, validate_rack

__all__ = [
    "IntegerMatrix",
    "HomologyResult",
    "boundary_matrices",
    "smith_normal_form",
    "second_homology",
]

SIZE_GUARD = 10**8


@dataclass
class IntegerMatrix:
    """Sparse exact-integer matrix: entries maps (row, col) to a nonzero
    value; absent keys are zero."""

    rows: int
    cols: int
    entries: dict

    def __post_init__(self):
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError("entry (%d, %d) outside %dx%d" % (r, c, self.rows, self.cols))
            if v == 0:
                raise ValueError("explicit zero stored at (%d, %d)" % (r, c))

    @classmethod
    def from_dense(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = int(v)
        return cls(rows, cols, entries)

    @property
    def nnz(self):
        return len(self.entries)

    def multiply(self, other):
        """Exact product self . other."""
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                s = acc.get(key, 0) + v * w
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return IntegerMatrix(self.rows, other.cols, acc)

    def is_zero(self):
        return not self.entries


def size_guard(n):
    """Raise ValueError when an n-element rack is too large for the
    homology routes. n^3 bounds the size of each: the n^3 columns of d3 in
    `boundary_matrices`, and in `second_homology` the n^2 rewrites, one per
    point and coset, and the at most |S| n^2 relator rows, |S| <= n."""
    if n**3 > SIZE_GUARD:
        raise ValueError("rack of size %d exceeds the n^3 <= %d guard" % (n, SIZE_GUARD))


def _generating_points(table):
    """Points S, taken in index order, whose closure under the operation is
    every point.

    A point joins S when it is outside the closure of the points already
    taken; `rack._close` then grows the closure with the new point as the
    only pending one, so the whole walk takes O(n^2) steps.
    """
    members = set()
    chosen = []
    for s in range(len(table)):
        if s not in members:
            chosen.append(s)
            members.add(s)
            _close(table, members, [s])
    return chosen


def _d2(table):
    n = len(table)
    d2 = {}
    for x in range(n):
        row = table[x]
        base = x * n
        for y in range(n):
            t = row[y]
            if t != y:
                d2[(y, base + y)] = 1
                d2[(t, base + y)] = -1
    return IntegerMatrix(n, n * n, d2)


def _d3(table, firsts):
    """d3 restricted to the columns (x, y, z) with x in firsts; the other
    columns keep their numbers x*n^2 + y*n + z and hold no entries. The
    entry order, which sets the Smith form's pivots, is column by column."""
    n = len(table)
    nn = n * n
    d3 = {}
    for x in firsts:
        row_x = table[x]
        for y in range(n):
            xy = row_x[y]
            row_y = table[y]
            base = x * nn + y * n
            for z in range(n):
                col = base + z
                for key, delta in (
                    ((y * n + z, col), 1),
                    ((x * n + row_y[z], col), 1),
                    ((x * n + z, col), -1),
                    ((xy * n + row_x[z], col), -1),
                ):
                    s = d3.get(key, 0) + delta
                    if s:
                        d3[key] = s
                    else:
                        del d3[key]
    return IntegerMatrix(nn, n * nn, d3)


def boundary_matrices(rack):
    """The pair (d2, d3) for the rack, after `rack.validate_rack` has
    checked self-distributivity on every triple, which is d2 . d3 = 0
    column by column.

    Pairs (x, y) index columns of d2 and rows of d3 as x*n + y; triples
    (x, y, z) index columns of d3 as x*n^2 + y*n + z.
    """
    size_guard(rack.size)
    validate_rack(rack.table)
    return _d2(rack.table), _d3(rack.table, range(rack.size))


def _dense_smith(a):
    """Diagonal of a small dense integer matrix, destructively diagonalised.

    Plain Euclidean diagonalisation: bring the least-absolute-value entry to
    the corner, clear its row and column by Euclidean steps, recurse on the
    submatrix. The entries need not divide one another: only the pairwise
    pass of `smith_normal_form` makes the divisibility chain.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    factors = []
    for t in range(min(rows, cols)):
        pr = pc = -1
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pr, pc = i, j
        if best is None:
            break
        a[t], a[pr] = a[pr], a[t]
        for row in a:
            row[t], row[pc] = row[pc], row[t]
        while True:
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        break
            else:
                for j in range(t + 1, cols):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        for i in range(t, rows):
                            a[i][j] -= q * a[i][t]
                        if a[t][j]:
                            for row in a:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    break
        factors.append(abs(a[t][t]))
    return factors


def smith_normal_form(matrix):
    """Invariant factors and rank of an integer matrix, exactly.

    Two phases: sparse elimination on unit entries, then Euclidean
    diagonalisation of the small residual core. Each unit pivot is taken
    from the shortest row holding a +-1 entry, at the unit whose column has
    the fewest entries; rows live in buckets by length, and a unit-free row
    is not scanned again until elimination changes it. A unit is always a
    least-absolute-value pivot, and clearing its column makes the row clear
    by column operations that touch nothing else, so every such step is
    unimodular and the pivot order changes only the time. The core's
    diagonal entries need not divide one another: one pairwise gcd/lcm pass
    over them, and nothing else, makes the chain d1 | d2 | ....
    """
    if isinstance(matrix, IntegerMatrix):
        entries = matrix.entries
    else:
        entries = IntegerMatrix.from_dense(matrix).entries
    row_data = defaultdict(dict)
    col_rows = defaultdict(set)
    for (r, c), v in entries.items():
        row_data[r][c] = v
        col_rows[c].add(r)

    # rows that may hold a unit, bucketed by length; a row found unit-free
    # leaves its bucket and comes back only when elimination changes it
    buckets = {}
    for r, row in row_data.items():
        buckets.setdefault(len(row), set()).add(r)

    units = 0
    while buckets:
        length = min(buckets)
        bucket = buckets[length]
        r = bucket.pop()
        if not bucket:
            del buckets[length]
        pivot_row = row_data[r]
        # the first unit, in row order, whose column has the fewest entries
        c = None
        for cc, vv in pivot_row.items():
            if (vv == 1 or vv == -1) and (c is None or len(col_rows[cc]) < fewest):
                c = cc
                fewest = len(col_rows[cc])
        if c is None:
            continue
        v = pivot_row.pop(c)
        del row_data[r]
        # row s becomes row_s - row_s[c] * v * pivot_row; entry c cancels
        # since v * v = 1, and each other column cc gains row_s[c] * w
        update = []
        for cc, vv in pivot_row.items():
            rows_cc = col_rows[cc]
            rows_cc.discard(r)
            update.append((cc, -v * vv, rows_cc))
        pivot_rows = col_rows.pop(c)
        pivot_rows.discard(r)
        for s in pivot_rows:
            row_s = row_data[s]
            old = buckets.get(len(row_s))
            if old is not None:
                old.discard(s)
                if not old:
                    del buckets[len(row_s)]
            f = row_s.pop(c)
            for cc, w, rows_cc in update:
                nv = row_s.get(cc)
                if nv is None:
                    row_s[cc] = f * w
                    rows_cc.add(s)
                else:
                    nv += f * w
                    if nv:
                        row_s[cc] = nv
                    else:
                        del row_s[cc]
                        rows_cc.discard(s)
            if row_s:
                buckets.setdefault(len(row_s), set()).add(s)
            else:
                del row_data[s]
        units += 1

    factors = []
    if row_data:
        live_rows = sorted(row_data)
        live_cols = sorted({c for row in row_data.values() for c in row})
        col_pos = {c: j for j, c in enumerate(live_cols)}
        core = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in row_data[r].items():
                core[i][col_pos[c]] = v
        factors = _dense_smith(core)

    # diag(a, b) and diag(gcd, lcm) are equivalent, so one pairwise pass
    # settles the divisibility chain; the units' factors of 1 divide all
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[j] % factors[i]:
                g = gcd(factors[i], factors[j])
                factors[i], factors[j] = g, factors[i] * factors[j] // g
    return (1,) * units + tuple(factors), units + len(factors)


@dataclass(frozen=True)
class HomologyResult:
    """H_2 of a rack: free rank plus the torsion invariant factors, each
    at least 2, in a divisibility chain."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion factor %d below 2" % d)
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise ValueError("torsion chain broken at position %d" % i)

    @property
    def pretty(self):
        """H^2(X, k^x) = Hom(H_2, k^x) for algebraically closed k: one torus
        factor per free rank, one root-of-unity group per torsion factor."""
        parts = ["k^×"] * self.free_rank + ["G_%d" % d for d in self.torsion]
        return " × ".join(parts) if parts else "1"

    def to_json_dict(self):
        return {**_json(self), "pretty": self.pretty}


def second_homology(rack):
    """H_2(X, Z) as free rank and torsion chain.

    The table is checked as `boundary_matrices` checks it: every row a
    bijection and self-distributivity on every triple.

    Etingof-Grana (On rack cohomology, JPAA 178, 2003) give H^2(X, A) =
    H^1(Adj(X), Fun(X, A)) for the adjoint group Adj(X) = <e_x | e_x e_y
    e_x^-1 = e_(xy)>, acting on X through the rows. Fun(X, A) is the sum
    over the orbits O of the modules coinduced from the stabiliser of a
    point x_O, so Shapiro's lemma makes it the sum of Hom(Stab(x_O), A); with the
    universal coefficients, and H_1 free, H_2(X) is the sum over the orbits
    of the abelianised Stab(x_O).

    The presentation used has the generators e_s, s in S =
    `_generating_points`, and the relators e_s e_y e_s^-1 = e_(sy) for s in
    S and every y. The relators with first point x follow for every x: if
    they hold for s and t, conjugating by e_(st) = e_s e_t e_s^-1 acts as
    the row of st, by self-distributivity, and the points so covered are
    closed under the operation and contain S. A breadth-first walk from S
    under the rows of S writes every e_z as e_s e_y e_s^-1 for z = sy,
    with y reached earlier.

    Each stabiliser is presented by Reidemeister-Schreier on a
    breadth-first transversal of its orbit: the Schreier generator (c, s),
    the transversal's inverse at sc times e_s times its entry at c, is a
    column unless the walk first reached sc from c along s, so an orbit
    has |O|(|S| - 1) + 1 columns. Each relator rewritten from each coset
    is a row. The breadth-first walk from S visits each pair (s, y), y in
    the order reached and s in S, once, and rewrites e_s e_y e_s^-1 from
    each coset sd as R(y, d) - (d, s) + (yd, s). At the first pair
    reaching z = sy that is the rewrite R(z, sd) of e_z, and the relator
    vanishes; at every later pair the relator (s, y) from coset d is that
    sum minus R(z, sd). The orbits are column blocks of one matrix, so one
    Smith form gives the torsion as one chain, and the free rank is the
    columns minus the rank.
    """
    size_guard(rack.size)
    validate_rack(rack.table)
    relations = _stabiliser_relations(rack.table)
    factors, rank = smith_normal_form(relations)
    torsion = tuple(d for d in factors if d > 1)
    return HomologyResult(free_rank=relations.cols - rank, torsion=torsion)


def _stabiliser_relations(table):
    """The abelianised relation matrix of the point stabilisers of
    `second_homology`, one column block per orbit: rows are the rewritten
    relators, columns the Schreier generators off the transversal tree."""
    n = len(table)
    generators = _generating_points(table)

    # gamma[s][c]: the column of Schreier generator (c, s), None on the tree
    gamma = {s: [None] * n for s in generators}
    cols = 0
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for c in orbit:
            for s in generators:
                d = table[s][c]
                if seen[d]:
                    gamma[s][c] = cols
                    cols += 1
                else:
                    seen[d] = True
                    orbit.append(d)

    # rewrite[z][c]: e_z rewritten from coset c, as {column: coefficient},
    # set at the first pair (s, y) of the walk with z = act(s, y); every
    # later pair gives the relator rows
    rewrite = {s: [{} if g is None else {g: 1} for g in gamma[s]] for s in generators}
    order = list(generators)
    entries = {}
    rows = 0
    for y in order:
        row_y, from_y = table[y], rewrite[y]
        for s in generators:
            row_s, gamma_s = table[s], gamma[s]
            shifted = [None] * n
            for d in range(n):
                shifted[row_s[d]] = _shifted(from_y[d], gamma_s[d], gamma_s[row_y[d]])
            z = row_s[y]
            from_z = rewrite.get(z)
            if from_z is None:
                rewrite[z] = shifted
                order.append(z)
                continue
            for relator, known in zip(shifted, from_z):
                for col, v in known.items():
                    v = relator.get(col, 0) - v
                    if v:
                        relator[col] = v
                    else:
                        del relator[col]
                if relator:
                    for col, v in relator.items():
                        entries[(rows, col)] = v
                    rows += 1
    return IntegerMatrix(rows, cols, entries)


def _shifted(vector, minus, plus):
    """A copy of vector, {column: coefficient}, less column minus and plus
    column plus, where None stands for no column."""
    out = dict(vector)
    for col, delta in ((minus, -1), (plus, 1)):
        if col is not None:
            v = out.get(col, 0) + delta
            if v:
                out[col] = v
            else:
                del out[col]
    return out
