"""Finite racks as explicit operation tables.

A rack is a finite set with a binary operation, written act(x, y) for
x acting on y, such that every left translation is a bijection and the
self-distributive law x(yz) = (xy)(xz) holds. The main source here is
conjugation: a set of permutations closed under mutual conjugation forms
a rack with x acting on y as x y x^-1, and the alternating class of a
p-cycle is the central example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import class_elements
from .groups import conjugacy_orbit_contains, pair_subgroup
from .perm import Permutation, _compose, _conj, format_cycles

__all__ = [
    "FiniteRack",
    "validate_rack",
    "conjugation_rack",
    "class_rack",
    "subrack_closure",
    "maximal_abelian_subrack_through",
    "TypeDResult",
    "TypeDWitness",
    "type_d_pair",
]


class FiniteRack:
    """Rack on points 0..n-1 with table[x][y] = act(x, y).

    Optional labels name the points for reports. Conjugation racks also
    carry the underlying permutations in `elements`; that field is runtime
    convenience only and does not enter equality or serialization.
    """

    __slots__ = ("table", "labels", "elements")

    def __init__(self, table, labels=None, elements=None, check=True):
        tab = tuple(tuple(row) for row in table)
        if check:
            validate_rack(tab)
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(tab):
                raise ValueError("label count does not match rack size")
        if elements is not None:
            elements = tuple(elements)
            if len(elements) != len(tab):
                raise ValueError("element count does not match rack size")
        self.table = tab
        self.labels = labels
        self.elements = elements

    @property
    def size(self):
        return len(self.table)

    def act(self, x, y):
        return self.table[x][y]

    def __eq__(self, other):
        if not isinstance(other, FiniteRack):
            return NotImplemented
        return self.table == other.table and self.labels == other.labels

    def __repr__(self):
        return "FiniteRack(size=%d)" % self.size

    def to_json_dict(self):
        """Portable form with 1-based table entries."""
        out = {
            "size": self.size,
            "table": [[v + 1 for v in row] for row in self.table],
        }
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json_dict(cls, data):
        """Read the portable form, which is untrusted: any malformed shape,
        type or value raises ValueError."""
        if not isinstance(data, dict) or "size" not in data or "table" not in data:
            raise ValueError("a rack needs 'size' and 'table' fields")
        n = data["size"]
        table = data["table"]
        if type(n) is not int or not isinstance(table, list) or len(table) != n:
            raise ValueError("table size disagrees with the size field")
        rows = []
        for row in table:
            if not isinstance(row, list) or len(row) != n:
                raise ValueError("table rows must be lists of size entries")
            if not all(type(v) is int and 1 <= v <= n for v in row):
                raise ValueError("table entries must be integers 1..size")
            rows.append(tuple(v - 1 for v in row))
        labels = data.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ValueError("labels must be a list")
        return cls(rows, labels=labels, check=True)


def validate_rack(table):
    """Raise ValueError unless the table is a rack.

    Checks that rows are bijections and that self-distributivity holds, in
    the translation form: the row of act(x, y) equals row_x . row_y .
    row_x^-1, verified pairwise as act(x, act(y, z)) = act(act(x, y),
    act(x, z)) for all z at once.
    """
    tab = tuple(tuple(row) for row in table)
    n = len(tab)
    full = set(range(n))
    for x, row in enumerate(tab):
        if len(row) != n:
            raise ValueError("row %d has length %d, expected %d" % (x, len(row), n))
        if set(row) != full:
            raise ValueError("row %d is not a bijection of 0..%d" % (x, n - 1))
    for x in range(n):
        tx = tab[x]
        for y in range(n):
            lhs = _compose(tx, tab[y])
            rhs = _compose(tab[tx[y]], tx)
            if lhs != rhs:
                for z in range(n):
                    if lhs[z] != rhs[z]:
                        raise ValueError(
                            "self-distributivity fails at (%d, %d, %d)" % (x, y, z)
                        )


def conjugation_rack(perms):
    """Rack on a list of distinct permutations with x acting as conjugation.

    The list must be closed under mutual conjugation. Rows are bijections
    and self-distributivity holds automatically, so no table validation is
    run. Labels are cycle strings.
    """
    elems = list(perms)
    if not elems:
        raise ValueError("a rack needs at least one element")
    degree = elems[0].degree
    if any(g.degree != degree for g in elems):
        raise ValueError("elements must share one degree")
    index = {g.images: i for i, g in enumerate(elems)}
    if len(index) != len(elems):
        raise ValueError("elements must be distinct")
    rows = []
    for g in elems:
        row = []
        for h in elems:
            ki = index.get(_conj(g.images, h.images))
            if ki is None:
                raise ValueError(
                    "not closed under conjugation: %s maps %s outside the set"
                    % (format_cycles(g), format_cycles(h))
                )
            row.append(ki)
        rows.append(tuple(row))
    labels = [format_cycles(g) for g in elems]
    return FiniteRack(rows, labels=labels, elements=elems, check=False)


def class_rack(p, m):
    """Conjugation rack on the whole alternating class of the standard
    p-cycle at degree m, size m!/(2 p (m-p)!)."""
    return conjugation_rack(list(class_elements(p, m)))


def subrack_closure(rack, seeds):
    """Indices of the smallest subrack containing the seeds.

    Closure under the operation alone suffices: each translation restricted
    to a finite closed subset is injective, hence bijective, so the inverse
    translations stay inside automatically.
    """
    table = rack.table
    members = set(seeds)
    if not members:
        return frozenset()
    if not all(0 <= s < rack.size for s in members):
        raise ValueError("seed out of range")
    queue = list(members)
    while queue:
        f = queue.pop()
        row_f = table[f]
        for x in list(members):
            for val in (row_f[x], table[x][f]):
                if val not in members:
                    members.add(val)
                    queue.append(val)
    return frozenset(members)


def maximal_abelian_subrack_through(rack, x):
    """Largest subrack containing x on which the operation is trivial,
    act(a, b) = b for all members a, b. Exact branch and bound maximum
    clique over the compatibility graph of x's neighborhood."""
    table = rack.table
    n = rack.size
    if table[x][x] != x:
        raise ValueError("point %d is not idempotent, no abelian subrack holds it" % x)
    neigh = [
        y
        for y in range(n)
        if y != x and table[x][y] == y and table[y][x] == x and table[y][y] == y
    ]
    adj = {y: set() for y in neigh}
    for i, a in enumerate(neigh):
        for b in neigh[i + 1 :]:
            if table[a][b] == b and table[b][a] == a:
                adj[a].add(b)
                adj[b].add(a)

    best = []

    def extend(clique, candidates):
        nonlocal best
        if len(clique) + len(candidates) <= len(best):
            return
        if not candidates:
            if len(clique) > len(best):
                best = list(clique)
            return
        pivot = max(candidates, key=lambda v: len(adj[v] & candidates))
        for v in list(candidates - adj[pivot]):
            clique.append(v)
            extend(clique, candidates & adj[v])
            clique.pop()
            candidates = candidates - {v}

    extend([], set(neigh))
    return frozenset([x] + best)


@dataclass(frozen=True)
class TypeDWitness:
    """A verified pair: the squares of the two products differ and the two
    elements are not conjugate in the subgroup they generate. Stores enough
    evidence to re-run both checks from scratch."""

    sigma: Permutation
    tau: Permutation
    st_squared: Permutation
    ts_squared: Permutation
    subgroup_order: int
    orbit_answer: str

    def verify(self):
        """Re-check both conditions directly from the stored pair."""
        result = type_d_pair(self.sigma, self.tau)
        return (
            result.verdict == "Witness"
            and result.witness.st_squared == self.st_squared
            and result.witness.ts_squared == self.ts_squared
            and result.witness.subgroup_order == self.subgroup_order
        )

    def to_json_dict(self):
        return {
            "sigma": self.sigma.to_json_dict(),
            "tau": self.tau.to_json_dict(),
            "subgroup_order": self.subgroup_order,
            "orbit_answer": self.orbit_answer,
        }

    @classmethod
    def from_json_dict(cls, data):
        if type(data["subgroup_order"]) is not int:
            raise ValueError("subgroup_order must be an integer")
        sigma = Permutation.from_json_dict(data["sigma"])
        tau = Permutation.from_json_dict(data["tau"])
        st = sigma * tau
        ts = tau * sigma
        return cls(
            sigma=sigma,
            tau=tau,
            st_squared=st * st,
            ts_squared=ts * ts,
            subgroup_order=data["subgroup_order"],
            orbit_answer=data["orbit_answer"],
        )


@dataclass(frozen=True)
class TypeDResult:
    """Verdict on a pair: Ax1Fail, Ax2Fail, Witness, or Indeterminate when
    the conjugacy search inside the generated subgroup hit its cap."""

    verdict: str
    reason: str
    witness: Optional[TypeDWitness] = None
    subgroup_order: Optional[int] = None


def type_d_pair(sigma, tau):
    """Test the two pair conditions: (st)^2 != (ts)^2, and s not conjugate
    to t inside the subgroup generated by the two.

    The square condition is checked first since it is cheap. The conjugacy
    question is decided by conjugacy_orbit_contains without enumerating the
    orbit when the generated subgroup is the full alternating group on its
    moved points, or, when sigma's centralizer C in Sym(n) has
    |C|^2 <= |H|, by sifting the |C| conjugators of sigma onto tau into H;
    otherwise by an orbit search under that function's default cap. A
    capped search yields Indeterminate, never a guess.
    """
    st = sigma * tau
    ts = tau * sigma
    st2 = st * st
    ts2 = ts * ts
    if st2 == ts2:
        return TypeDResult("Ax1Fail", "squares of the two products agree")
    subgroup = pair_subgroup(sigma, tau)
    probe = conjugacy_orbit_contains(subgroup, sigma, tau)
    if probe.answer == "capped":
        return TypeDResult(
            "Indeterminate",
            "conjugacy orbit search stopped at %d elements" % probe.visited,
            subgroup_order=subgroup.order,
        )
    if probe.answer == "yes":
        return TypeDResult(
            "Ax2Fail",
            "the two are conjugate in the subgroup they generate",
            subgroup_order=subgroup.order,
        )
    witness = TypeDWitness(
        sigma=sigma,
        tau=tau,
        st_squared=st2,
        ts_squared=ts2,
        subgroup_order=subgroup.order,
        orbit_answer=probe.answer,
    )
    return TypeDResult(
        "Witness",
        "squares differ and the two are not conjugate in the subgroup they generate",
        witness=witness,
        subgroup_order=subgroup.order,
    )
