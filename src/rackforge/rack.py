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
from .perm import Permutation, _compose, _conjugator, format_cycles

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
    row_x^-1, with one `perm._conjugator` per x. Only after a mismatch are
    act(x, act(y, z)) and act(act(x, y), act(x, z)) compared z by z, so
    the error names the first failing triple (x, y, z).
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
        conjugate_by_x = _conjugator(tx)
        for y in range(n):
            if tab[tx[y]] != conjugate_by_x(tab[y]):
                lhs = _compose(tx, tab[y])
                rhs = _compose(tab[tx[y]], tx)
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
        conj = _conjugator(g.images)
        row = []
        for h in elems:
            ki = index.get(conj(h.images))
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
    members = set(seeds)
    if not all(0 <= s < rack.size for s in members):
        raise ValueError("seed out of range")
    return frozenset(_close(rack.table, members, list(members)))


def _close(table, members, pending):
    """Grow the set members in place to its closure and return it, given
    that only pairs meeting the list pending may be unclosed: each pending
    a meets every member b through act(a, b) and act(b, a)."""
    while pending:
        a = pending.pop()
        row_a = table[a]
        for b in list(members):
            for c in (row_a[b], table[b][a]):
                if c not in members:
                    members.add(c)
                    pending.append(c)
    return members


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
    """A pair passing both conditions, with the subgroup order and the
    conjugacy answer the pair test found: exactly the fields of its JSON
    form."""

    sigma: Permutation
    tau: Permutation
    subgroup_order: int
    orbit_answer: str

    def verify(self):
        """Re-run the pair test on the stored pair; true when it gives a
        witness equal to this whole record."""
        return type_d_pair(self.sigma, self.tau).witness == self

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
        return cls(
            sigma=Permutation.from_json_dict(data["sigma"]),
            tau=Permutation.from_json_dict(data["tau"]),
            subgroup_order=data["subgroup_order"],
            orbit_answer=data["orbit_answer"],
        )


@dataclass(frozen=True)
class TypeDResult:
    """Verdict on a pair: Ax1Fail, Ax2Fail or Witness."""

    verdict: str
    witness: Optional[TypeDWitness] = None
    subgroup_order: Optional[int] = None


def type_d_pair(sigma, tau):
    """Test the two pair conditions: (st)^2 != (ts)^2, and s not conjugate
    to t inside the subgroup generated by the two.

    The square condition is checked first since it is cheap; the
    conjugacy question goes to `groups.conjugacy_orbit_contains`, whose
    docstring says which route decides it. Every pair gets one of the
    three verdicts.
    """
    st = sigma * tau
    ts = tau * sigma
    if st * st == ts * ts:
        return TypeDResult("Ax1Fail")
    subgroup = pair_subgroup(sigma, tau)
    probe = conjugacy_orbit_contains(subgroup, sigma, tau)
    if probe.answer == "yes":
        return TypeDResult("Ax2Fail", subgroup_order=subgroup.order)
    witness = TypeDWitness(sigma, tau, subgroup.order, probe.answer)
    return TypeDResult("Witness", witness=witness, subgroup_order=subgroup.order)
