"""Exact permutation arithmetic on the points {1, ..., m}.

This module is the package's one permutation kernel. Permutations are
stored as 0-based image tuples, and only the private functions `_compose`,
`_inverse` and `_conj` combine them; groups and racks call those on
`Permutation.images` in their inner loops. Every public surface (cycle
strings, JSON, point sets) speaks 1-based points. Composition is function
composition, compose(a, b) applies b first.

`Permutation(...)`, `cycle`, `parse_cycles`, `restricted_to` and
`from_json_dict` check that their input is a bijection. Results that are
bijections by construction (products, inverses, conjugates, powers,
extensions, chain samples, aligning conjugators, the cycles of
`constructions.class_elements`) go through the unchecked `Permutation._of`.
"""

from __future__ import annotations

import re
from math import gcd

__all__ = [
    "Permutation",
    "compose",
    "conjugate",
    "parse_cycles",
    "format_cycles",
]


class Permutation:
    """A bijection of {1, ..., m} with cached cycle data.

    `images` is the 0-based image tuple: images[i] is the image of point i.
    Degree is fixed at construction and must be at least 1; composing or
    comparing permutations of different degrees is an error (embed explicitly
    with `extend` instead).
    """

    __slots__ = ("images", "_cycles")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise ValueError("degree must be at least 1")
        seen = [False] * n
        for i in images:
            if not isinstance(i, int) or not 0 <= i < n or seen[i]:
                raise ValueError("images must be a bijection of 0..m-1")
            seen[i] = True
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_cycles", None)

    @classmethod
    def _of(cls, images):
        """Wrap an image tuple that is a bijection by construction, unchecked."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        object.__setattr__(perm, "_cycles", None)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def cycle(cls, points, degree):
        """Single cycle through the given 1-based points, rest fixed.
        Repeated points and points outside 1..degree raise ValueError."""
        images = list(range(degree))
        pts = [p - 1 for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("repeated point in cycle %s" % (tuple(points),))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            if not 0 <= a < degree:
                raise ValueError("point %d out of range 1..%d" % (a + 1, degree))
            images[a] = b
        return cls(images)

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other):
        return compose(self, other)

    def __pow__(self, n):
        if n == 0:
            return Permutation.identity(self.degree)
        acc = self.images if n > 0 else _inverse(self.images)
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = acc if result is None else _compose(result, acc)
            n >>= 1
            if n:
                acc = _compose(acc, acc)
        return Permutation._of(result)

    def inverse(self):
        return Permutation._of(_inverse(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r, degree=%d)" % (format_cycles(self), self.degree)

    def __str__(self):
        return format_cycles(self)

    # -- structure ---------------------------------------------------------

    def cycles(self, include_fixed=False):
        """Disjoint cycles as 1-based tuples, each starting at its least point,
        ordered by least point. Fixed points appear as 1-tuples only on request."""
        if self._cycles is None:
            all_cycles = []
            seen = [False] * len(self.images)
            for start in range(len(self.images)):
                if seen[start]:
                    continue
                cyc = [start]
                seen[start] = True
                nxt = self.images[start]
                while nxt != start:
                    cyc.append(nxt)
                    seen[nxt] = True
                    nxt = self.images[nxt]
                all_cycles.append(tuple(p + 1 for p in cyc))
            object.__setattr__(self, "_cycles", tuple(all_cycles))
        if include_fixed:
            return list(self._cycles)
        return [c for c in self._cycles if len(c) > 1]

    def support(self):
        """Sorted tuple of moved 1-based points."""
        return tuple(i + 1 for i, j in enumerate(self.images) if i != j)

    def order(self):
        n = 1
        for c in self.cycles():
            n = n * len(c) // gcd(n, len(c))
        return n

    def parity(self):
        """+1 for even, -1 for odd."""
        swaps = sum(len(c) - 1 for c in self.cycles())
        return -1 if swaps & 1 else 1

    def extend(self, degree):
        """Same mapping viewed at a larger degree, new points fixed."""
        if degree < len(self.images):
            raise ValueError("cannot shrink degree")
        return Permutation._of(self.images + tuple(range(len(self.images), degree)))

    def restricted_to(self, points):
        """Relabel onto the given sorted 1-based points, which must be closed
        under the permutation. Point points[i] becomes i+1."""
        pts = [p - 1 for p in points]
        pos = {p: k for k, p in enumerate(pts)}
        try:
            return Permutation(pos[self.images[p]] for p in pts)
        except KeyError:
            raise ValueError("points are not closed under the permutation") from None

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self):
        return {"degree": self.degree, "images": [i + 1 for i in self.images]}

    @classmethod
    def from_json_dict(cls, data):
        """Read the portable form, which is untrusted: anything but an
        object whose integer degree matches its list of integer images
        raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a permutation needs 'degree' and 'images' fields")
        images = data.get("images")
        degree = data.get("degree")
        if not isinstance(images, list) or not all(type(v) is int for v in images):
            raise ValueError("images must be a list of integers")
        if type(degree) is not int or degree != len(images):
            raise ValueError("degree field does not match images length")
        return cls(i - 1 for i in images)


def _compose(a, b):
    """(a.b)(i) = a(b(i)) on image tuples."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _conj(g, x):
    """g x g^-1 on image tuples: it maps g(i) to g(x(i))."""
    images = [0] * len(g)
    for i in range(len(g)):
        images[g[i]] = g[x[i]]
    return tuple(images)


def compose(a, b):
    """Composite permutation applying b first: (a.b)(i) = a(b(i))."""
    if a.degree != b.degree:
        raise ValueError("degree mismatch: %d vs %d" % (a.degree, b.degree))
    return Permutation._of(_compose(a.images, b.images))


def conjugate(g, x):
    """g acting on x by conjugation, g x g^-1."""
    if g.degree != x.degree:
        raise ValueError("degree mismatch: %d vs %d" % (g.degree, x.degree))
    return Permutation._of(_conj(g.images, x.images))


_TOKEN = re.compile(r"\(|\)|,|\s+|\d+")


def parse_cycles(text, degree):
    """Parse disjoint cycle notation like '(1 2 3)(4 5)' at the given degree.

    Commas and whitespace both separate points. The empty string and '()'
    denote the identity. Malformed text, repeated points (within or across
    cycles) and points outside 1..degree raise ValueError.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    pos = 0
    images = list(range(degree))
    seen = set()
    current = None
    for match in _TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError("unexpected character at position %d in %r" % (pos, text))
        pos = match.end()
        tok = match.group()
        if tok == "(":
            if current is not None:
                raise ValueError("nested '(' in %r" % text)
            current = []
        elif tok == ")":
            if current is None:
                raise ValueError("unmatched ')' in %r" % text)
            for a, b in zip(current, current[1:] + current[:1]):
                images[a] = b
            current = None
        elif tok.isdigit():
            if current is None:
                raise ValueError("point outside parentheses in %r" % text)
            p = int(tok)
            if not 1 <= p <= degree:
                raise ValueError("point %d out of range 1..%d" % (p, degree))
            if p in seen:
                raise ValueError("repeated point %d in %r" % (p, text))
            seen.add(p)
            current.append(p - 1)
        # commas and whitespace are separators
    if pos != len(text):
        raise ValueError("unexpected character at position %d in %r" % (pos, text))
    if current is not None:
        raise ValueError("unterminated cycle in %r" % text)
    return Permutation(images)


def format_cycles(x):
    """Disjoint cycle string, '()' for the identity. Inverse of parse_cycles."""
    cycles = x.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)
