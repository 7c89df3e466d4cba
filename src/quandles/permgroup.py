"""Permutation-group kernel: composition, stabilizer chains, orbits,
transitivity.

Groups are given by generators.  Order and membership are decided on a
stabilizer chain built by deterministic Schreier-Sims (Sims 1970;
Seress, Permutation Group Algorithms, CUP 2003, ch. 4) on raw image
tuples; orbits, transitivity and abelianness need only the generators.
No element is ever listed.
"""

from __future__ import annotations

import functools
import operator

from ._record import Record
from .errors import InputError


def _compose(a, b):
    """Images of a o b (apply b first) for image tuples."""
    return tuple(map(a.__getitem__, b))


def _inverse(a):
    """Images of the inverse permutation, for an image tuple."""
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


@functools.total_ordering
class Permutation(Record):
    """A permutation of {0..n-1}, stored as its tuple of images.

    Permutations order by their images.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        ints = set(map(type, images)) <= {int} or all(
            isinstance(v, int) and not isinstance(v, bool) for v in images
        )
        if not ints or sorted(images) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {images!r}")
        # Stored directly, not through _set: the group code builds many.
        object.__setattr__(self, "images", images)

    def __lt__(self, other):
        return self.images < other.images if other.__class__ is self.__class__ else NotImplemented

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Permutation") -> "Permutation":
        """Composition (self o other): apply other first, then self."""
        if self.degree != other.degree:
            raise InputError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation(_compose(self.images, other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images))

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of the cycles, fixed points included."""
        return _cycle_type(self.images)


def _cycle_type(images) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation with these images."""
    seen = [False] * len(images)
    lengths = []
    for x in range(len(images)):
        if seen[x]:
            continue
        length = 0
        y = x
        while not seen[y]:
            seen[y] = True
            y = images[y]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _row_kernel(rows):
    """Row products in one C call each.

    Returns (left, right) such that right[b](left[a]) is the image
    sequence of a o b, that is a[b[z]] for each z, for any two of the
    given rows (equal-length sequences of points 0..n-1).  Up to 256
    points a row is bytes: left[a] is a padded to a 256-byte translation
    table and right[b] is bytes(b).translate.  Above that, left[a] is the
    row tuple and right[b] an itemgetter.  Two products compare equal
    exactly when the compositions are equal.
    """
    n = len(rows[0]) if rows else 0
    if n <= 256:
        pad = bytes(range(n, 256))
        return (
            [bytes(r) + pad for r in rows],
            [bytes(r).translate for r in rows],
        )
    return [tuple(r) for r in rows], [operator.itemgetter(*r) for r in rows]


def _noncommuting_pair(rows):
    """The first (a, b), a < b, with a o b != b o a among the rows, or None."""
    left, right = _row_kernel(rows)
    for a, (la, ra) in enumerate(zip(left, right)):
        for b in range(a + 1, len(rows)):
            if right[b](la) != ra(left[b]):
                return (a, b)
    return None


class _Level:
    """One level of a stabilizer chain: a base point, the strong
    generators that fix the earlier base points, and the transversal
    {p: (u, u^-1)} over the orbit of the base point, with u(point) = p."""

    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point, degree):
        ident = tuple(range(degree))
        self.point = point
        self.gens = []
        self.transversal = {point: (ident, ident)}

    def build_transversal(self):
        trans = {self.point: self.transversal[self.point]}
        queue = [self.point]
        for p in queue:
            u = trans[p][0]
            for s in self.gens:
                q = s[p]
                if q not in trans:
                    v = _compose(s, u)
                    trans[q] = (v, _inverse(v))
                    queue.append(q)
        self.transversal = trans


def _sift(chain, g, start):
    """Strip g through chain[start:]: the residue and the index of the
    level where it left the chain (len(chain) if it went through)."""
    for j in range(start, len(chain)):
        level = chain[j]
        u = level.transversal.get(g[level.point])
        if u is None:
            return g, j
        g = _compose(u[1], g)
    return g, len(chain)


def _schreier_sims(degree, gens) -> list[_Level]:
    """A stabilizer chain of the group generated by gens (image tuples).

    Deterministic Schreier-Sims: check every Schreier generator
    u_{s(p)}^-1 s u_p of a level by sifting it through the deeper levels,
    starting from the deepest level.  A residue that does not sift to the
    identity becomes a strong generator of every level it fixes the base
    points of (with a new base point if it fixes them all), and checking
    resumes at the deepest level it was added to.  When no level leaves a
    residue, each level's strong generators generate the pointwise
    stabilizer of the earlier base points.
    """
    ident = tuple(range(degree))
    gens = [g for g in gens if g != ident]
    chain = []
    for g in gens:
        if all(g[level.point] == level.point for level in chain):
            chain.append(_Level(next(x for x in ident if g[x] != x), degree))
    for j, level in enumerate(chain):
        fixed = [chain[k].point for k in range(j)]
        level.gens = [g for g in gens if all(g[b] == b for b in fixed)]
        level.build_transversal()

    i = len(chain) - 1
    while i >= 0:
        residue = _schreier_residue(chain, i, ident)
        if residue is None:
            i -= 1
            continue
        h, j = residue
        if j == len(chain):
            chain.append(_Level(next(x for x in ident if h[x] != x), degree))
        for level in chain[i + 1 : j + 1]:
            level.gens.append(h)
            level.build_transversal()
        i = j
    return chain


def _schreier_residue(chain, i, ident):
    """The first Schreier generator of level i that does not sift to the
    identity through the deeper levels, as (residue, level reached), or None."""
    trans = chain[i].transversal
    for p, (u, _) in trans.items():
        for s in chain[i].gens:
            su = _compose(s, u)
            v, v_inv = trans[s[p]]
            if su == v:
                continue
            h, j = _sift(chain, _compose(v_inv, su), i + 1)
            if j < len(chain) or h != ident:
                return h, j
    return None


def _find(parent, x):
    """The root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _unite(parent, g):
    """Merge the class of each point x with that of g[x]."""
    for x, gx in enumerate(g):
        rx, rg = _find(parent, x), _find(parent, gx)
        if rx != rg:
            parent[rg] = rx


class PermGroup:
    """A permutation group presented by generators.

    Order and membership are decided on a stabilizer chain, built on
    first use by deterministic Schreier-Sims and cached; orbits,
    transitivity and abelianness are read off the generators.
    """

    def __init__(self, degree, generators=()):
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
            raise InputError("group degree must be a nonnegative integer")
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

    def _stabilizer_chain(self) -> list[_Level]:
        if self._chain is None:
            self._chain = _schreier_sims(self.degree, [g.images for g in self.generators])
        return self._chain

    def order(self) -> int:
        """Product of the basic orbit sizes of the stabilizer chain."""
        out = 1
        for level in self._stabilizer_chain():
            out *= len(level.transversal)
        return out

    def __contains__(self, perm) -> bool:
        """Membership by sifting through the stabilizer chain."""
        if not isinstance(perm, Permutation) or perm.degree != self.degree:
            return False
        chain = self._stabilizer_chain()
        residue, depth = _sift(chain, perm.images, 0)
        return depth == len(chain) and residue == tuple(range(self.degree))

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the points; blocks sorted by minimum element."""
        parent = list(range(self.degree))
        for g in self.generators:
            _unite(parent, g.images)
        blocks = {}
        for x in range(self.degree):
            blocks.setdefault(_find(parent, x), []).append(x)
        return tuple(tuple(sorted(b)) for b in sorted(blocks.values(), key=min))

    def is_transitive(self) -> bool:
        if self.degree < 1:
            raise InputError("transitivity needs at least one point")
        return len(self.orbits()) == 1

    def is_abelian(self) -> bool:
        """Generators pairwise commute iff the generated group is abelian."""
        return _noncommuting_pair([g.images for g in self.generators]) is None
