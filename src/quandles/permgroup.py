"""Minimal permutation-group kernel: composition, closure, orbits, transitivity.

Groups are given by generators and materialized by plain breadth-first
products; no stabilizer chains.  Every group in scope here is tiny, so
simplicity and auditability win over asymptotics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError

DEFAULT_ELEMENT_CAP = 10**6


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0..n-1}, stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise InputError(f"not a permutation of 0..{n - 1}: {self.images!r}")

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
        a, b = self.images, other.images
        return Permutation(tuple(a[b[i]] for i in range(len(a))))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

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


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x))."""
    return p.compose(q)


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


class PermGroup:
    """A permutation group presented by generators.

    The full element set is materialized on demand and cached; element
    order in all outputs is lexicographic on images, so results are
    reproducible.
    """

    def __init__(self, degree, generators=(), *, elements=None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(tuple(g))
            if g.degree != degree:
                raise InputError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
            if g.images not in seen:
                seen.add(g.images)
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._elements = frozenset(elements) if elements is not None else None
        self._sorted = None

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

    def closure(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple[Permutation, ...]:
        """All elements, via breadth-first products of generators."""
        if self._elements is None:
            ident = Permutation.identity(self.degree)
            els = {ident}
            els.update(self.generators)
            frontier = list(self.generators)
            while frontier:
                new = []
                for b in frontier:
                    for a in self.generators:
                        c = a.compose(b)
                        if c not in els:
                            if len(els) >= cap:
                                # A caught error's traceback keeps this
                                # frame and its locals alive.
                                els = frontier = new = None
                                raise ResourceLimitError(
                                    f"group closure exceeded element cap {cap}"
                                )
                            els.add(c)
                            new.append(c)
                frontier = new
            self._elements = frozenset(els)
        if self._sorted is None:
            self._sorted = tuple(sorted(self._elements))
        return self._sorted

    def order(self, cap: int = DEFAULT_ELEMENT_CAP) -> int:
        return len(self.closure(cap))

    def __contains__(self, perm: Permutation) -> bool:
        self.closure()
        return perm in self._elements

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the points; blocks sorted by minimum element."""
        parent = list(range(self.degree))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for x in range(self.degree):
                rx, ry = find(x), find(g.images[x])
                if rx != ry:
                    parent[ry] = rx
        blocks = {}
        for x in range(self.degree):
            blocks.setdefault(find(x), []).append(x)
        return tuple(tuple(sorted(b)) for b in sorted(blocks.values(), key=min))

    def is_transitive(self) -> bool:
        if self.degree < 1:
            raise InputError("transitivity needs at least one point")
        return len(self.orbits()) == 1

    def is_abelian(self) -> bool:
        """Generators pairwise commute iff the generated group is abelian."""
        return _noncommuting_pair([g.images for g in self.generators]) is None


def perm_to_list(p: Permutation) -> list[int]:
    return list(p.images)


def perm_from_list(images) -> Permutation:
    if not isinstance(images, (list, tuple)) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in images
    ):
        raise InputError("a permutation serializes as a list of integers")
    return Permutation(tuple(images))


def group_to_dict(g: PermGroup) -> dict:
    return {
        "degree": g.degree,
        "generators": [perm_to_list(p) for p in g.generators],
    }


def group_from_dict(d) -> PermGroup:
    if not isinstance(d, dict) or "degree" not in d or "generators" not in d:
        raise InputError('group JSON needs "degree" and "generators"')
    degree = d["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 0:
        raise InputError("group degree must be a nonnegative integer")
    gens = d["generators"]
    if not isinstance(gens, list):
        raise InputError("group generators must be a list")
    return PermGroup(degree, [perm_from_list(p) for p in gens])
