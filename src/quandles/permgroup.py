"""Permutation-group kernel: composition, stabilizer chains, orbits,
transitivity.

Groups are given by generators.  Order and membership are decided on a
stabilizer chain.  A group known only by its generators gets one from
deterministic Schreier-Sims that resumes instead of restarting (Sims
1970; Seress, Permutation Group Algorithms, CUP 2003, ch. 4; Holt, Eick
and O'Brien, Handbook of Computational Group Theory, 2005, sec. 4.4):
each generator, and then each Schreier generator, is sifted through the
chain built so far and kept, as its residue, only if it is not already
in the group that chain gives.  A group given as a strong generating set
for a known base, as the automorphism search returns it, has its chain
read off level by level with no Schreier generator tested
(_known_base_chain, for _from_base only).  This module is the one place
that walks cycles (_cycles) and stores permutations (_Kernel, the form
of chain elements and of every row product elsewhere, with its two
primitives gather, a o b, and scatter, a o b^-1; no inverse is stored).
Everywhere else, the public API included, a permutation is its tuple of
images.  Orbits, transitivity and abelianness need only the generators.
No element is ever listed.
"""

from __future__ import annotations

import operator

from ._record import Record
from .errors import InputError, _is_int, _require_int


def _gather(b, a):
    """Images a[b[z]] of a o b (apply b first), for image tuples of more
    than one point."""
    return operator.itemgetter(*b)(a)


def _scatter(b, a):
    """The permutation sending b[z] to a[z], a o b^-1, for image tuples."""
    out = [0] * len(b)
    for x, y in zip(b, a):
        out[x] = y
    return tuple(out)


def _is_permutation(images: tuple) -> bool:
    """Whether the tuple holds each of 0..len-1 once, as ints (bools are
    refused, int subclasses such as IntEnum accepted)."""
    ints = set(map(type, images)) <= {int} or all(map(_is_int, images))
    return ints and sorted(images) == list(range(len(images)))


def _cycles(images) -> list[tuple[int, ...]]:
    """The cycles of the permutation with these images, fixed points
    included, each read from its smallest point, in the order of those
    points."""
    seen = [False] * len(images)
    cycles = []
    for x in range(len(images)):
        if seen[x]:
            continue
        cycle = [x]
        seen[x] = True
        y = images[x]
        while y != x:
            cycle.append(y)
            seen[y] = True
            y = images[y]
        cycles.append(tuple(cycle))
    return cycles


def _cycle_type(images) -> tuple[int, ...]:
    """Sorted cycle lengths of the permutation with these images."""
    return tuple(sorted(map(len, _cycles(images))))


_IDENTITY = bytes(range(256))


class _Kernel:
    """How the permutations of one degree are stored, and the two
    primitives that multiply them.

    embed(images) gives the stored form and ident the identity.  For
    stored a and b, gather(b, a) is a o b, the images a[b[z]], and
    scatter(b, a) is a o b^-1, sending b[z] to a[z]; so scatter(a, ident)
    is the inverse of a.  after(b), for b stored or given by its images,
    is gather with b fixed and gives the images only.  Up to 256 points a
    permutation is its images padded with fixed points to a 256-byte
    translation table, and the primitives are bytes.translate and
    bytes.maketrans.  Above that it is its image tuple, and they are
    _gather and _scatter.  Either way a stored form begins with its
    images, and stored forms are equal exactly when the permutations are.
    """

    __slots__ = ("degree", "embed", "after", "gather", "scatter", "ident")

    def __init__(self, degree):
        self.degree = degree
        if degree <= 256:
            pad = _IDENTITY[degree:]
            self.embed = lambda r: bytes(r) + pad
            self.after = lambda b: bytes(b).translate
            self.gather, self.scatter = bytes.translate, bytes.maketrans
        else:
            self.embed = tuple
            self.after = lambda b: operator.itemgetter(*b)
            self.gather, self.scatter = _gather, _scatter
        self.ident = self.embed(range(degree))

    def __reduce__(self):
        # The functions do not pickle; the degree rebuilds them.
        return _Kernel, (self.degree,)


def _noncommuting_pair(rows):
    """The first (a, b), a < b, with a o b != b o a among the rows (image
    sequences or stored forms of one degree), or None."""
    kernel = _Kernel(len(rows[0]) if rows else 0)
    left, right = list(map(kernel.embed, rows)), list(map(kernel.after, rows))
    for a, (la, ra) in enumerate(zip(left, right)):
        for b in range(a + 1, len(rows)):
            if right[b](la) != ra(left[b]):
                return (a, b)
    return None


class _Level:
    """One level of a stabilizer chain.

    It holds a base point, the strong generators that fix the earlier
    base points, the orbit of the base point in the order its points
    were reached, and the transversal {p: w_p}: one element per orbit
    point, the inverse of its coset representative, so w_p(p) = point.
    tested[k] counts the generators whose Schreier
    generator at orbit[k] has been tested.  A representative, once
    chosen, is never replaced, so a tested Schreier generator stays the
    same element.
    """

    __slots__ = ("point", "gens", "orbit", "transversal", "tested")

    def __init__(self, point, ident):
        self.point = point
        self.gens = []
        self.orbit = [point]
        self.transversal = {point: ident}
        self.tested = [0]

    def add(self, new_gens, scatter):
        """Append strong generators and grow the orbit under all of them
        from the points it has: w_{s(p)} = w_p o s^-1 = scatter(s, w_p)."""
        gens, orbit, trans, tested = self.gens, self.orbit, self.transversal, self.tested
        gens.extend(new_gens)
        old = len(orbit)
        for k, p in enumerate(orbit):
            for s in new_gens if k < old else gens:
                q = s[p]
                if q not in trans:
                    trans[q] = scatter(s, trans[p])
                    orbit.append(q)
                    tested.append(0)


def _sift(chain, g, start, kernel):
    """Strip g through chain[start:]: the residue and the index of the
    level where it left the chain (len(chain) if it went through)."""
    gather, ident = kernel.gather, kernel.ident
    for j in range(start, len(chain)):
        level = chain[j]
        p = g[level.point]
        if p != level.point:
            w = level.transversal.get(p)
            if w is None:
                return g, j
            g = gather(g, w)
            if g == ident:
                break
    return g, len(chain)


def _sift_in(chain, g, start, kernel):
    """The one way into a chain under construction.  Sift g through
    chain[start:]; unless it sifts to the identity, make the residue a
    strong generator of every level from start down to the one where it
    left the chain, with a new level at the residue's first moved point
    if it went all the way through.  The index of that last level, or
    None."""
    h, j = _sift(chain, g, start, kernel)
    ident = kernel.ident
    if j == len(chain):
        if h == ident:
            return None
        chain.append(_Level(next(x for x, y in enumerate(ident) if h[x] != y), ident))
    for level in chain[start : j + 1]:
        level.add([h], kernel.scatter)
    return j


def _schreier_sims(kernel, gens) -> list[_Level]:
    """A stabilizer chain of the group generated by gens (stored form).

    Deterministic Schreier-Sims that resumes instead of restarting
    (Seress, Permutation Group Algorithms, ch. 4).  It starts from the
    empty chain and sifts every generator in from level 0, so one that
    the earlier ones already give is never kept.  Then, from the deepest
    level up, every Schreier generator w_{s(p)} s w_p^-1 of a level is
    sifted in from the next level, unless it is the identity (w_{s(p)} s
    = w_p) or s itself: a strong generator that fixes a level's base
    point was added to the next level too.  After a residue is kept,
    checking moves to the deepest level it was added to.  Each (p, s)
    pair is tested once: the deeper levels' groups only grow and
    representatives are never replaced, so a Schreier generator that lay
    in them still does.  When every pair is tested, each level's strong
    generators generate the pointwise stabilizer of the earlier base
    points.
    """
    gather, scatter, ident = kernel.gather, kernel.scatter, kernel.ident
    chain = []
    for g in gens:
        _sift_in(chain, g, 0, kernel)
    i = len(chain) - 1
    while i >= 0:
        level = chain[i]
        strong, trans, tested = level.gens, level.transversal, level.tested
        j = None
        for k, p in enumerate(level.orbit):
            w_p, u_p = trans[p], None
            while j is None and tested[k] < len(strong):
                s = strong[tested[k]]
                tested[k] += 1
                q = s[p]
                if q == p == level.point:
                    continue  # the Schreier generator is s
                ws = gather(s, trans[q])
                if ws == w_p:
                    continue
                if u_p is None:
                    u_p = scatter(w_p, ident)
                h = gather(u_p, ws)
                if h != s:
                    j = _sift_in(chain, h, i + 1, kernel)
            if j is not None:
                break
        i = i - 1 if j is None else j
    return chain


def _known_base_chain(kernel, base, gens) -> list[_Level]:
    """The chain that gens (stored form) give for the base points base,
    for PermGroup._from_base only: level i is the orbit of b_i under the
    generators that fix b_1..b_{i-1}.  It is the stabilizer chain of the
    group they generate when they are a strong generating set for that
    base.  Levels with a trivial orbit are left out; they change neither
    orders nor sifting."""
    chain = []
    fixing = gens
    for b in base:
        level = _Level(b, kernel.ident)
        level.add(fixing, kernel.scatter)
        if len(level.orbit) > 1:
            chain.append(level)
        fixing = [g for g in fixing if g[b] == b]
    return chain


class PermGroup:
    """A permutation group presented by generators.

    The generators may be any sequences of ints.  They are kept as a
    tuple of distinct image tuples, each checked to be a permutation of
    the group's degree.  Order and membership are decided on a
    stabilizer chain, built on first use and cached: by resumable
    Schreier-Sims, or, for a group made by _from_base, read off the
    strong generating set of a known base.  Orbits, transitivity and
    abelianness are read off the generators.
    """

    def __init__(self, degree, generators=()):
        _require_int(degree, "group degree must be a nonnegative integer", 0)
        gens = [tuple(g) for g in generators]
        for g in gens:
            if not _is_permutation(g):
                raise InputError(f"not a permutation of 0..{len(g) - 1}: {g!r}")
            if len(g) != degree:
                raise InputError(f"generator degree {len(g)} does not match group degree {degree}")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(dict.fromkeys(gens)))

    # Read-only like a Record, but not equal by its generators: equal
    # groups can have different generating sets.  The base and chain
    # are set once, when first known.
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__
    _base = None
    _chain = None

    def __eq__(self, other):
        """Equal when they are the same group: same degree and order, and
        every generator of other lies in self (so other is a subgroup of
        self of the same size)."""
        if not isinstance(other, PermGroup):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.order() == other.order()
            and all(g in self for g in other.generators)
        )

    def __hash__(self):
        return hash((self.degree, self.order()))

    @classmethod
    def _from_base(cls, degree, base, generators) -> "PermGroup":
        """The group of a strong generating set for the base points base:
        the generators that fix b_1..b_{i-1} reach the whole orbit of b_i
        under the group they generate, at every i."""
        group = cls(degree, generators)
        object.__setattr__(group, "_base", tuple(base))
        return group

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"

    def _stabilizer_chain(self) -> tuple[_Kernel, list[_Level]]:
        if self._chain is None:
            kernel = _Kernel(self.degree)
            gens = [kernel.embed(g) for g in self.generators]
            if self._base is None:
                chain = _schreier_sims(kernel, gens)
            else:
                chain = _known_base_chain(kernel, self._base, gens)
            object.__setattr__(self, "_chain", (kernel, chain))
        return self._chain

    def order(self) -> int:
        """Product of the basic orbit sizes of the stabilizer chain."""
        out = 1
        for level in self._stabilizer_chain()[1]:
            out *= len(level.orbit)
        return out

    def __contains__(self, perm) -> bool:
        """Membership of a sequence of images, by sifting through the
        stabilizer chain; False for anything that is not a permutation of
        the group's degree."""
        try:
            perm = tuple(perm)
        except TypeError:
            return False
        if len(perm) != self.degree or not _is_permutation(perm):
            return False
        kernel, chain = self._stabilizer_chain()
        residue, depth = _sift(chain, kernel.embed(perm), 0, kernel)
        return depth == len(chain) and residue == kernel.ident

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the points; blocks sorted by minimum element.

        Column y of the generators' images is the set of points one
        generator sends y to.  An orbit is grown from its least point by
        merging the columns of its newest points, one set union per
        step, until nothing new is reached.
        """
        columns = list(zip(*self.generators)) if self.generators else [()] * self.degree
        left = set(range(self.degree))
        blocks = []
        for x in range(self.degree):
            if x not in left:
                continue
            block, new = {x}, (x,)
            while new:
                new = set().union(*map(columns.__getitem__, new)) - block
                block |= new
            left -= block
            blocks.append(tuple(sorted(block)))
        return tuple(blocks)

    def is_transitive(self) -> bool:
        if self.degree < 1:
            raise InputError("transitivity needs at least one point")
        return len(self.orbits()) == 1

    def is_abelian(self) -> bool:
        """Generators pairwise commute iff the generated group is abelian."""
        return _noncommuting_pair(self.generators) is None
