"""Backtracking search for isomorphisms and automorphisms of finite
relational structures.

The search sees a structure on points 0..n-1 as two things:

- a colour per ordered pair of points, itself an isomorphism invariant:
  once x maps to y, any other point a may only map to a point b with
  colour(y, b) == colour(x, a);
- optionally a binary operation, given as a table: once x and a have
  images y and b, the image of table[x][a] is forced to be table[y][b],
  and that of table[a][x] to be table[b][y].  A forced point that has
  another image already is a contradiction, found as its pair is taken.

An isomorphism permutes each colour row, so the number of pairs of each
colour in x's row is an invariant of x, read off the colour rows as
vertex invariants are read off a coloured graph: x may only map to a
point with the same counts.

A graph is its adjacency relation (colour 1 on an edge) with no
operation; its counts are the degree.  A quandle's colour records
whether s_x fixes a, whether s_a fixes x and whether s_x = s_a, and its
table is the operation.

The candidate images of every unassigned point are kept as a bitmask
and narrowed at each assignment.  The search branches on the unassigned
point with the fewest candidates, ties going to the lowest index, and
keeps its own stack, so its depth is bounded by memory and not by the
recursion limit.  Each tried assignment is one node of the node budget,
the one limit of every search: exceeding it raises ResourceLimitError.

Automorphisms come back as a base and a strong generating set for it,
found with automorphism pruning in the manner of McKay and Piperno
(Practical graph isomorphism II, JSC 2014): see automorphism_generators.
The base is the one the search fixes anyway, so the group kernel reads
the stabilizer chain off it without Schreier-Sims.  Twins, points whose
transposition is an automorphism (in a graph, vertices with the same
neighbours apart from each other; in a quandle, points with equal rows
that every row maps onto themselves as a pair), are found once per
structure, and their transpositions cost no node: a graph quandle's
(v, 0) and (v, 1) are twins, and so are any two points of a trivial
quandle.  The trivial quandle on 200 points takes 200 nodes, one per
base point, the graph quandle of the 200-cycle 601, and aknn(4, 8)
1,533.

is_transitive answers "one orbit?": with no node when the colour counts
are not all equal, since an automorphism keeps them, and otherwise from
the generators the automorphism search finds.
"""

from __future__ import annotations

from .errors import ResourceLimitError

# Colours are below 8: three bits for a quandle, one for a graph.
PALETTE = 8

DEFAULT_NODE_BUDGET = 10**5


class Structure:
    """Points with colours of ordered pairs and an optional table."""

    __slots__ = ("size", "colours", "table")

    def __init__(self, colours, table=None):
        self.size = len(colours)
        self.colours = colours
        self.table = table


def quandle_structure(rows) -> Structure:
    """The quandle with these rows: fixing and equal-row colours, and the
    table as the operation."""
    n = len(rows)
    row_ids = {}
    ids = [row_ids.setdefault(r, len(row_ids)) for r in rows]
    colours = [
        bytes(
            (rx[a] == a) | (rows[a][x] == x) << 1 | (ids[a] == ix) << 2
            for a in range(n)
        )
        for x, (rx, ix) in enumerate(zip(rows, ids))
    ]
    return Structure(colours, rows)


def graph_structure(masks) -> Structure:
    """The graph with these adjacency bitmasks; a colour row is its
    mask's binary digits, lowest first, as bytes 0/1."""
    n = len(masks)
    return Structure([
        bin(m)[:1:-1].ljust(n, "0").encode().replace(b"0", b"\0").replace(b"1", b"\1")
        for m in masks
    ])


def _colour_counts(s: Structure) -> list[tuple[int, ...]]:
    """The number of pairs of each colour in each point's colour row."""
    return [tuple(map(row.count, range(PALETTE))) for row in s.colours]


def _find(parent, x):
    """The root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _unite(parent, g):
    """Merge the class of each point x that g moves with that of g[x]."""
    for x, gx in enumerate(g):
        if x != gx:
            rx, rg = _find(parent, x), _find(parent, gx)
            if rx != rg:
                parent[rg] = rx


def _pick(img, dom):
    """The unassigned point with the fewest candidates (lowest index on
    ties), or -1 when every point is assigned."""
    best, fewest = -1, 0
    for a, d in enumerate(dom):
        if img[a] < 0:
            c = d.bit_count()
            if best < 0 or c < fewest:
                best, fewest = a, c
                if c <= 1:
                    break
    return best


class _Search:
    """Maps from s1 onto s2, one partial map at a time.

    A partial map is (img, dom): img[x] is the image of x or -1, and
    dom[x] the bitmask of candidate images of an unassigned x.
    """

    def __init__(self, s1: Structure, s2: Structure, node_budget):
        self.n = s1.size
        self.colours = s1.colours
        self.tables = (s1.table, s2.table)
        # columns[x][a] = table[a][x], on each side.
        self.columns = tuple(None if t is None else tuple(zip(*t)) for t in self.tables)
        self.node_budget = node_budget
        self.nodes = 0
        # masks[y][c]: the points b with colours[y][b] == c on the s2 side.
        self.masks = []
        for row in s2.colours:
            m = [0] * PALETTE
            for b, c in enumerate(row):
                m[c] |= 1 << b
            self.masks.append(m)
        counts = _colour_counts(s2)
        by_counts = {}
        for y, v in enumerate(counts):
            by_counts[v] = by_counts.get(v, 0) | 1 << y
        self.domains = [by_counts.get(v, 0) for v in (counts if s1 is s2 else _colour_counts(s1))]

    def start(self):
        """The empty partial map: every point may go to any point with its colour counts."""
        return [-1] * self.n, self.domains[:]

    def node(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise ResourceLimitError(
                f"isomorphism search exhausted its node budget ({self.node_budget}); "
                "raise node_budget (QUANDLES_NODE_BUDGET on the command line) to search further"
            )

    def extend(self, img, dom, x, y) -> bool:
        """Assign x -> y and everything it forces, narrowing the candidates
        of the other points; False on a contradiction.  A clash, a forced
        point that already has another image, is found in one place: as
        its pair leaves the queue."""
        colours, masks = self.colours, self.masks
        t1, t2 = self.tables
        u1, u2 = self.columns
        pending = [(x, y)]
        while pending:
            x, y = pending.pop()
            if img[x] >= 0:
                if img[x] != y:
                    return False
                continue
            if not dom[x] >> y & 1:
                return False
            img[x] = y
            cx, my, keep = colours[x], masks[y], ~(1 << y)
            if t1 is not None:
                r1, r2, k1, k2 = t1[x], t2[y], u1[x], u2[y]
            # One pass: narrow each unassigned point; at each assigned a,
            # the images of table[x][a] and table[a][x] are forced.
            for a, b in enumerate(img):
                if b < 0:
                    d = dom[a] & my[cx[a]] & keep
                    if not d:
                        return False
                    dom[a] = d
                elif t1 is not None:
                    c, z = r1[a], r2[b]
                    if img[c] != z:
                        pending.append((c, z))
                    c, z = k1[a], k2[b]
                    if img[c] != z:
                        pending.append((c, z))
        return True

    def completions(self, img, dom):
        """Yield every complete map extending a consistent partial map,
        as an image tuple, depth first with candidates in increasing order."""
        x = _pick(img, dom)
        if x < 0:
            yield tuple(img)
            return
        stack = [(x, dom[x], img, dom)]
        while stack:
            x, cands, img, dom = stack.pop()
            if not cands:
                continue
            low = cands & -cands
            stack.append((x, cands ^ low, img, dom))
            self.node()
            child_img, child_dom = img[:], dom[:]
            if self.extend(child_img, child_dom, x, low.bit_length() - 1):
                nxt = _pick(child_img, child_dom)
                if nxt < 0:
                    yield tuple(child_img)
                else:
                    stack.append((nxt, child_dom[nxt], child_img, child_dom))


def isomorphisms(s1: Structure, s2: Structure, node_budget=DEFAULT_NODE_BUDGET):
    """Yield every isomorphism s1 -> s2 as an image tuple; none, with no
    search, when the multisets of colour counts differ.  Exceeding
    node_budget raises ResourceLimitError."""
    if sorted(_colour_counts(s1)) != sorted(_colour_counts(s2)):
        return
    search = _Search(s1, s2, node_budget)
    yield from search.completions(*search.start())


def _buckets(keys):
    """The points grouped by equal key, in order of first appearance."""
    out = {}
    for x, k in enumerate(keys):
        out.setdefault(k, []).append(x)
    return out.values()


def _twin_classes(s: Structure) -> list[list[int]]:
    """The classes of twins of s with more than one point.

    Twins are points whose transposition is an automorphism, and, in a
    quandle, whose rows are equal; that is an equivalence, since
    (a c) = (a b)(b c)(a b).  In a graph, false twins have equal
    adjacency rows and true twins equal rows once each has its own bit
    set, and no vertex has both kinds.  Quandle twins have equal colour
    rows, so only such points are compared, and their rows are equal:
    a and b are twins exactly when every row r has {r[a], r[b]} == {a, b}.
    """
    if s.table is None:
        closed = [row[:x] + b"\1" + row[x + 1 :] for x, row in enumerate(s.colours)]
        return [c for keys in (s.colours, closed) for c in _buckets(keys) if len(c) > 1]
    columns, classes = None, []
    for bucket in _buckets(s.colours):
        if len(bucket) < 2:
            continue
        if columns is None:
            columns = list(zip(*s.table))
        found = []
        for a in bucket:
            for c in found:
                # Bit 2 of a colour is "equal rows", and it is set in
                # colours[a][a] == colours[b][a]: so rows[a] == rows[b].
                b = c[0]
                if set(zip(columns[a], columns[b])) <= {(a, b), (b, a)}:
                    c.append(a)
                    break
            else:
                found.append([a])
        classes += [c for c in found if len(c) > 1]
    return classes


def automorphism_generators(s: Structure, node_budget=DEFAULT_NODE_BUDGET) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """A base of Aut(s) and a strong generating set for it, as
    (base points, generators as image tuples).

    First the base: fix the branching point of the search to itself,
    again and again, until every point is assigned (the identity path).
    Level i holds the base point b_i and the partial map that fixes
    b_1..b_{i-1}.  Then, from the deepest level up, emit the
    transposition (b_i c) for each twin c of b_i that is not an earlier
    base point and not yet in b_i's orbit under the generators found so
    far; it fixes b_1..b_{i-1} and costs no node.  Then look for one
    automorphism that fixes b_1..b_{i-1} and maps b_i to y, for each
    candidate y that is neither in b_i's orbit nor in the orbit of a y
    that failed at this level (those fail as well).  The generators
    found at levels i and deeper are those that fix b_1..b_{i-1}; they
    generate the stabilizer of b_1..b_{i-1} and reach its whole orbit of
    b_i, so they are a strong generating set for this base.  A refusal
    drops the generators found so far before it leaves.
    """
    search = _Search(s, s, node_budget)
    img, dom = search.start()
    levels = []
    while True:
        b = _pick(img, dom)
        if b < 0:
            break
        levels.append((b, dom[b], img[:], dom[:]))
        search.node()
        search.extend(img, dom, b, b)

    twins = [()] * s.size
    for c in _twin_classes(s):
        for x in c:
            twins[x] = c
    position = [len(levels)] * s.size
    for i, level in enumerate(levels):
        position[level[0]] = i
    parent = list(range(s.size))
    gens = []
    try:
        for i in reversed(range(len(levels))):
            b, cands, img, dom = levels[i]
            for c in twins[b]:
                if position[c] > i and _find(parent, c) != _find(parent, b):
                    g = list(range(s.size))
                    g[b], g[c] = c, b
                    gens.append(tuple(g))
                    _unite(parent, g)
            failed = []
            cands &= ~(1 << b)
            while cands:
                low = cands & -cands
                cands ^= low
                y = low.bit_length() - 1
                root = _find(parent, y)
                if root == _find(parent, b) or any(_find(parent, f) == root for f in failed):
                    continue
                search.node()
                child_img, child_dom = img[:], dom[:]
                g = None
                if search.extend(child_img, child_dom, b, y):
                    g = next(search.completions(child_img, child_dom), None)
                if g is None:
                    failed.append(y)
                    continue
                gens.append(g)
                _unite(parent, g)
    except ResourceLimitError:
        gens.clear()
        raise
    return tuple(level[0] for level in levels), gens


def is_transitive(s: Structure, node_budget=DEFAULT_NODE_BUDGET) -> bool:
    """Whether Aut(s) has a single orbit.

    An automorphism keeps each point's colour counts, so the answer is
    False, with no search, when the search's starting cells are more
    than one; otherwise it is whether the generators that
    automorphism_generators finds have a single orbit.
    """
    if len(set(_colour_counts(s))) > 1:
        return False
    parent = list(range(s.size))
    for g in automorphism_generators(s, node_budget)[1]:
        _unite(parent, g)
    return len({_find(parent, x) for x in range(s.size)}) <= 1
