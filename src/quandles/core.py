"""Finite quandles as Cayley tables.

A quandle on points 0..n-1 is stored as an n x n table with
``table[x][y]`` the image of ``y`` under the point symmetry at ``x``.
The three axioms:

  Q1  table[x][x] == x
  Q2  every row is a permutation of the points
  Q3  table[x][table[y][z]] == table[table[x][y]][table[x][z]]

The transpose convention (operate on the left argument) is the same data
with rows and columns swapped; only this one is used here.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from collections.abc import Iterator

from ._record import Record
from .errors import AxiomError, InputError, ResourceLimitError, _is_int, _require_int
from .permgroup import _Kernel, _cycle_type, _cycles
from .search import DEFAULT_NODE_BUDGET, isomorphisms, quandle_structure

ENUMERATION_CAP = 7

# The most points a constructor builds a table for, or a quandle file may
# declare.  Above 256 points the axiom check makes about d^2 gathers of
# n-tuples for d distinct rows: on the graph quandle of a cycle (d = n/2)
# one check took 2.9 s at 600 points, 12.9 s at 1000 and 82 s at 2000
# (Python 3.11, 2-core VM).  A module constant, with no setting; every
# builder and loader, and every graph, applies it through _admit.
POINT_CAP = 2048


def _admit(count: int, what: str = "the table would have", unit: str = "points", bound: int | None = None) -> None:
    """The package's one size check: refuse a count over bound (POINT_CAP,
    read at call time) before any work, naming what, count and unit."""
    bound = POINT_CAP if bound is None else bound
    if count > bound:
        raise ResourceLimitError(f"{what} {count} {unit}, over the bound of {bound}")


# The most relabelings canonical_table compares (dihedral(13) has 599,040).
# Its memory no longer grows with the slice, but its time still does.
CANONICAL_SLICE_CAP = 10**6


class AxiomReport(Record):
    """Outcome of checking the three axioms on a candidate table.

    first_violation is a pair (axiom id, points involved): ("Q1", (x,)),
    ("Q2", (x, y1, y2)) for a row x repeating a value at columns y1, y2,
    or ("Q3", (x, y, z)).
    """

    __slots__ = ("q1_ok", "q2_ok", "q3_ok", "first_violation")

    def __init__(self, q1_ok: bool, q2_ok: bool, q3_ok: bool, first_violation: tuple | None = None):
        self._set(q1_ok, q2_ok, q3_ok, first_violation)

    @property
    def ok(self) -> bool:
        return self.q1_ok and self.q2_ok and self.q3_ok


def _square_rows(values, rows_of="table", noun="table", entry="entry table[{x}][{y}] = {v!r} is out of range", bounded=True):
    """The one check of a square table, quandle or cocycle: values as row
    tuples, at least one row, each as long as there are rows, each entry
    an int (not a bool), in range(n) if bounded.  rows_of, noun and entry
    (formatted with x, y, v) word the messages.  The lengths and entry
    types of each distinct row object, then the min and max of each
    distinct row value, are tested at C level; only a table that fails
    is walked to name its first fault."""
    try:
        rows = tuple(map(tuple, values))
    except TypeError:
        raise InputError(f"{rows_of} must be a sequence of rows") from None
    n = len(rows)
    if n == 0:
        raise InputError(f"{noun} must have at least one row")
    given = {id(r): r for r in rows}.values()  # a row object given twice is tested once
    if set(map(len, given)) == {n} and set(map(type, itertools.chain.from_iterable(given))) == {int}:
        distinct = set(given)  # all plain ints, so rows of equal value are alike
        if not bounded or (min(map(min, distinct)) >= 0 and max(map(max, distinct)) < n):
            return rows
    low, high = (0, n - 1) if bounded else (None, None)
    for x, row in enumerate(rows):
        if len(row) != n:
            raise InputError(f"{noun} is not square: row {x} has length {len(row)}")
        for y, v in enumerate(row):
            if not _is_int(v, low, high):
                raise InputError(entry.format(x=x, y=y, v=v))
    return rows


def _as_rows(table) -> tuple[tuple[int, ...], ...]:
    return table.table if isinstance(table, FiniteQuandle) else _square_rows(table)


def _labels(labels, count: int, unit: str) -> tuple[str, ...] | None:
    """Display labels as strings, one per point or vertex, or None."""
    labels = None if labels is None else tuple(map(str, labels))
    if labels is not None and len(labels) != count:
        raise InputError(f"{len(labels)} labels for {count} {unit}")
    return labels


def verify_axioms(table) -> AxiomReport:
    """Check Q1, Q2, Q3 on a candidate table.

    Malformed input (non-square, out-of-range entries) raises InputError;
    axiom failures are reported, not raised.
    """
    return _check_axioms(_as_rows(table))


def _check_axioms(rows) -> AxiomReport:
    """verify_axioms on rows already normalized by _as_rows.

    Q3 at x says s_x s_y = s_{s_x(y)} s_x for every y.  It depends on
    the row s_x alone, so it is decided once per distinct row, at its
    first point; call those points the representatives and d their
    number.  A row s = s_x passes when s sends every class of equal rows
    into one class and the identity holds at each representative y: then
    it holds at every y.  Each side of the identity is one C-level
    composition of rows, so a table costs about d * (d + n) compositions
    instead of n * n.  The paper's families repeat every row (s_(v,0) =
    s_(v,1) in a graph quandle), so there d <= n/2.  A row that fails
    this test is scanned at every y in order, point by point for the
    first failing z, which keeps first_violation that of the plain scan.
    """
    n = len(rows)

    q1_witness = None
    for x in range(n):
        if rows[x][x] != x:
            q1_witness = ("Q1", (x,))
            break

    q2_witness = None
    for x in range(n):
        if len(set(rows[x])) == n:
            continue
        seen = {}
        for y, v in enumerate(rows[x]):
            if v in seen:
                q2_witness = ("Q2", (x, seen[v], y))
                break
            seen[v] = y
        if q2_witness:
            break

    first = {}
    rep = [first.setdefault(r, y) for y, r in enumerate(rows)]  # representative of y's row
    reps = list(first.values())
    d = len(reps)

    q3_witness = None
    kernel = _Kernel(n)
    left, right = list(map(kernel.embed, rows)), list(map(kernel.after, rows))
    left_rep = kernel.embed(rep)
    for x in reps:
        rx, lx, tx = rows[x], left[x], right[x]
        # tx(left_rep) is the representative of s_x(y) at each y.
        if d == n or len(set(zip(rep, tx(left_rep)))) == d:
            for y in reps:
                if right[y](lx) != tx(left[rx[y]]):
                    break
            else:
                continue
        for y in range(n):
            if right[y](lx) != tx(left[rx[y]]):
                rxy, ry = rows[rx[y]], rows[y]
                z = next(z for z in range(n) if rx[ry[z]] != rxy[rx[z]])
                q3_witness = ("Q3", (x, y, z))
                break
        if q3_witness:
            break

    return AxiomReport(
        q1_ok=q1_witness is None,
        q2_ok=q2_witness is None,
        q3_ok=q3_witness is None,
        first_violation=q1_witness or q2_witness or q3_witness,
    )


class FiniteQuandle(Record):
    """Immutable finite quandle; table[x][y] is the symmetry at x applied to y.

    Labels are display-only metadata and never enter any algorithm;
    equality and hashing use the table alone.
    """

    __slots__ = ("table", "labels")
    _compared = ("table",)

    def __init__(self, table, labels=None):
        rows = _as_rows(table)
        labels = _labels(labels, len(rows), "points")
        report = _check_axioms(rows)
        if not report.ok:
            raise AxiomError(
                f"table is not a quandle: first violation {report.first_violation}",
                report,
            )
        self._set(rows, labels)

    @property
    def size(self) -> int:
        return len(self.table)

    def __repr__(self):
        return f"FiniteQuandle(size={self.size})"

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)


def is_homomorphism(images, q1: FiniteQuandle, q2: FiniteQuandle) -> bool:
    """True iff images[q1.table[x][y]] == q2.table[images[x]][images[y]]
    for all x, y, where images[x] is the image of point x of q1 in q2."""
    im = tuple(images)
    if len(im) != q1.size:
        raise InputError(f"{len(im)} images for domain of size {q1.size}")
    for x, y in enumerate(im):
        if not _is_int(y, 0, q2.size - 1):
            raise InputError(f"image of {x} is {y!r}, out of range")
    t1, t2 = q1.table, q2.table
    for x in range(q1.size):
        fx = im[x]
        for y in range(q1.size):
            if im[t1[x][y]] != t2[fx][im[y]]:
                return False
    return True


def iter_isomorphisms(q1: FiniteQuandle, q2: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET):
    """Yield every bijective homomorphism q1 -> q2 as an image tuple.

    Backtracking over point images (see quandles.search), pruned by the
    colour counts of each point, by pair colours, and by forced
    assignments: once x and y have images, table[x][y] is forced.
    Exceeding node_budget raises ResourceLimitError rather than ending
    the search quietly.
    """
    if q2.size != q1.size:
        return
    s1 = quandle_structure(q1.table)
    s2 = s1 if q2.table == q1.table else quandle_structure(q2.table)
    yield from isomorphisms(s1, s2, node_budget)


def find_isomorphism(q1: FiniteQuandle, q2: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, ...] | None:
    """A quandle isomorphism q1 -> q2 as an image tuple, or None if there is none."""
    return next(iter_isomorphisms(q1, q2, node_budget=node_budget), None)


def direct_product(q1: FiniteQuandle, q2: FiniteQuandle) -> FiniteQuandle:
    """Componentwise quandle on pairs; (x1, x2) sits at index x1 * q2.size + x2.
    Refuses more than POINT_CAP points before it builds anything."""
    n1, n2 = q1.size, q2.size
    _admit(n1 * n2)
    t1, t2 = q1.table, q2.table
    table = [
        [t1[x1][y1] * n2 + t2[x2][y2] for y1 in range(n1) for y2 in range(n2)]
        for x1 in range(n1)
        for x2 in range(n2)
    ]
    labels = None
    if q1.labels or q2.labels:
        labels = [
            f"({q1.label(x1)},{q2.label(x2)})"
            for x1 in range(n1)
            for x2 in range(n2)
        ]
    return FiniteQuandle(table, labels)


def _cycles_by_length(perm, fixed) -> list[tuple[int, ...]]:
    """The cycles of perm other than the fixed point `fixed`, shortest
    first, each read from its smallest point; equal lengths keep the
    order of their smallest points."""
    return sorted((c for c in _cycles(perm) if c[0] != fixed), key=len)


# The most points for which a pair of points a * n + b fits in a byte, so
# that _orbit_slice relabels a table with two translates.
_PAIR_INDEX_POINTS = 16

@functools.cache
def _shifts(n: int) -> tuple[bytes, ...]:
    """For n <= 16, the translation tables sending each point v < n to
    a * n + v, one for each a < n."""
    return tuple(bytes(range(a * n, a * n + n)).ljust(256, b"\0") for a in range(n))


def _pair_index(where: bytes) -> bytes:
    """For a sequence of n <= 16 points, the n * n bytes with
    where[a] * n + where[b] at a * n + b: block a is where shifted up by
    where[a] * n."""
    return b"".join(map(where.translate, map(_shifts(len(where)).__getitem__, where)))


def _listings(p) -> list[tuple[bytes, bytes]]:
    """Every way to list the points of p, a permutation fixing 0: first 0,
    then the other cycles grouped by increasing length, each group in any
    order and each cycle in any rotation.  Each listing L, read as the
    permutation i -> L[i], comes as the pair (index, L), with L in the
    stored form of _Kernel.  With position[v] the index of v in L, index
    is _pair_index(position) up to 16 points and position itself above.
    Not cached: a caller lists them once per row 0 and drops them when it
    is done."""
    n = len(p)
    kernel = _Kernel(n)
    per_length = [
        [
            tuple(itertools.chain.from_iterable(c[r:] + c[:r] for c, r in zip(order, shifts)))
            for order in itertools.permutations(group)
            for shifts in itertools.product(range(len(group[0])), repeat=len(group))
        ]
        for group in (list(g) for _, g in itertools.groupby(_cycles_by_length(p, 0), len))
    ]
    listings = [
        kernel.embed(itertools.chain((0,), *parts))
        for parts in itertools.product(*per_length)
    ]
    positions = (kernel.scatter(listing, kernel.ident)[:n] for listing in listings)
    if n <= _PAIR_INDEX_POINTS:
        positions = map(_pair_index, positions)
    return list(zip(positions, listings))


def _orbit_slice(rows, p, listings) -> Iterator[bytes]:
    """Yield every relabeling of the table whose row 0 is p, as flat
    bytes; listings are _listings(p).

    rows are permutations fixing their own point, at most 256 of them,
    and p fixes 0.  A relabeling sigma carries row x to sigma s_x
    sigma^-1 at sigma(x), so its row 0 is p exactly when, for the point x
    it sends to 0, it conjugates s_x to p.  These sigma are built with no
    search: for each x whose row has p's cycle type, list x and then the
    other cycles of s_x grouped by length (the source listing S); sigma
    sends S[i] to L[i] for each listing L of p (_listings).  That is
    |X| * |C_Stab(0)(p)| relabelings (_slice_size).  A table repeats when
    sigma is an automorphism.

    With R[i][j] the index in S of s_S[i](S[j]), the relabeled table has
    L[R[i][j]] at (L[i], L[j]).  Up to 16 points R is built once per x,
    flat (R[i][j] at i * n + j) and padded to a 256-byte translation
    table; each relabeling is then two translates, index.translate(R)
    .translate(L), with no loop over rows.  The at most 16 tables R are
    kept and the listings are the outer loop.  Above 16 points one x is
    handled at a time, so memory holds its rows and one table and not
    the slice: row i of R is S^-1 o s_S[i] o S in the stored form of
    _Kernel, and each listing gathers the rows of R by position, then
    translates by L.
    """
    n = len(rows)
    kernel = _Kernel(n)
    gather = kernel.gather
    shape = [len(c) for c in _cycles_by_length(p, 0)]

    def sources():
        # (S, position in S), stored, for each x whose row has p's type.
        for x, row in enumerate(rows):
            cycles = _cycles_by_length(row, x)
            if [len(c) for c in cycles] == shape:
                source = kernel.embed(itertools.chain((x,), *cycles))
                yield source, kernel.scatter(source, kernel.ident)

    if n <= _PAIR_INDEX_POINTS:
        # R[i][j] = position[table[S[i]][S[j]]], from the flat table.
        flat = b"".join(map(bytes, rows)).ljust(256, b"\0")
        reindexed = [
            _pair_index(source[:n]).translate(flat).translate(position).ljust(256, b"\0")
            for source, position in sources()
        ]
        for index, listing in listings:
            for r in reindexed:
                yield index.translate(r).translate(listing)
        return
    stored = list(map(kernel.embed, rows))
    for source, position in sources():
        reindexed = [gather(gather(source, stored[v]), position) for v in source[:n]]
        for where, listing in listings:
            yield b"".join(map(kernel.after(where), map(reindexed.__getitem__, where))).translate(listing)


def _slice_size(rows, p) -> int:
    """len(_orbit_slice(rows, p)) from cycle types alone: |X| times
    |C_Stab(0)(p)| = prod over L of m_L! * L^m_L, where X is the set of
    points whose row has p's cycle type and m_L the number of cycles of
    length L in p other than its fixed point 0."""
    shape = _cycle_type(p)
    size = sum(_cycle_type(r) == shape for r in rows)
    for length, m in collections.Counter(map(len, _cycles_by_length(p, 0))).items():
        size *= math.factorial(m) * length**m
    return size


def _least_of_type(lengths) -> tuple[int, ...]:
    """The lexicographically least permutation with these sorted cycle
    lengths (at least one 1): the fixed points first, then each cycle on
    consecutive points, shortest first.  It fixes 0."""
    images = []
    for k in lengths:
        start = len(images)
        images += range(start + 1, start + k)
        images.append(start)
    return tuple(images)


def _unflatten(t: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(t[i : i + n]) for i in range(0, n * n, n))


def canonical_table(q) -> tuple[tuple[int, ...], ...]:
    """Lexicographically smallest table over all relabelings of the points.

    Row 0 of a relabeling is a conjugate of some row s_x by a sigma that
    sends x to 0, so it can be any permutation fixing 0 with the cycle
    type of some row, and nothing else.  The smallest table therefore has
    row 0 = p*, the least permutation fixing 0 among the row types
    present, and it is the least of the relabelings with that row 0 (see
    _orbit_slice), taken as they are generated.  This needs rows that
    are permutations fixing their own point (Q1 and Q2, not Q3);
    anything else raises InputError.  A table with more than
    CANONICAL_SLICE_CAP such relabelings raises ResourceLimitError
    before any is built.
    """
    rows = _as_rows(q)
    n = len(rows)
    if n > 256:
        raise InputError(f"canonical_table takes at most 256 points, got {n}")
    for x, row in enumerate(rows):
        if row[x] != x or len(set(row)) != n:
            raise InputError(f"row {x} is not a permutation fixing {x}")
    p = min(_least_of_type(t) for t in {_cycle_type(r) for r in rows})
    _admit(_slice_size(rows, p), "canonical_table would compare", "relabelings", CANONICAL_SLICE_CAP)
    return _unflatten(min(_orbit_slice(rows, p, _listings(p))), n)


def _first_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """One table per isomorphism class of quandles on n points: the first
    one the search of enumerate_quandles visits.

    Q3 at (0, x) puts p0 s_x p0^-1 at p0(x), with p0 = row 0, so a row
    placed anywhere on a cycle of p0 forces the whole cycle, and the
    search chooses rows only at the least point k of each cycle.  Of the
    rows fixing k, two kinds are skipped with no try, because the forced
    chain would fail: a row r that does not commute with p0^L, L the
    length of k's cycle (the chain returns to k as p0^L r p0^-L), and
    one whose conjugate r p0 r^-1, forced at r(0) by Q3 at (k, 0),
    differs from a row already there.  Forcing is closed in any order,
    so settle pairs each row it takes off the queue only with the rows
    taken off before it, and the tables visited are those of the plain
    search over every point and every placed pair.
    """
    if not _is_int(n, 1, ENUMERATION_CAP):
        raise InputError(f"enumeration is capped at order {ENUMERATION_CAP}, got {n!r}")

    points = range(n)
    kernel = _Kernel(n)
    gather, scatter = kernel.gather, kernel.scatter
    # The rows fixing x are the conjugates of those fixing 0 by (0 x),
    # which keep their cycle types; each list is in lexicographic order.
    fixing_0 = [(0, *p) for p in itertools.permutations(points[1:])]
    row_choices = [[(tuple(-c for c in _cycle_type(p)), kernel.embed(p)) for p in fixing_0]]
    for x in points[1:]:
        swap = kernel.embed((x, *points[1:x], 0, *points[x + 1 :]))
        conjugates = ((key, scatter(swap, gather(r, swap))) for key, r in row_choices[0])
        row_choices.append(sorted(conjugates, key=lambda c: c[1]))

    rows: list = [None] * n
    order = []  # the placed points, in the order they were placed
    seen = set()
    found = []

    def settle(start):
        # Pair each row taken off the queue with the rows taken off before
        # it; those before start were paired with each other already.
        # Each pair (x, y) forces s_x s_y s_x^-1 at s_x(y), and (y, x)
        # forces s_y s_x s_y^-1 at s_y(x).
        qi = start
        while qi < len(order):
            x = order[qi]
            rx = rows[x]
            for y in order[:qi]:
                ry = rows[y]
                z, forced = rx[y], scatter(rx, gather(ry, rx))
                held = rows[z]
                if held is None:
                    rows[z] = forced
                    order.append(z)
                elif held != forced:
                    return False
                z, forced = ry[x], scatter(ry, gather(rx, ry))
                held = rows[z]
                if held is None:
                    rows[z] = forced
                    order.append(z)
                elif held != forced:
                    return False
            qi += 1
        return True

    def emit():
        t = b"".join([r[:n] for r in rows])
        if t in seen:
            return
        table = _unflatten(t, n)
        seen.update(_orbit_slice(table, table[0], listings))
        found.append(table)

    def backtrack(k):
        while k < n and rows[k] is not None:
            k += 1
        if k == n:
            emit()
            return
        for r, at, image in choices[k]:
            held = rows[at]
            if held is not None and held != image:
                continue
            start = len(order)
            rows[k] = r
            order.append(k)
            if settle(start):
                backtrack(k + 1)
            while len(order) > start:
                rows[order.pop()] = None

    for floor in sorted({key for key, _ in row_choices[0]}):
        first = next(r for key, r in row_choices[0] if key == floor)
        listings = _listings(tuple(first[:n]))  # row 0 of every table this pass visits
        choices = [None] * n
        for cycle in _cycles(first[:n])[1:]:
            k, power = cycle[0], first
            for _ in cycle[1:]:
                power = gather(power, first)
            choices[k] = [
                (r, r[0], scatter(r, gather(first, r)))
                for key, r in row_choices[k]
                if key >= floor and gather(power, r) == gather(r, power)
            ]
        seen.clear()  # a class is reached in one pass only
        rows[0] = first
        order.append(0)
        backtrack(1)
        rows[0] = None
        order.clear()
    return found


def enumerate_quandles(n: int) -> list[FiniteQuandle]:
    """All quandles on n points, one representative per isomorphism class.

    Rows are chosen by backtracking over diagonal-fixing permutations.
    Placing rows x and y forces the row at table[x][y] to be the
    conjugate row_x o row_y o row_x^-1, which prunes most of the tree
    and enforces Q3 exactly.  Rows are kept in the stored form of the
    permutation kernel, with no inverse: each conjugate is two kernel
    calls, scatter(row_x, gather(row_y, row_x)), and nothing is cached.
    Row 0 forces every row of a cycle of row 0 from any one of them, so
    a row is chosen only at the least point of each such cycle, and rows
    whose forced chain must fail are skipped untried (see _first_tables):
    963 tries and 6,429 conjugates at order 6 for its 183 tables, where
    a choice at every point would make 2,782 and 11,048.

    Relabelings are broken at row 0.  Order cycle types by the key
    (-c for c in sorted lengths), which puts the identity's type last.
    Every class has a point whose row has the smallest type among its
    rows; relabel that point to 0.  Two permutations that fix 0 and have
    the same cycle type are conjugate by one that fixes 0, so a further
    relabeling fixing 0 makes row 0 the first permutation of that type
    fixing 0, while every row keeps its type.  Hence the search makes
    one pass per type T of a permutation fixing 0: row 0 is that
    representative and every chosen row has type T or later.  Forced
    rows are conjugates of placed rows and share their types, so they
    need no check.  Each class is reached in the pass of its smallest
    row type and in no other.  The order is for speed: the first pass
    admits rows of every type, and its row 0, with the fewest fixed
    points, forces the most conjugates; the identity forces nothing, and
    as the last type its pass admits only identity rows, the trivial
    quandle alone.  (Identity first: 2574 tables visited at order 6
    instead of 183.)

    Every table a pass visits has the same row 0, so two of them are in
    one class exactly when one is a relabeling of the other with that
    row 0.  A new table therefore adds only that slice of its orbit to
    the pass's seen set (_orbit_slice: 2427 relabelings at order 6, not
    the 73 * 719 of the full orbits, each two translates up to 16
    points).  The representative is the canonical table of each class,
    computed on the same kind of slice (see canonical_table).  Output is
    sorted.
    """
    return sorted((FiniteQuandle(canonical_table(rows)) for rows in _first_tables(n)), key=lambda q: q.table)


def quandle_to_dict(q: FiniteQuandle) -> dict:
    """The JSON form of q; its rows are q's own row tuples, not copies."""
    d = {"size": q.size, "table": list(q.table)}
    if q.labels:
        d["labels"] = list(q.labels)
    return d


def quandle_from_dict(d) -> FiniteQuandle:
    """Parse quandle JSON; a table that fails the axioms raises AxiomError,
    and a "size" over POINT_CAP raises ResourceLimitError before the table
    is read."""
    if not isinstance(d, dict):
        raise InputError("quandle JSON must be an object")
    if "size" not in d or "table" not in d:
        raise InputError('quandle JSON needs "size" and "table"')
    size, table = _sized_rows(d, "table")
    labels = d.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != size
        or not all(isinstance(s, str) for s in labels)
    ):
        raise InputError(f'"labels" must be a list of {size} strings')
    return FiniteQuandle(table, labels)


def _sized_rows(d: dict, key: str, per_point: int = 1) -> tuple[int, list]:
    """A document's positive "size" and its list of that many rows under
    key; size * per_point points over POINT_CAP are refused first."""
    size = d["size"]
    _require_int(size, '"size" must be a positive integer', 1)
    _admit(size * per_point)
    rows = d[key]
    if not isinstance(rows, list) or len(rows) != size:
        raise InputError(f'"{key}" must be a list of {size} rows')
    return size, rows
