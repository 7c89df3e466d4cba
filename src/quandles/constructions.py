"""Builders for the stock quandle families.

All constructors return checked FiniteQuandle values, in exact integer
arithmetic.  Each refuses a table of more than POINT_CAP points before
it builds anything.
"""

from __future__ import annotations

import itertools
import math

from ._record import Record
from .core import FiniteQuandle, direct_product
from .errors import AxiomError, InputError, ResourceLimitError
from .graphs import SimpleGraph, _adjacency_masks, _require_positive, parity_difference
from .permgroup import _Kernel

# The most points a constructor builds a table for.  The axiom check of
# the result takes time growing about as n^3 (dihedral(1024) took about
# 15 s on a 2-core machine).  A module constant, with no setting.
POINT_CAP = 2048


def _admit(points: int) -> None:
    """Refuse a table of more than POINT_CAP points, before any work."""
    if points > POINT_CAP:
        raise ResourceLimitError(
            f"the table would have {points} points, over the bound of {POINT_CAP}"
        )


def trivial(n: int) -> FiniteQuandle:
    """Every symmetry is the identity."""
    _require_positive(n, "size")
    _admit(n)
    row = tuple(range(n))
    return FiniteQuandle([row] * n)


def dihedral(r: int) -> FiniteQuandle:
    """Reflection quandle of the regular r-gon: table[x][y] = (2x - y) mod r.

    The row at x is the reflection of the circle across the axis through
    vertex x, written additively on vertex indices.
    """
    _require_positive(r, "order")
    _admit(r)
    return FiniteQuandle([[(2 * x - y) % r for y in range(r)] for x in range(r)])


def axis_quandle(n: int) -> FiniteQuandle:
    """The 2n signed standard basis vectors of n-space under coordinate reflections.

    Point 2(i-1)+0 is +e_i and 2(i-1)+1 is -e_i.  The symmetry at either
    sign of e_i fixes the i-th pair and swaps the signs of every other pair,
    so this is the graph quandle of the complete graph K_n.
    """
    _require_positive(n, "dimension")
    _admit(2 * n)
    everyone = (1 << n) - 1
    labels = []
    for i in range(1, n + 1):
        labels += [f"+e{i}", f"-e{i}"]
    return FiniteQuandle(_graph_quandle_rows([everyone ^ 1 << v for v in range(n)]), labels)


def aknn(k: int, n: int) -> FiniteQuandle:
    """Oriented coordinate k-planes in n-space; 2*C(n,k) points.

    The symmetry at I keeps J's plane and flips its orientation exactly
    when the difference J \\ I has odd size; the sign of I is irrelevant.
    So this is the graph quandle of graphs.parity_difference(n, k), with
    its own labels.  Element order (k-subsets lexicographic, + before -)
    is part of the public contract.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not isinstance(n, int) or isinstance(n, bool) or not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    _admit(2 * math.comb(n, k))
    labels = [
        sign + "(" + ",".join(map(str, idx)) + ")"
        for idx in itertools.combinations(range(1, n + 1), k)
        for sign in "+-"
    ]
    masks = _adjacency_masks(parity_difference(n, k))
    return FiniteQuandle(_graph_quandle_rows(masks), labels)


def from_graph(g: SimpleGraph) -> FiniteQuandle:
    """The quandle on vertex-bit pairs of a simple graph.

    Point 2v+a is (v, a); the symmetry at (v, a) sends (w, b) to
    (w, b + e(v, w)) where e is the adjacency function, so the row does
    not depend on a.
    """
    _admit(2 * g.vertex_count)
    labels = [f"({g.label(v)},{a})" for v in range(g.vertex_count) for a in (0, 1)]
    return FiniteQuandle(_graph_quandle_rows(_adjacency_masks(g)), labels)


def _graph_quandle_rows(masks) -> list[list[int]]:
    """The table of the graph quandle with these adjacency bitmasks: the
    row at (v, 0) and at (v, 1) swaps (w, 0) and (w, 1) exactly when bit
    w of masks[v] is set."""
    table = []
    for m in masks:
        row = []
        for w in range(len(masks)):
            row += [2 * w + 1, 2 * w] if m >> w & 1 else [2 * w, 2 * w + 1]
        table += (row, row)
    return table


class CocycleTable(Record):
    """Candidate 2-cocycle: a square table of values mod m >= 2.

    This is only a well-shaped table; whether it actually is a cocycle
    for a given quandle is decided by is_cocycle.
    """

    __slots__ = ("modulus", "values")

    def __init__(self, modulus, values):
        if not isinstance(modulus, int) or isinstance(modulus, bool) or modulus < 2:
            raise InputError(f"modulus must be an integer >= 2, got {modulus!r}")
        try:
            rows = tuple(tuple(row) for row in values)
        except TypeError:
            raise InputError("cocycle values must be a sequence of rows") from None
        n = len(rows)
        if n == 0:
            raise InputError("cocycle table must have at least one row")
        for x, row in enumerate(rows):
            if len(row) != n:
                raise InputError(f"cocycle table is not square: row {x} has length {len(row)}")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InputError(f"cocycle entry {v!r} is not an integer")
        self._set(modulus, tuple(tuple(v % modulus for v in row) for row in rows))

    @property
    def base_size(self):
        return len(self.values)

    def __repr__(self):
        return f"CocycleTable(base_size={self.base_size}, modulus={self.modulus})"


class CocycleCheck(Record):
    """Verdict of a cocycle check; witness is ("diagonal", (x,)) or
    ("identity", (x, y, z)) for the first failing condition."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: bool, witness: tuple | None = None):
        self._set(ok, witness)

    def __bool__(self):
        return self.ok


def _first_failing_point(t, vals, m):
    """The first x at which the 2-cocycle identity fails for some (y, z),
    or None when it holds everywhere; needs n <= 256 and m <= 64.

    For fixed (x, z) the identity over all y reads

        vals[x][y] + vals[s_y(x)][z] - vals[s_z(x)][s_z(y)] - vals[x][z] = 0 (mod m).

    The two middle rows are byte translates: column x of t through column
    z of vals, and row z of t through row s_z(x) of vals.  The whole sum
    is then taken on integers holding one byte per y.  Adding 2m to each
    byte keeps every byte in [2, 4m - 2], inside 0..255 for m <= 64, so
    no byte borrows from the next and the bytes of the result are the n
    sums exactly; the identity holds when each is m, 2m or 3m.
    """
    n = len(t)
    kernel = _Kernel(n)  # pads a row of values, like a row of points, to a translate table
    columns = [bytes(c) for c in zip(*t)]
    rows = [bytes(r) for r in t]
    val_rows = list(map(kernel.embed, vals))
    val_columns = list(map(kernel.embed, zip(*vals)))
    ones = int.from_bytes(b"\x01" * n, "little")
    offsets = [(2 * m - c) * ones for c in range(m)]
    multiples = bytes((m, 2 * m, 3 * m))
    for x in range(n):
        vx = vals[x]
        left = int.from_bytes(bytes(vx), "little")
        column = columns[x]  # s_z(x) at each z
        for z in range(n):
            total = (
                left
                + int.from_bytes(column.translate(val_columns[z]), "little")
                - int.from_bytes(rows[z].translate(val_rows[column[z]]), "little")
                + offsets[vx[z]]
            )
            if total.to_bytes(n, "little").translate(None, multiples):
                return x
    return None


def is_cocycle(q: FiniteQuandle, phi: CocycleTable) -> CocycleCheck:
    """Check the zero diagonal and the 2-cocycle identity over all triples:

        phi(x,y) - phi(x,z) + phi(s_y(x), z) - phi(s_z(x), s_z(y)) = 0  (mod m)
    """
    if phi.base_size != q.size:
        raise InputError(
            f"cocycle base size {phi.base_size} does not match quandle size {q.size}"
        )
    m = phi.modulus
    vals = phi.values
    t = q.table
    n = q.size
    for x in range(n):
        if vals[x][x] % m != 0:
            return CocycleCheck(False, ("diagonal", (x,)))
    start = _first_failing_point(t, vals, m) if n <= 256 and m <= 64 else 0
    if start is None:
        return CocycleCheck(True)
    for x in range(start, n):
        for y in range(n):
            for z in range(n):
                total = (
                    vals[x][y]
                    - vals[x][z]
                    + vals[t[y][x]][z]
                    - vals[t[z][x]][t[z][y]]
                )
                if total % m != 0:
                    return CocycleCheck(False, ("identity", (x, y, z)))
    return CocycleCheck(True)


def cocycle_extension(q: FiniteQuandle, phi: CocycleTable) -> FiniteQuandle:
    """Abelian extension along a 2-cocycle: points (x, a) at index x*m + a,
    with the symmetry at (x, a) sending (y, b) to (s_x(y), b + phi(x, y)).

    The cocycle check runs first; the constructed table is axiom-checked
    on the way out.
    """
    check = is_cocycle(q, phi)
    if not check.ok:
        raise InputError(f"not a 2-cocycle: first violation {check.witness}")
    m = phi.modulus
    n = q.size
    _admit(n * m)
    t = q.table
    vals = phi.values
    table = []
    for x in range(n):
        # The row at (x, a) does not depend on a: build it once.
        row = []
        for y in range(n):
            base = t[x][y] * m
            shift = vals[x][y]
            row += [base + (b + shift) % m for b in range(m)]
        table += [row] * m
    labels = [f"({q.label(x)},{a})" for x in range(n) for a in range(m)]
    try:
        return FiniteQuandle(table, labels)
    except AxiomError:
        # Reachable only for asymmetric cocycles over a nontrivial base:
        # the checked identity transports the first argument, while the
        # (x, y) argument order used here needs the transposed table to
        # satisfy it.  Refuse rather than hand back a non-quandle.
        raise InputError(
            "cocycle passes the two-argument identity but its transpose does "
            "not; the (x, y)-ordered extension of this base is not a quandle"
        ) from None


def discrete_torus(orders) -> FiniteQuandle:
    """Direct product of dihedral quandles, folded left to right."""
    orders = tuple(orders)
    if not orders:
        raise InputError("a discrete torus needs at least one factor")
    for r in orders:
        _require_positive(r, "order")
    _admit(math.prod(orders))
    q = dihedral(orders[0])
    for r in orders[1:]:
        q = direct_product(q, dihedral(r))
    return q


def cocycle_from_dict(d) -> CocycleTable:
    if not isinstance(d, dict) or not {"size", "modulus", "values"} <= set(d):
        raise InputError('cocycle JSON needs "size", "modulus" and "values"')
    size = d["size"]
    values = d["values"]
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise InputError('"size" must be a positive integer')
    if not isinstance(values, list) or len(values) != size:
        raise InputError(f'"values" must be a list of {size} rows')
    return CocycleTable(d["modulus"], values)
