"""Builders for the stock quandle families.

All constructors return checked FiniteQuandle values, in exact integer
arithmetic.  Each refuses a table of more than POINT_CAP points before
it builds anything.
"""

from __future__ import annotations

import itertools
import math

from ._record import Record
from .core import FiniteQuandle, _admit, _check_axioms, _sized_rows, _square_rows, direct_product
from .errors import AxiomError, InputError, VerificationError, _is_int, _require_int
from .graphs import SimpleGraph, _adjacency_masks, parity_difference


def trivial(n: int) -> FiniteQuandle:
    """Every symmetry is the identity."""
    _require_int(n, "size must be a positive integer, got {!r}", 1)
    _admit(n)
    row = tuple(range(n))
    return FiniteQuandle([row] * n)


def dihedral(r: int) -> FiniteQuandle:
    """Reflection quandle of the regular r-gon: table[x][y] = (2x - y) mod r.

    The row at x is the reflection of the circle across the axis through
    vertex x, written additively on vertex indices.
    """
    _require_int(r, "order must be a positive integer, got {!r}", 1)
    _admit(r)
    return FiniteQuandle([[(2 * x - y) % r for y in range(r)] for x in range(r)])


def axis_quandle(n: int) -> FiniteQuandle:
    """The 2n signed standard basis vectors of n-space under coordinate reflections.

    Point 2(i-1)+0 is +e_i and 2(i-1)+1 is -e_i.  The symmetry at either
    sign of e_i fixes the i-th pair and swaps the signs of every other pair,
    so this is the graph quandle of the complete graph K_n.
    """
    _require_int(n, "dimension must be a positive integer, got {!r}", 1)
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
    if not (_is_int(k, 1) and _is_int(n, k)):
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


def _graph_quandle_rows(masks) -> list[tuple[int, ...]]:
    """The table of the graph quandle with these adjacency bitmasks: the
    row at (v, 0) and at (v, 1) swaps (w, 0) and (w, 1) exactly when bit
    w of masks[v] is set."""
    table = []
    for m in masks:
        row = []
        for w in range(len(masks)):
            row += [2 * w + 1, 2 * w] if m >> w & 1 else [2 * w, 2 * w + 1]
        table += [tuple(row)] * 2
    return table


class CocycleTable(Record):
    """Candidate 2-cocycle: a square table of values mod m >= 2.

    This is only a well-shaped table; whether it actually is a cocycle
    for a given quandle is decided by is_cocycle.
    """

    __slots__ = ("modulus", "values")

    def __init__(self, modulus, values):
        _require_int(modulus, "modulus must be an integer >= 2, got {!r}", 2)
        rows = _square_rows(
            values, "cocycle values", "cocycle table", "cocycle entry {v!r} is not an integer", bounded=False
        )
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


def _extension_rows(q: FiniteQuandle, phi: CocycleTable) -> list[tuple[int, ...]]:
    """The rows of the extension of q along phi, point (x, a) at index
    x*m + a, with the symmetry at (x, a) sending (y, b) to
    (s_x(y), b + phi(x, y)).  Refuses a cocycle on another base and more
    than POINT_CAP points before it builds anything."""
    if phi.base_size != q.size:
        raise InputError(f"cocycle base size {phi.base_size} does not match quandle size {q.size}")
    m = phi.modulus
    _admit(q.size * m)
    rows = []
    for sx, vx in zip(q.table, phi.values):
        # The row at (x, a) does not depend on a: build it once.
        row = []
        for sxy, shift in zip(sx, vx):
            base = sxy * m
            row += [base + (b + shift) % m for b in range(m)]
        rows += [tuple(row)] * m
    return rows


def _witness(report, m: int) -> tuple:
    """The first failing cocycle condition, read off the extension's
    axiom report: the conditions of is_cocycle do not depend on the fiber
    coordinates, so Q1 first fails at x*m and Q3 at (x*m, y*m, z*m) for
    the first failing x and (x, y, z)."""
    axiom, points = report.first_violation
    if axiom in ("Q1", "Q3") and not any(p % m for p in points):
        return ("diagonal" if axiom == "Q1" else "identity", tuple(p // m for p in points))
    raise VerificationError(f"the extension fails {axiom} at {points}, which no cocycle condition explains")


def is_cocycle(q: FiniteQuandle, phi: CocycleTable) -> CocycleCheck:
    """Whether the extension of q along phi is a quandle.  Its rows are all
    permutations, and its Q1 and Q3 are exactly these conditions (mod m):

        phi(x, x) = 0,
        phi(x, s_y(z)) + phi(y, z) = phi(s_x(y), s_x(z)) + phi(x, z).

    They are decided by the axiom check of the extension, so this costs
    what building and checking n*m points costs, and it refuses more
    than POINT_CAP points.
    """
    report = _check_axioms(_extension_rows(q, phi))
    return CocycleCheck(True) if report.ok else CocycleCheck(False, _witness(report, phi.modulus))


def cocycle_extension(q: FiniteQuandle, phi: CocycleTable) -> FiniteQuandle:
    """Abelian extension along a 2-cocycle: points (x, a) at index x*m + a,
    with the symmetry at (x, a) sending (y, b) to (s_x(y), b + phi(x, y)).

    The table's own axiom check decides whether phi is a cocycle; a
    failure names the first failing condition, as is_cocycle does.
    """
    rows = _extension_rows(q, phi)
    m = phi.modulus
    labels = [f"({q.label(x)},{a})" for x in range(q.size) for a in range(m)]
    try:
        return FiniteQuandle(rows, labels)
    except AxiomError as exc:
        raise InputError(f"not a 2-cocycle: first violation {_witness(exc.report, m)}") from None


def discrete_torus(orders) -> FiniteQuandle:
    """Direct product of dihedral quandles, folded left to right."""
    orders = tuple(orders)
    if not orders:
        raise InputError("a discrete torus needs at least one factor")
    for r in orders:
        _require_int(r, "order must be a positive integer, got {!r}", 1)
    _admit(math.prod(orders))
    q = dihedral(orders[0])
    for r in orders[1:]:
        q = direct_product(q, dihedral(r))
    return q


def cocycle_from_dict(d) -> CocycleTable:
    """Parse cocycle JSON.  With an integer modulus m >= 2, a "size" n
    whose extension would have more than POINT_CAP points (n*m) raises
    ResourceLimitError before the values are read."""
    if not isinstance(d, dict) or not {"size", "modulus", "values"} <= set(d):
        raise InputError('cocycle JSON needs "size", "modulus" and "values"')
    modulus = d["modulus"]
    # A bad modulus is CocycleTable's to refuse, once the rows are found.
    _, values = _sized_rows(d, "values", modulus if _is_int(modulus, 2) else 0)
    return CocycleTable(modulus, values)
