"""Derived structure of a quandle: symmetry groups, components, property
predicates, graph reconstruction, and the small-order census."""

from __future__ import annotations

from ._record import Record
from .constructions import discrete_torus
from .core import (
    ENUMERATION_CAP,
    FiniteQuandle,
    _first_tables,
    canonical_table,
)
from .errors import (
    BadComponentSizeError,
    InputError,
    NotCrossedError,
    ResourceLimitError,
    VerificationError,
    _is_int,
)
from .graphs import SimpleGraph, is_vertex_transitive
from .permgroup import PermGroup, _Kernel, _cycle_type, _noncommuting_pair
from .search import DEFAULT_NODE_BUDGET, automorphism_generators, is_transitive, quandle_structure


def inner_group(q: FiniteQuandle) -> PermGroup:
    """Group generated by the point symmetries: the distinct rows, which
    the table's own check has already found to be permutations."""
    return PermGroup(q.size, dict.fromkeys(q.table))


def _displacement_generators(q: FiniteQuandle) -> list:
    """Images of s_x o s_0^{-1} for every point x, duplicates removed, in order of x."""
    kernel = _Kernel(q.size)
    s0 = kernel.embed(q.table[0])
    return list(dict.fromkeys(kernel.scatter(s0, kernel.embed(rx))[: q.size] for rx in q.table))


def even_inner_group(q: FiniteQuandle) -> PermGroup:
    """Group Inn+ generated by all products s_x o s_y of two point symmetries.

    Dis and s_0^2 generate it: s_x s_y = (s_x s_0^{-1}) s_0^2 (s_0^{-1} s_y),
    and the last factor lies in Dis because Dis is normal in Inn (by the
    third axiom); conversely s_x s_y^{-1} = (s_x s_y)(s_y^2)^{-1}.
    """
    kernel = _Kernel(q.size)
    s0 = kernel.embed(q.table[0])
    return PermGroup(q.size, _displacement_generators(q) + [kernel.gather(s0, s0)[: q.size]])


def displacement_group(q: FiniteQuandle) -> PermGroup:
    """Group Dis generated by all products s_x o s_y^{-1}.

    The s_x o s_0^{-1} alone generate it:
    s_x s_y^{-1} = (s_x s_0^{-1})(s_y s_0^{-1})^{-1}.
    """
    return PermGroup(q.size, _displacement_generators(q))


def automorphism_group(q: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET) -> PermGroup:
    """All table-preserving bijections, as a strong generating set found by
    the orbit-pruned search of quandles.search, with the stabilizer chain
    read off the search's base; no element is listed.  Exceeding
    node_budget raises ResourceLimitError."""
    base, gens = automorphism_generators(quandle_structure(q.table), node_budget)
    return PermGroup._from_base(q.size, base, gens)


def connected_components(q: FiniteQuandle) -> tuple[tuple[int, ...], ...]:
    """Orbits of the inner group, blocks ordered by minimum point."""
    return inner_group(q).orbits()


def _crossed_witness(q: FiniteQuandle):
    t = q.table
    for x in range(q.size):
        for y in range(q.size):
            if t[x][y] == y and t[y][x] != x:
                return (x, y)
    return None


def _involutive_witness(q: FiniteQuandle):
    t = q.table
    for x in range(q.size):
        rx = t[x]
        for y in range(q.size):
            if rx[rx[y]] != y:
                return (x, y)
    return None


def _noncommuting_composites(q: FiniteQuandle, generators, *, inverse: bool):
    """First pair of products s_x o s_y (s_x o s_y^{-1} if inverse) that
    fail to commute, each labelled by the first (x, y) producing it, as a
    flat 4-tuple of points; generators generate the products' group, Inn+
    (Dis if inverse), known not to be abelian.  The distinct products are
    walked in order of (x, y).  One that commutes with every generator is
    central and has no partner; the first that does not is the first
    element, and the first later product it fails to commute with is the
    second.  Memory holds the products up to that one."""
    t = q.table
    n = q.size
    kernel = _Kernel(n)
    gather = kernel.gather
    left = list(map(kernel.embed, t))
    right = [kernel.after(kernel.scatter(r, kernel.ident) if inverse else r) for r in left]
    gens = list(map(kernel.embed, generators))
    seen = set()
    first = None
    for x in range(n):
        for y in range(n):
            p = right[y](left[x])
            if p in seen:
                continue
            seen.add(p)
            if first is None:
                if any(gather(g, p) != gather(p, g) for g in gens):
                    first, label = p, (x, y)
            elif gather(first, p) != gather(p, first):
                return label + (x, y)
    raise VerificationError("generators fail to commute but no two products do")


# The property flags of a PropertyReport, in report order.
PROPERTY_NAMES = (
    "connected", "homogeneous", "flat", "medial", "crossed", "involutive", "abelian_inn",
)


class PropertyReport(Record):
    """All property flags of one quandle, with counterexample witnesses.

    homogeneous is None when the automorphism search used up its node
    budget; every other flag is always decided.  witnesses maps the name
    of each failed property to a tuple of points exhibiting the failure;
    it defaults to a fresh empty dict.
    """

    __slots__ = PROPERTY_NAMES + ("components", "witnesses")

    def __init__(
        self,
        connected: bool,
        homogeneous: bool | None,
        flat: bool,
        medial: bool,
        crossed: bool,
        involutive: bool,
        abelian_inn: bool,
        components: tuple[tuple[int, ...], ...],
        witnesses: dict | None = None,
    ):
        witnesses = {} if witnesses is None else witnesses
        self._set(connected, homogeneous, flat, medial, crossed, involutive, abelian_inn, components, witnesses)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in PROPERTY_NAMES}
        out["components"] = [list(c) for c in self.components]
        out["witnesses"] = {k: list(v) for k, v in sorted(self.witnesses.items())}
        return out


def property_report(q: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET) -> PropertyReport:
    """Compute every property flag; homogeneity falls back to unknown (None)
    when the automorphism search uses up node_budget."""
    witnesses = {}

    components = connected_components(q)
    connected = len(components) == 1
    if not connected:
        witnesses["connected"] = (components[0][0], components[1][0])

    crossed_w = _crossed_witness(q)
    if crossed_w:
        witnesses["crossed"] = crossed_w
    involutive_w = _involutive_witness(q)
    if involutive_w:
        witnesses["involutive"] = involutive_w
    abelian_w = _noncommuting_pair(q.table)
    if abelian_w:
        witnesses["abelian_inn"] = abelian_w

    even = even_inner_group(q)
    flat = even.is_abelian()
    if not flat:
        witnesses["flat"] = _noncommuting_composites(q, even.generators, inverse=False)
    # Dis is a subgroup of Inn+, so a flat quandle is medial.
    dis = None if flat else displacement_group(q)
    medial = flat or dis.is_abelian()
    if not medial:
        witnesses["medial"] = _noncommuting_composites(q, dis.generators, inverse=True)

    homogeneous: bool | None
    try:
        aut = automorphism_group(q, node_budget=node_budget)
        orbits = aut.orbits()
        homogeneous = len(orbits) == 1
        if not homogeneous:
            witnesses["homogeneous"] = (orbits[0][0], orbits[1][0])
    except ResourceLimitError:
        homogeneous = None

    return PropertyReport(
        connected=connected, homogeneous=homogeneous, flat=flat, medial=medial, crossed=crossed_w is None,
        involutive=involutive_w is None, abelian_inn=abelian_w is None, components=components, witnesses=witnesses,
    )


class GraphReconstruction(Record):
    """The graph that to_graph rebuilds and the point relabeling onto its
    quandle; unpacks as graph, relabeling."""

    __slots__ = ("graph", "relabeling")

    def __init__(self, graph: SimpleGraph, relabeling: tuple[int, ...]):
        self._set(graph, relabeling)

    def __iter__(self):
        return iter(self._fields())


def to_graph(q: FiniteQuandle) -> GraphReconstruction:
    """Rebuild a graph from a crossed quandle whose components are all pairs.

    Vertices are the components in order of minimum point; two distinct
    components are joined iff the symmetry at one moves the other.  The
    returned relabeling is an image tuple that sends each point to its
    index in the rebuilt graph's quandle, and is an isomorphism onto
    from_graph(graph).
    """
    crossed_w = _crossed_witness(q)
    if crossed_w:
        raise NotCrossedError(crossed_w)
    components = connected_components(q)
    for comp in components:
        if len(comp) != 2:
            raise BadComponentSizeError(comp)
    return _reconstruction(q, components)


def _reconstruction(q: FiniteQuandle, components) -> GraphReconstruction:
    """to_graph once its checks have passed: q is crossed, and components,
    its Inn-orbits, are all pairs."""
    t, m = q.table, len(components)
    edges = [
        (i, j) for i in range(m) for j in range(i + 1, m) if t[components[i][0]][components[j][0]] == components[j][1]
    ]
    labels = ["{" + f"{a},{b}" + "}" for a, b in components]
    graph = SimpleGraph(m, edges, labels=labels)
    images = [0] * q.size
    for v, (p0, p1) in enumerate(components):
        images[p0] = 2 * v
        images[p1] = 2 * v + 1
    return GraphReconstruction(graph, tuple(images))


class Characterization(Record):
    """Verdict on whether a quandle arises from a vertex-transitive graph.

    The quandle is of that form iff all three flags hold; when the
    components and crossing conditions hold the witness graph is included
    and its vertex-transitivity is checked against homogeneity, raising
    VerificationError on any mismatch.
    """

    __slots__ = (
        "components_size_two",
        "crossed",
        "homogeneous",
        "graph",
        "relabeling",
        "graph_vertex_transitive",
    )

    def __init__(
        self,
        components_size_two: bool,
        crossed: bool,
        homogeneous: bool | None,
        graph: SimpleGraph | None = None,
        relabeling: tuple[int, ...] | None = None,
        graph_vertex_transitive: bool | None = None,
    ):
        self._set(components_size_two, crossed, homogeneous, graph, relabeling, graph_vertex_transitive)

    @property
    def matches(self) -> bool:
        return bool(self.components_size_two and self.crossed and self.homogeneous)


def characterize(q: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Characterization:
    """The Characterization of q.  Homogeneity comes from
    quandles.search.is_transitive: False with no search when the points'
    colour counts differ, else read off the automorphism search, which
    raises ResourceLimitError past node_budget."""
    components = connected_components(q)
    size_two = all(len(c) == 2 for c in components)
    crossed = _crossed_witness(q) is None
    homogeneous = is_transitive(quandle_structure(q.table), node_budget)
    graph = relabeling = vertex_transitive = None
    if size_two and crossed:
        graph, relabeling = _reconstruction(q, components)
        vertex_transitive = is_vertex_transitive(graph)
        if vertex_transitive != homogeneous:
            raise VerificationError(
                "graph vertex-transitivity disagrees with quandle homogeneity"
            )
    return Characterization(
        components_size_two=size_two, crossed=crossed, homogeneous=homogeneous,
        graph=graph, relabeling=relabeling, graph_vertex_transitive=vertex_transitive,
    )


class GroupChain(Record):
    """The four nested symmetry groups with their orders, inclusion-verified."""

    __slots__ = ("displacement", "even_inner", "inner", "aut", "orders")

    def __init__(
        self,
        displacement: PermGroup,
        even_inner: PermGroup,
        inner: PermGroup,
        aut: PermGroup,
        orders: tuple[int, int, int, int],
    ):
        self._set(displacement, even_inner, inner, aut, orders)


def group_chain(q: FiniteQuandle, *, node_budget: int = DEFAULT_NODE_BUDGET) -> GroupChain:
    """The displacement, even-inner, inner and automorphism groups, with
    each inclusion between consecutive ones verified by sifting the
    smaller group's generators through the larger group's stabilizer
    chain, and each order checked to divide the next."""
    dis = displacement_group(q)
    even = even_inner_group(q)
    inn = inner_group(q)
    aut = automorphism_group(q, node_budget=node_budget)
    chain = [
        ("displacement", dis, "even-inner", even),
        ("even-inner", even, "inner", inn),
        ("inner", inn, "automorphism", aut),
    ]
    orders = []
    for name_small, small, name_big, big in chain:
        if not all(g in big for g in small.generators):
            raise VerificationError(
                f"{name_small} group is not contained in the {name_big} group"
            )
        if big.order() % small.order() != 0:
            raise VerificationError(
                f"order of the {name_small} group does not divide that of the {name_big} group"
            )
        orders.append(small.order())
    orders.append(aut.order())
    return GroupChain(dis, even, inn, aut, tuple(orders))


class CensusSurvivor(Record):
    __slots__ = ("quandle", "torus_orders")

    def __init__(self, quandle: FiniteQuandle, torus_orders: tuple[int, ...]):
        self._set(quandle, torus_orders)


class OrderCensus(Record):
    __slots__ = ("order", "class_count", "survivors")

    def __init__(self, order: int, class_count: int, survivors: tuple[CensusSurvivor, ...]):
        self._set(order, class_count, survivors)


def _odd_factorizations(n: int):
    """Nondecreasing tuples of odd factors >= 3 with product n; (1,) for n = 1."""
    if n == 1:
        yield (1,)
        return

    def rec(remaining, smallest):
        if remaining == 1:
            yield ()
            return
        f = smallest
        while f <= remaining:
            if remaining % f == 0:
                for rest in rec(remaining // f, f):
                    yield (f,) + rest
            f += 2
        return

    yield from rec(n, 3)


def _matching_torus(canonical) -> tuple[int, ...] | None:
    """The odd factorization whose torus has this canonical table, or None."""
    for orders in _odd_factorizations(len(canonical)):
        if canonical_table(discrete_torus(orders)) == canonical:
            return orders
    return None


def flat_connected_census(max_order: int = 6) -> list[OrderCensus]:
    """Enumerate all classes up to max_order and keep the flat connected ones.

    Every survivor must have odd order and be isomorphic to a direct
    product of odd dihedral quandles; a survivor without such a match
    raises VerificationError, so a clean return is itself the check.
    The match compares canonical tables, equal exactly for isomorphic
    quandles, so no isomorphism search runs.
    A class whose rows have more than one cycle type is not connected and
    is dropped after its axiom check, before its inner group is built (62
    of the 73 classes at order 6).  The tests run on the first table of
    each class that the enumeration visits; only the survivors are
    brought to their canonical tables, and they are listed in the order
    of those tables, as enumerate_quandles would list them.
    """
    if not _is_int(max_order, 1, ENUMERATION_CAP):
        raise InputError(
            f"census order must be between 1 and {ENUMERATION_CAP}, got {max_order!r}"
        )
    out = []
    for n in range(1, max_order + 1):
        classes = _first_tables(n)
        survivors = []
        for rows in classes:
            q = FiniteQuandle(rows)
            # Inn acts on the rows by conjugation, so the rows of a
            # connected quandle share one cycle type.
            if len(set(map(_cycle_type, set(rows)))) > 1:
                continue
            if not inner_group(q).is_transitive():
                continue
            if not even_inner_group(q).is_abelian():
                continue
            if n % 2 == 0:
                raise VerificationError(
                    f"flat connected quandle of even order {n} found"
                )
            canonical = canonical_table(q)
            orders = _matching_torus(canonical)
            if orders is None:
                raise VerificationError(
                    f"flat connected quandle of order {n} matches no odd torus"
                )
            survivors.append(CensusSurvivor(FiniteQuandle(canonical), orders))
        survivors.sort(key=lambda s: s.quandle.table)
        out.append(OrderCensus(n, len(classes), tuple(survivors)))
    return out
