"""Simple graphs: adjacency, automorphisms, vertex-transitivity, named families.

Vertices are 0..n-1; edges are unordered pairs with no loops.  Graphs
built from subset families carry the subsets as display labels, but every
algorithm works on indices only.
"""

from __future__ import annotations

import itertools
import math

from . import core
from ._record import Record
from .errors import InputError, _is_int, _require_int
from .permgroup import PermGroup
from .search import automorphism_generators, graph_structure, is_transitive


class SimpleGraph(Record):
    """Undirected loop-free graph on vertices 0..n-1; labels are display-only."""

    __slots__ = ("vertex_count", "edges", "labels")
    _compared = ("vertex_count", "edges")

    def __init__(self, vertex_count, edges=(), labels=None):
        n = vertex_count
        _require_int(n, "vertex count must be a nonnegative integer, got {!r}", 0)
        normalized = set()
        for e in edges:
            try:
                # Only a tuple or a list is a pair (a dict would unpack as its keys).
                u, v = e if isinstance(e, (tuple, list)) else ()
            except ValueError:
                raise InputError(f"edge {e!r} is not a pair") from None
            # Plain ints in range pass at once; anything else meets the integer rule.
            if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
                for w in (u, v):
                    if not _is_int(w, 0, n - 1):
                        raise InputError(f"edge endpoint {w!r} is out of range")
            if u == v:
                raise InputError(f"loop at vertex {u} is not allowed")
            pair = (u, v) if u < v else (v, u)
            if pair in normalized:
                raise InputError(f"duplicate edge {pair}")
            normalized.add(pair)
        self._set(n, frozenset(normalized), core._labels(labels, n, "vertices"))

    def __repr__(self):
        return f"SimpleGraph(vertices={self.vertex_count}, edges={len(self.edges)})"

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


_VERTEX_COUNT = "vertex count must be a positive integer, got {!r}"


def _admit_vertices(vertices: int) -> None:
    """Refuse a graph of more than core.POINT_CAP vertices, before any work."""
    core._admit(vertices, "the graph would have", "vertices")


def _adjacency_masks(g: SimpleGraph) -> list[int]:
    """One bitmask of neighbours per vertex; refuses more than
    core.POINT_CAP vertices first."""
    _admit_vertices(g.vertex_count)
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def graph_automorphisms(g: SimpleGraph) -> PermGroup:
    """The automorphism group, as a strong generating set.

    Found by the search of quandles.search on the adjacency relation,
    with vertices pruned by degree (the colour counts of an adjacency
    row), within its default node budget; the stabilizer chain is read
    off the search's base, and no element is listed.
    """
    base, gens = automorphism_generators(graph_structure(_adjacency_masks(g)))
    return PermGroup._from_base(g.vertex_count, base, gens)


def is_vertex_transitive(g: SimpleGraph) -> bool:
    """True iff the automorphism group has a single vertex orbit: False,
    with no search, when the degrees differ (see quandles.search.is_transitive)."""
    if g.vertex_count < 1:
        raise InputError("vertex-transitivity needs at least one vertex")
    return is_transitive(graph_structure(_adjacency_masks(g)))


def empty(n: int) -> SimpleGraph:
    """n vertices, no edges."""
    _require_int(n, _VERTEX_COUNT, 1)
    return SimpleGraph(n)


def complete(n: int) -> SimpleGraph:
    _require_int(n, _VERTEX_COUNT, 1)
    _admit_vertices(n)
    return SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> SimpleGraph:
    _require_int(n, "a cycle needs at least 3 vertices, got {!r}", 3)
    _admit_vertices(n)
    return SimpleGraph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> SimpleGraph:
    _require_int(n, _VERTEX_COUNT, 1)
    _admit_vertices(n)
    return SimpleGraph(n, [(v, v + 1) for v in range(n - 1)])


def star(n: int) -> SimpleGraph:
    """n vertices total: hub 0 joined to every other vertex."""
    _require_int(n, _VERTEX_COUNT, 1)
    _admit_vertices(n)
    return SimpleGraph(n, [(0, v) for v in range(1, n)])


def johnson(n: int, k: int) -> SimpleGraph:
    """k-subsets of {1..n} in lexicographic order; edges where the
    intersection has k-1 elements."""
    return _subset_graph(n, k, lambda v, w: len(v & w) == k - 1)


def parity_difference(n: int, k: int) -> SimpleGraph:
    """k-subsets of {1..n} in lexicographic order; edges where the
    difference v \\ w has odd size."""
    return _subset_graph(n, k, lambda v, w: len(v - w) % 2 == 1)


def _subset_graph(n, k, joined):
    """The k-subsets of {1..n} in lexicographic order, labelled by their
    elements, with an edge where joined(v, w) holds for v before w."""
    _require_int(n, _VERTEX_COUNT, 1)
    if not _is_int(k, 1, n):
        raise InputError(f"need 1 <= k <= n, got k={k!r}, n={n!r}")
    _admit_vertices(math.comb(n, k))
    subsets = list(itertools.combinations(range(1, n + 1), k))
    sets = list(map(set, subsets))
    edges = [(i, j) for i, j in itertools.combinations(range(len(sets)), 2) if joined(sets[i], sets[j])]
    return SimpleGraph(len(sets), edges, labels=["{" + ",".join(map(str, s)) + "}" for s in subsets])


def graph_to_dict(g: SimpleGraph) -> dict:
    """The graph's JSON document; edges are the sorted (u, v) tuples."""
    return {"vertices": g.vertex_count, "edges": g.edge_list()}


def graph_from_dict(d) -> SimpleGraph:
    """Parse graph JSON: 0-based edges [u, v] with u < v, no loops, no duplicates.
    Only the shape is checked here; SimpleGraph checks the vertex count,
    then reads the edges (so a bad "vertices" is reported first), their
    endpoints, loops and repeats."""
    if not isinstance(d, dict) or "vertices" not in d or "edges" not in d:
        raise InputError('graph JSON needs "vertices" and "edges"')
    return SimpleGraph(d["vertices"], _json_edges(d["edges"]))


def _json_edges(edges):
    """Yield a graph document's "edges", all checked when SimpleGraph reads the first."""
    if not isinstance(edges, list):
        raise InputError('"edges" must be a list of pairs')
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise InputError(f"edge {e!r} is not a pair [u, v]")
        try:
            backwards = not e[0] < e[1]
        except TypeError:  # endpoints that do not compare are SimpleGraph's to refuse
            backwards = False
        if backwards:
            raise InputError(f"edge {e!r} must be written with u < v")
    yield from edges


def to_dot(g: SimpleGraph) -> str:
    """DOT text with every vertex listed (isolated ones included), edges sorted."""
    lines = ["graph {"]
    for v in range(g.vertex_count):
        if g.labels:
            lines.append(f'  {v} [label="{g.labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edge_list():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
