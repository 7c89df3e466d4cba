import math
import random

import pytest

from quandles import InputError, ResourceLimitError, SimpleGraph, core, find_isomorphism, from_graph, is_homomorphism
from quandles.graphs import (
    complete,
    cycle,
    empty,
    graph_automorphisms,
    graph_from_dict,
    graph_to_dict,
    is_vertex_transitive,
    johnson,
    parity_difference,
    path,
    star,
    to_dot,
)
from quandles.graphs import _adjacency_masks
from quandles.search import graph_structure

from helpers import (
    group_elements,
    nx_automorphism_order,
    nx_graph,
    nx_vertex_transitive,
    petersen_edges,
    random_edge_set,
    sympy_order,
)


def test_adjacency_basics():
    assert complete(3).edges == {(0, 1), (0, 2), (1, 2)}
    assert path(3).edges == {(0, 1), (1, 2)}
    # Edges are stored as (u, v) with u < v, whichever way they were given.
    assert SimpleGraph(3, [(2, 0), (1, 0)]).edges == {(0, 1), (0, 2)}


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(InputError):
        SimpleGraph(3, [(0, 3)])
    with pytest.raises(InputError):
        SimpleGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        SimpleGraph(-1)


def test_builders_shapes():
    assert len(empty(5).edges) == 0
    assert len(complete(5).edges) == 10
    assert len(cycle(5).edges) == 5
    assert len(path(4).edges) == 3
    assert star(4).edges == {(0, 1), (0, 2), (0, 3)}
    with pytest.raises(InputError):
        cycle(2)
    with pytest.raises(InputError):
        empty(0)
    with pytest.raises(InputError):
        johnson(3, 4)


def test_graph_builders_and_searches_count_vertices_against_the_cap(monkeypatch):
    # The bound is read at call time.
    monkeypatch.setattr(core, "POINT_CAP", 6)
    assert complete(6).vertex_count == johnson(4, 2).vertex_count == 6
    assert cycle(6).vertex_count == path(6).vertex_count == star(6).vertex_count == 6
    assert is_vertex_transitive(complete(6)) and graph_automorphisms(johnson(4, 2)).order() == 48
    for refuse, vertices in [
        (lambda: complete(7), 7),
        (lambda: johnson(5, 2), 10),
        (lambda: parity_difference(7, 1), 7),
        (lambda: cycle(7), 7),
        (lambda: path(8), 8),
        (lambda: star(9), 9),
        (lambda: is_vertex_transitive(SimpleGraph(7)), 7),
        (lambda: graph_automorphisms(SimpleGraph(8, [(0, 1)])), 8),
    ]:
        with pytest.raises(ResourceLimitError) as info:
            refuse()
        assert str(info.value) == f"the graph would have {vertices} vertices, over the bound of 6"


def test_parity_difference_with_singletons_is_complete():
    for n in range(1, 6):
        assert parity_difference(n, 1).edges == complete(n).edges


def test_parity_difference_pairs_match_johnson():
    for n in range(2, 8):
        assert parity_difference(n, 2).edges == johnson(n, 2).edges


def test_octahedron_structure():
    g = parity_difference(4, 2)
    assert g.vertex_count == 6 and len(g.edges) == 12
    # {1,2} is vertex 0 and {3,4} is vertex 5 in lexicographic order
    assert g.labels[0] == "{1,2}" and g.labels[5] == "{3,4}"
    assert (0, 5) not in g.edges


def test_adjacency_symmetry_on_random_graphs():
    # An edge given either way round is the same edge.
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 8)
        edges = random_edge_set(rng, n)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        g = SimpleGraph(n, flipped)
        assert g.edges == set(edges) and g == SimpleGraph(n, edges)


# ------------------------------------------------------------ automorphisms

def test_empty_graph_automorphisms_are_all_bijections():
    for n in range(1, 5):
        assert graph_automorphisms(empty(n)).order() == math.factorial(n)


def test_complete3_automorphisms():
    assert graph_automorphisms(complete(3)).order() == 6


def test_path3_automorphisms():
    assert graph_automorphisms(path(3)).order() == 2


def test_automorphisms_preserve_adjacency():
    g = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    for p in group_elements(graph_automorphisms(g)):
        assert {tuple(sorted((p[v], p[w]))) for v, w in g.edges} == g.edges


def test_petersen_automorphism_count():
    g = SimpleGraph(10, petersen_edges())
    assert graph_automorphisms(g).order() == 120


def test_automorphisms_of_graphs_above_twelve_vertices():
    # No vertex cap: the node budget is the one limit, and no element is listed.
    assert graph_automorphisms(empty(13)).order() == math.factorial(13)
    assert graph_automorphisms(cycle(20)).order() == 40


def test_vertex_transitivity():
    assert is_vertex_transitive(cycle(5))
    assert not is_vertex_transitive(path(3))
    for n in range(1, 5):
        assert is_vertex_transitive(complete(n))
    assert is_vertex_transitive(SimpleGraph(10, petersen_edges()))


def test_vertex_transitive_implies_regular():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 7)
        g = SimpleGraph(n, random_edge_set(rng, n))
        if is_vertex_transitive(g):
            degrees = {sum(v in e for e in g.edges) for v in range(n)}
            assert len(degrees) == 1


# ------------------------------------------------------- networkx oracle

def relabeled(g, sigma):
    return SimpleGraph(g.vertex_count, [(sigma[u], sigma[v]) for u, v in g.edges])


def named_graphs():
    out = [empty(n) for n in (1, 2, 5, 12)] + [complete(n) for n in (1, 3, 6, 12)]
    out += [cycle(n) for n in (3, 4, 7, 12)] + [path(n) for n in (2, 5, 12)]
    out += [star(n) for n in (3, 7, 12)]
    out += [johnson(4, 2), johnson(5, 2), parity_difference(4, 2), parity_difference(5, 2)]
    out.append(SimpleGraph(10, petersen_edges()))
    return out


def random_graphs(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(30):
        n = rng.randint(1, 12)
        g = SimpleGraph(n, random_edge_set(rng, n, p=rng.choice([0.2, 0.5, 0.8])))
        out.append(relabeled(g, rng.sample(range(n), n)))
    return out


def test_colour_rows_are_the_mask_bits():
    rng = random.Random(43)
    cases = [_adjacency_masks(SimpleGraph(n, random_edge_set(rng, n, p))) for n, p in ((9, 0.5), (40, 0.3), (300, 0.3))]
    for n in (1, 2):
        cases += [[0] * n, [(1 << n) - 1] * n]
    for masks in cases:
        n = len(masks)
        rows = graph_structure(masks).colours
        assert rows == [bytes(m >> a & 1 for a in range(n)) for m in masks]


def test_automorphisms_match_networkx():
    for g in named_graphs() + random_graphs(79):
        aut = graph_automorphisms(g)
        assert len(aut.generators) <= g.vertex_count - 1
        # The chain is read off the search's base: its order must be that
        # of the group the generators generate.
        assert aut.order() == sympy_order(g.vertex_count, aut.generators)
        assert aut.order() == nx_automorphism_order(g), g.edge_list()
        assert is_vertex_transitive(g) == nx_vertex_transitive(g), g.edge_list()


# Two graphs are isomorphic exactly when their graph quandles are: a
# quandle isomorphism maps the fiber {2v, 2v+1} of each vertex with a
# neighbor onto a fiber, and the points of isolated vertices are the ones
# whose rows are the identity.

def fiber_images(f, vertices):
    """The vertices whose fibers f maps the given vertices' fibers onto."""
    return [f[2 * v] // 2 for v in vertices]


def test_isomorphism_verdicts_match_networkx():
    import networkx as nx

    rng = random.Random(83)
    for g in named_graphs() + random_graphs(89):
        n = g.vertex_count
        others = [relabeled(g, rng.sample(range(n), n))]
        if g.edges and len(g.edges) < n * (n - 1) // 2:
            # Move one edge: same edge count, often the same degrees.
            edges = set(g.edges)
            edges.remove(rng.choice(sorted(edges)))
            missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
            edges.add(rng.choice(missing))
            others.append(relabeled(SimpleGraph(n, edges), rng.sample(range(n), n)))
        for h in others:
            qg, qh = from_graph(g), from_graph(h)
            f = find_isomorphism(qg, qh)
            assert (f is not None) == nx.is_isomorphic(nx_graph(g), nx_graph(h)), (g.edge_list(), h.edge_list())
            if f is not None:
                assert is_homomorphism(f, qg, qh)
                assert {tuple(sorted(fiber_images(f, e))) for e in g.edges} == set(h.edges)


# -------------------------------------------------------------- isomorphism

def test_graph_isomorphism_found_for_relabeled_cycle():
    g1 = cycle(5)
    g2 = SimpleGraph(5, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])
    f = find_isomorphism(from_graph(g1), from_graph(g2))
    assert f is not None
    p = fiber_images(f, range(5))
    assert {tuple(sorted((p[v], p[w]))) for v, w in g1.edges} == g2.edges


def test_graph_isomorphism_none_for_different_graphs():
    assert find_isomorphism(from_graph(cycle(5)), from_graph(path(5))) is None
    assert find_isomorphism(from_graph(path(3)), from_graph(star(3))) is not None


# ------------------------------------------------------------ serialization

def test_graph_json_round_trip():
    g = johnson(4, 2)
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_json_validation():
    for d in (
        {"vertices": 2},
        {"vertices": 2, "edges": [[1, 0]]},
        {"vertices": 2, "edges": [[0, 0]]},
        {"vertices": 2, "edges": [[0, 2]]},
        {"vertices": 2, "edges": [[0, 1], [0, 1]]},
        {"vertices": "2", "edges": []},
    ):
        with pytest.raises(InputError):
            graph_from_dict(d)


def test_dot_output_is_stable_and_lists_isolated_vertices():
    g = SimpleGraph(4, [(2, 1), (0, 1)])
    assert to_dot(g) == (
        "graph {\n"
        "  0;\n"
        "  1;\n"
        "  2;\n"
        "  3;\n"
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )
    labeled = to_dot(johnson(3, 2))
    assert '0 [label="{1,2}"];' in labeled
