import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (
    BadComponentSizeError,
    FiniteQuandle,
    NotCrossedError,
    PermGroup,
    ResourceLimitError,
    SimpleGraph,
    VerificationError,
    aknn,
    automorphism_group,
    canonical_table,
    characterize,
    connected_components,
    dihedral,
    discrete_torus,
    displacement_group,
    enumerate_quandles,
    even_inner_group,
    find_isomorphism,
    flat_connected_census,
    from_graph,
    graphs,
    group_chain,
    inner_group,
    is_homomorphism,
    iter_isomorphisms,
    property_report,
    to_graph,
    trivial,
)
from quandles import search
from quandles.core import _first_tables
from quandles.search import DEFAULT_NODE_BUDGET

from helpers import (
    CLOSED_FORM_AUTOMORPHISM_ORDERS,
    affine_table,
    closure_by_products,
    conjugate,
    euler_phi,
    first_noncommuting_products,
    first_noncommuting_rows,
    gf2_rank,
    group_elements,
    labelled_products,
    multiplicative_order,
    nx_automorphism_order,
    nx_vertex_transitive,
    orbit_partition,
    quandle_automorphisms,
    random_edge_set,
    relabeled_table,
    sympy_order,
)

SINGLE_FLIP = FiniteQuandle([[0, 2, 1], [0, 1, 2], [0, 1, 2]])


def small_suite(rng):
    qs = [trivial(3), SINGLE_FLIP, dihedral(3), dihedral(4), dihedral(5), aknn(2, 4)]
    for _ in range(4):
        n = rng.randint(1, 6)
        qs.append(from_graph(SimpleGraph(n, random_edge_set(rng, n))))
    return qs


# ------------------------------------------------------------ symmetry groups

def test_inner_order_of_the_cycle30_graph_quandle_is_two_to_the_gf2_rank():
    g = graphs.cycle(30)
    masks = [0] * 30
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert inner_group(from_graph(g)).order() == 2 ** gf2_rank(masks, 30) == 2**28


@pytest.mark.parametrize(
    "graph",
    [
        graphs.cycle(60),
        graphs.cycle(100),
        graphs.cycle(200),
        graphs.johnson(7, 3),
        graphs.johnson(9, 4),
        graphs.parity_difference(9, 4),
    ],
    ids=["cycle60", "cycle100", "cycle200", "johnson7_3", "johnson9_4", "parity_difference9_4"],
)
def test_inner_order_of_large_graph_quandles_is_two_to_the_gf2_rank(graph):
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    assert inner_group(from_graph(graph)).order() == 2 ** gf2_rank(masks, graph.vertex_count)


def test_inner_group_of_trivial_quandle():
    for n in (1, 3, 5):
        assert inner_group(trivial(n)).order() == 1


def test_inner_group_of_graph_quandles_is_abelian():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 8)
        q = from_graph(SimpleGraph(n, random_edge_set(rng, n)))
        assert inner_group(q).is_abelian()


def test_inner_group_size_is_rank_power_of_two():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 8)
        g = SimpleGraph(n, random_edge_set(rng, n))
        masks = [0] * n
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        assert inner_group(from_graph(g)).order() == 2 ** gf2_rank(masks, n)


def test_dihedral5_is_connected():
    assert inner_group(dihedral(5)).is_transitive()


def test_axis_quandles_have_abelian_inner_groups():
    from quandles import axis_quandle

    for n in range(1, 6):
        assert inner_group(axis_quandle(n)).is_abelian()


def test_oriented_planes_are_homogeneous_disconnected_abelian():
    for k, n in ((1, 3), (2, 4), (1, 4)):
        report = property_report(aknn(k, n))
        assert report.homogeneous is True
        assert report.connected is False
        assert report.abelian_inn


def test_even_inner_and_displacement_groups():
    for n in (2, 4):
        assert even_inner_group(trivial(n)).order() == 1
        assert displacement_group(trivial(n)).order() == 1
    for r in range(1, 13):
        assert even_inner_group(dihedral(r)).is_abelian()
    # involutive quandles: the two generator sets coincide elementwise
    for q in (dihedral(6), aknn(2, 4), from_graph(graphs.cycle(4))):
        assert group_elements(displacement_group(q)) == group_elements(even_inner_group(q))


def test_every_row_is_an_automorphism():
    rng = random.Random(7)
    for q in small_suite(rng):
        for x in range(q.size):
            f = q.table[x]
            assert is_homomorphism(f, q, q) and sorted(f) == list(range(q.size))


# ------------------------------------------------------------- automorphisms

def test_trivial4_has_full_symmetric_group():
    assert automorphism_group(trivial(4)).order() == 24


def test_dihedral3_automorphisms_match_exhaustive_count():
    import itertools

    q = dihedral(3)
    brute = 0
    for images in itertools.permutations(range(3)):
        if is_homomorphism(images, q, q):
            brute += 1
    assert automorphism_group(q).order() == brute == 6


def test_fiber_flips_are_automorphisms():
    g = graphs.cycle(5)
    q = from_graph(g)
    for u in range(5):
        images = list(range(10))
        images[2 * u], images[2 * u + 1] = images[2 * u + 1], images[2 * u]
        flip = tuple(images)
        assert is_homomorphism(flip, q, q)
        assert flip in group_elements(automorphism_group(q))


def test_graph_automorphism_lifts_are_quandle_automorphisms():
    g = graphs.cycle(5)
    q = from_graph(g)
    for phi in group_elements(graphs.graph_automorphisms(g)):
        lift = tuple(2 * phi[v] + a for v in range(5) for a in (0, 1))
        assert is_homomorphism(lift, q, q)


def assert_automorphisms(q, elements):
    """automorphism_group(q) has exactly these elements (image tuples),
    from at most n - 1 generators: each one found joins two orbits."""
    aut = automorphism_group(q)
    assert len(aut.generators) <= q.size - 1
    assert aut.order() == len(elements)
    assert aut.orbits() == orbit_partition(q.size, elements)
    assert group_elements(aut) == set(elements)


def test_automorphisms_match_the_backtracking_oracle_on_small_classes():
    for n in range(1, 6):
        for q in enumerate_quandles(n):
            assert_automorphisms(q, quandle_automorphisms(q.table))


def test_automorphisms_match_the_backtracking_oracle_on_relabeled_graph_quandles():
    # The oracle runs on the natural labels, where its point order is
    # cheap; Aut of the relabeled quandle is Aut(q) carried along sigma.
    rng = random.Random(67)
    named = [graphs.star(6), graphs.cycle(8), graphs.johnson(4, 2), graphs.complete(4), graphs.path(8)]
    randoms = [SimpleGraph(n, random_edge_set(rng, n)) for n in (5, 6, 7, 8)]
    for g in named + randoms:
        q = from_graph(g)
        oracle = quandle_automorphisms(q.table)
        for _ in range(3):
            sigma = rng.sample(range(q.size), q.size)
            relabeled = FiniteQuandle(relabeled_table(q.table, sigma))
            assert_automorphisms(relabeled, [conjugate(f, sigma) for f in oracle])


def test_automorphism_chains_read_off_the_search_base_are_complete():
    # The chain of automorphism_group is read off the base the search
    # fixed, with no Schreier generator tested.  Generators that are not a
    # strong generating set for that base give a product of orbit sizes
    # that differs from the order of the group they generate.
    def certified_order(q):
        aut = automorphism_group(q)
        assert aut.order() == sympy_order(q.size, aut.generators), q.table
        return aut.order()

    for n in range(1, 7):
        for q in enumerate_quandles(n):
            assert certified_order(q) == len(quandle_automorphisms(q.table))
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randint(2, 8)
        q = from_graph(SimpleGraph(n, random_edge_set(rng, n)))
        sigma = rng.sample(range(q.size), q.size)
        assert certified_order(q) == certified_order(FiniteQuandle(relabeled_table(q.table, sigma)))


RELABEL_TABLES = [q.table for n in range(1, 6) for q in enumerate_quandles(n)] + [
    from_graph(g).table for g in (graphs.star(5), graphs.cycle(6), graphs.path(5))
]


@st.composite
def relabeled_pairs(draw):
    table = draw(st.sampled_from(RELABEL_TABLES))
    sigma = draw(st.permutations(range(len(table))))
    return FiniteQuandle(table), FiniteQuandle(relabeled_table(table, sigma))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(relabeled_pairs())
def test_relabeling_keeps_the_automorphism_order_and_orbit_count(pair):
    q, relabeled = pair
    aut, aut_relabeled = automorphism_group(q), automorphism_group(relabeled)
    assert aut.order() == aut_relabeled.order()
    assert len(aut.orbits()) == len(aut_relabeled.orbits())


def test_large_automorphism_groups_are_not_refused():
    # No element is listed and no point cap applies: the node budget is
    # the one limit of the search.
    assert automorphism_group(trivial(8)).order() == math.factorial(8)
    assert automorphism_group(trivial(17)).order() == math.factorial(17)
    assert characterize(trivial(12)).homogeneous is True
    assert automorphism_group(from_graph(graphs.cycle(20))).order() == 2**20 * 40


CLOSED_FORM_FAMILIES = {
    "trivial": trivial,
    "dihedral": dihedral,
    "cycle": lambda n: from_graph(graphs.cycle(n)),
    "johnson": lambda n, k: from_graph(graphs.johnson(n, k)),
}


@pytest.mark.parametrize(
    "family, params, order",
    CLOSED_FORM_AUTOMORPHISM_ORDERS,
    ids=[f + "_".join(map(str, p)) for f, p, _ in CLOSED_FORM_AUTOMORPHISM_ORDERS],
)
def test_automorphism_orders_match_their_closed_forms(family, params, order):
    q = CLOSED_FORM_FAMILIES[family](*params)
    aut = automorphism_group(q)
    assert aut.order() == order
    assert aut.is_transitive() and characterize(q).homogeneous is True


@pytest.mark.parametrize("a", [2, 3])
def test_affine_quandle_groups_match_their_closed_forms(a):
    # Over Z/p, p prime, Aut of x * y = a*y + (1 - a)*x is the affine
    # group, of order p(p - 1), and Inn is {y -> a^k y + b}, of order
    # p * ord(a).
    p = 101
    q = FiniteQuandle(affine_table(p, a))
    assert automorphism_group(q).order() == p * (p - 1)
    assert inner_group(q).order() == p * multiplicative_order(a, p) == 10_100


# The slow tier (python -m pytest -m slow): the same closed forms at sizes
# that take 2-6 s each.


@pytest.mark.slow
def test_dihedral_401_automorphism_order_matches_its_closed_form():
    q = dihedral(401)
    aut = automorphism_group(q)
    assert aut.order() == 401 * euler_phi(401) == 160_400
    assert aut.is_transitive() and characterize(q).homogeneous is True


@pytest.mark.slow
@pytest.mark.parametrize("p", [257, 401])
def test_affine_quandle_groups_at_scale_match_their_closed_forms(p):
    # 3 generates the units mod 257 and mod 401, so |Inn| = |Aut|.
    q = FiniteQuandle(affine_table(p, 3))
    assert automorphism_group(q).order() == p * (p - 1)
    assert inner_group(q).order() == p * multiplicative_order(3, p) == p * (p - 1)


def twin_pairs(size, is_automorphism):
    """Every pair a < b whose transposition passes is_automorphism."""
    pairs = set()
    for a, b in itertools.combinations(range(size), 2):
        images = list(range(size))
        images[a], images[b] = b, a
        if is_automorphism(images):
            pairs.add((a, b))
    return pairs


def class_pairs(classes):
    return {pair for c in classes for pair in itertools.combinations(sorted(c), 2)}


def test_twin_classes_are_exactly_the_swapped_pairs():
    # The search's twin classes hold exactly the pairs whose transposition
    # is an automorphism: by the edge set in a graph, and in a quandle by
    # core.is_homomorphism, among points with equal rows.  A graph
    # quandle's (v, 0) and (v, 1) are always twins, under any labelling.
    rng = random.Random(43)
    suite = [(q, ()) for q in small_suite(rng)]
    for n in (1, 3, 5, 7, 8):
        sigma = rng.sample(range(2 * n), 2 * n)
        q = FiniteQuandle(relabeled_table(from_graph(SimpleGraph(n, random_edge_set(rng, n))).table, sigma))
        suite.append((q, [(sigma[2 * v], sigma[2 * v + 1]) for v in range(n)]))
    suite += [(FiniteQuandle(rows), ()) for n in range(1, 7) for rows in _first_tables(n)]
    for q, fibres in suite:
        classes = search._twin_classes(search.quandle_structure(q.table))
        found = class_pairs(classes)
        n = q.size
        swapped = twin_pairs(n, lambda g: is_homomorphism(g, q, q))
        assert found == {(a, b) for a, b in swapped if q.table[a] == q.table[b]}, q.table
        assert {tuple(sorted(f)) for f in fibres} <= found
        gens = search.automorphism_generators(search.quandle_structure(q.table))[1]
        assert all(is_homomorphism(g, q, q) for g in gens)
    for n in range(1, 8):
        for graph in (SimpleGraph(n, random_edge_set(rng, n)), graphs.complete(n), graphs.empty(n), graphs.star(n)):
            edges = graph.edges
            classes = search._twin_classes(search.graph_structure(graphs._adjacency_masks(graph)))
            assert class_pairs(classes) == twin_pairs(
                n, lambda g: {tuple(sorted((g[u], g[v]))) for u, v in edges} == edges
            ), edges


@pytest.mark.parametrize(
    "graph",
    [graphs.parity_difference(6, 3), graphs.cycle(30), graphs.johnson(7, 3)],
    ids=["parity_difference6_3", "cycle30", "johnson7_3"],
)
def test_paper_theorem_on_relabeled_graph_quandles_above_sixteen_points(graph):
    # The graph quandle is homogeneous exactly when its graph is
    # vertex-transitive, and |Aut(Q_G)| = 2^n |Aut(G)| for a graph with no
    # isolated vertex.  parity_difference(6, 3) gives aknn(3, 6), 40 points.
    n = graph.vertex_count
    sigma = random.Random(n).sample(range(2 * n), 2 * n)
    q = FiniteQuandle(relabeled_table(from_graph(graph).table, sigma))
    verdict = characterize(q)
    assert verdict.homogeneous == verdict.graph_vertex_transitive == nx_vertex_transitive(graph)
    aut = automorphism_group(q)
    order = aut.order()
    assert order == sympy_order(q.size, aut.generators)
    assert order == 2**n * nx_automorphism_order(graph)


def labelled_graphs(max_vertices):
    """Every graph on 1..max_vertices labelled vertices: one per edge subset."""
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def test_paper_theorem_on_every_labelled_graph_up_to_five_vertices():
    # Inn(Q_G) is abelian; Q_G is homogeneous exactly when G is
    # vertex-transitive; |Aut(Q_G)| = 2^n |Aut(G)| when G has no isolated
    # vertex.  Each Aut chain is read off the search's base.
    graphs_seen = 0
    for graph in labelled_graphs(5):
        graphs_seen += 1
        n = graph.vertex_count
        q = from_graph(graph)
        rows = list(dict.fromkeys(q.table))
        for a, b in itertools.combinations(rows, 2):
            assert tuple(a[x] for x in b) == tuple(b[x] for x in a), graph.edges
        aut = automorphism_group(q)
        assert aut.is_transitive() == nx_vertex_transitive(graph), graph.edges
        if all(any(v in e for e in graph.edges) for v in range(n)):
            assert aut.order() == 2**n * nx_automorphism_order(graph), graph.edges
    assert graphs_seen == 1 + 2 + 8 + 64 + 1024


def test_the_node_budget_is_the_one_refusal():
    with pytest.raises(ResourceLimitError, match="node_budget"):
        automorphism_group(aknn(4, 9), node_budget=1000)


def test_every_class_up_to_order_7_is_searched_within_the_default_budget():
    # The census runs no search (it matches tori by canonical tables);
    # this checks that the Aut search of every class fits the default
    # budget.
    assert DEFAULT_NODE_BUDGET == 10**5
    for n in range(1, 8):
        for rows in _first_tables(n):
            automorphism_group(FiniteQuandle(rows))


def test_search_work_does_not_grow(monkeypatch):
    # Node counts are the search's regression signal: none of these may
    # grow.  The library keeps no node count, so count calls to
    # _Search.node.
    nodes = 0
    node = search._Search.node

    def counted(self):
        nonlocal nodes
        nodes += 1
        node(self)

    monkeypatch.setattr(search._Search, "node", counted)

    def count(run, *args):
        nonlocal nodes
        nodes = 0
        run(*args)
        return nodes

    assert count(automorphism_group, aknn(4, 8)) <= 1533
    assert count(automorphism_group, from_graph(graphs.cycle(60))) <= 181
    # Twins cost no node: a graph quandle's (v, 0) and (v, 1), and any
    # two points of a trivial quandle, which takes one node per base point.
    assert count(automorphism_group, from_graph(graphs.cycle(100))) <= 301
    assert count(automorphism_group, trivial(40)) <= 40
    assert count(automorphism_group, trivial(200)) <= 200
    for graph, most in (
        (graphs.parity_difference(8, 4), 512),
        (graphs.johnson(5, 2), 43),
        (graphs.star(9), 9),
        (graphs.cycle(30), 89),
    ):
        assert count(graphs.graph_automorphisms, graph) <= most
    # Unequal colour counts answer "one orbit?" with no search.
    assert count(graphs.is_vertex_transitive, graphs.star(9)) == 0
    assert count(characterize, from_graph(graphs.path(6))) == 0
    assert count(list, iter_isomorphisms(dihedral(5), trivial(5))) == 0


def is_permutation(value):
    """A tuple of images, as the search and the groups keep permutations."""
    return (
        isinstance(value, tuple)
        and len(value) > 1
        and all(isinstance(v, int) for v in value)
        and sorted(value) == list(range(len(value)))
    )


def permutation_hoards(exc):
    """(function, local) of every traceback frame local that is a
    collection of more than eight permutations."""
    out = []
    tb = exc.__traceback__
    while tb is not None:
        for name, value in tb.tb_frame.f_locals.items():
            if isinstance(value, (list, tuple, set, frozenset, dict)):
                if sum(is_permutation(v) for v in value) > 8:
                    out.append((tb.tb_frame.f_code.co_name, name))
        tb = tb.tb_next
    return out


@pytest.mark.parametrize(
    "over_cap",
    [
        # The search finds 16 generators before the budget runs out.
        lambda: automorphism_group(from_graph(graphs.johnson(6, 3)), node_budget=30),
        lambda: find_isomorphism(dihedral(9), discrete_torus((3, 3)), node_budget=5),
    ],
)
def test_refusals_drop_the_elements_found_so_far(over_cap):
    with pytest.raises(ResourceLimitError) as info:
        over_cap()
    assert permutation_hoards(info.value) == []


def test_normality_of_symmetries_under_automorphisms():
    rng = random.Random(11)
    for q in small_suite(rng):
        if q.size > 10:
            continue
        for f in group_elements(automorphism_group(q)):
            for y in range(q.size):
                assert conjugate(q.table[y], f) == q.table[f[y]]


def test_automorphisms_permute_components():
    rng = random.Random(13)
    for q in small_suite(rng):
        if q.size > 10:
            continue
        comps = {frozenset(c) for c in connected_components(q)}
        for f in group_elements(automorphism_group(q)):
            for c in comps:
                assert frozenset(f[x] for x in c) in comps


# --------------------------------------------------------------- components

def test_graph_quandle_components_are_at_most_pairs():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = SimpleGraph(n, random_edge_set(rng, n))
        comps = connected_components(from_graph(g))
        assert all(len(c) <= 2 for c in comps)
        # the fiber over v is one component exactly when v has a neighbor
        for v in range(n):
            has_neighbor = any(v in e for e in g.edges)
            fiber_joined = any(set(c) == {2 * v, 2 * v + 1} for c in comps)
            assert fiber_joined == has_neighbor


def test_oriented_plane_components_are_sign_pairs():
    for n in range(2, 6):
        for k in range(1, n):
            comps = connected_components(aknn(k, n))
            assert comps == tuple((2 * i, 2 * i + 1) for i in range(len(comps)))
    # k = n: the symmetries all act trivially, so components are singletons
    assert connected_components(aknn(3, 3)) == ((0,), (1,))


# ------------------------------------------------------------ property report

def test_cycle5_quandle_report():
    report = property_report(from_graph(graphs.cycle(5)))
    assert report.homogeneous is True
    assert report.connected is False
    assert report.abelian_inn and report.crossed and report.involutive
    assert report.flat and report.medial
    assert "connected" in report.witnesses


def test_path3_quandle_is_not_homogeneous():
    report = property_report(from_graph(graphs.path(3)))
    assert report.homogeneous is False
    assert "homogeneous" in report.witnesses


def test_dihedral_reports():
    r4 = property_report(dihedral(4))
    assert r4.abelian_inn and r4.flat and not r4.connected
    r3 = property_report(dihedral(3))
    assert r3.connected and r3.homogeneous and not r3.abelian_inn
    x, y = r3.witnesses["abelian_inn"]
    sx, sy = (dihedral(3).table[z] for z in (x, y))
    assert tuple(sx[p] for p in sy) != tuple(sy[p] for p in sx)


def test_connected_implies_homogeneous_on_suite():
    rng = random.Random(19)
    for q in small_suite(rng):
        report = property_report(q)
        if report.connected:
            assert report.homogeneous


def test_report_consistency_and_json():
    q = from_graph(graphs.path(3))
    report = property_report(q)
    assert report.connected == (len(report.components) == 1)
    d = report.to_dict()
    assert set(d) == {
        "connected",
        "homogeneous",
        "flat",
        "medial",
        "crossed",
        "involutive",
        "abelian_inn",
        "components",
        "witnesses",
    }


def test_homogeneity_unknown_when_the_node_budget_runs_out():
    assert property_report(trivial(17)).homogeneous is True
    report = property_report(trivial(17), node_budget=10)
    assert report.homogeneous is None
    assert "homogeneous" not in report.witnesses
    assert report.connected is False and report.flat


def test_noninvolutive_witness():
    from quandles import CocycleTable, cocycle_extension

    ext = cocycle_extension(trivial(2), CocycleTable(3, [[0, 1], [2, 0]]))
    report = property_report(ext)
    assert not report.involutive
    x, y = report.witnesses["involutive"]
    t = ext.table
    assert t[x][t[x][y]] != y


# ------------------------------------------------------------ reconstruction

def test_octahedron_reconstruction():
    graph, relabeling = to_graph(aknn(2, 4))
    assert graph == graphs.johnson(4, 2)
    rebuilt = from_graph(graph)
    assert sorted(relabeling) == list(range(12))
    assert is_homomorphism(relabeling, aknn(2, 4), rebuilt)


def test_dihedral4_reconstructs_the_single_edge():
    graph, relabeling = to_graph(dihedral(4))
    assert graph == graphs.complete(2)
    assert is_homomorphism(relabeling, dihedral(4), from_graph(graph))


def test_round_trip_on_random_graphs_with_no_isolated_vertices():
    rng = random.Random(23)
    done = 0
    while done < 25:
        n = rng.randint(2, 8)
        edges = random_edge_set(rng, n)
        covered = {v for e in edges for v in e}
        for v in range(n):
            if v not in covered:
                w = rng.choice([u for u in range(n) if u != v])
                edges.append((min(v, w), max(v, w)))
                covered.update((v, w))
        g = SimpleGraph(n, set(edges))
        back, relabeling = to_graph(from_graph(g))
        assert back == g
        done += 1


def test_reconstruction_rejects_singleton_components():
    with pytest.raises(BadComponentSizeError) as err:
        to_graph(trivial(2))
    assert err.value.component == (0,)


def test_reconstruction_rejects_non_crossed_quandles():
    with pytest.raises(NotCrossedError) as err:
        to_graph(SINGLE_FLIP)
    x, y = err.value.witness
    t = SINGLE_FLIP.table
    assert t[x][y] == y and t[y][x] != x


def test_edge_rule_is_well_defined_on_crossed_pair_quandles():
    q = aknn(2, 4)
    comps = connected_components(q)
    t = q.table
    for i, (p0, p1) in enumerate(comps):
        for j, (q0, q1) in enumerate(comps):
            if i == j:
                continue
            verdicts = {
                t[p0][q0] != q0,
                t[p0][q1] != q1,
                t[p1][q0] != q0,
                t[p1][q1] != q1,
                t[q0][p0] != p0,
                t[q0][p1] != p1,
                t[q1][p0] != p0,
                t[q1][p1] != p1,
            }
            assert len(verdicts) == 1


# ------------------------------------------------------------ characterization

def test_characterize_oriented_planes():
    verdict = characterize(aknn(2, 4))
    assert verdict.components_size_two and verdict.crossed and verdict.homogeneous
    assert verdict.matches
    assert verdict.graph_vertex_transitive is True
    assert verdict.graph == graphs.johnson(4, 2)


def test_characterize_star_quandle_fails_homogeneity():
    verdict = characterize(from_graph(graphs.star(4)))
    assert verdict.components_size_two and verdict.crossed
    assert verdict.homogeneous is False
    assert verdict.graph_vertex_transitive is False
    assert not verdict.matches


def test_unequal_colour_counts_decide_homogeneity_with_no_search():
    # An automorphism keeps each point's colour counts, so a quandle whose
    # counts differ is not homogeneous whatever the budget; the full group
    # that property_report needs for its witness still takes its search.
    q = from_graph(graphs.path(12))
    assert characterize(q, node_budget=1).homogeneous is False
    with pytest.raises(ResourceLimitError):
        automorphism_group(q, node_budget=1)
    with pytest.raises(ResourceLimitError):
        characterize(from_graph(graphs.cycle(12)), node_budget=1)


def test_characterize_connected_dihedral_fails_component_condition():
    verdict = characterize(dihedral(3))
    assert not verdict.components_size_two
    assert verdict.graph is None and verdict.graph_vertex_transitive is None
    assert not verdict.matches


# ------------------------------------------------------------- group chain

def test_group_chain_orders():
    assert group_chain(trivial(3)).orders == (1, 1, 1, 6)
    assert group_chain(trivial(4)).orders == (1, 1, 1, 24)
    assert group_chain(dihedral(3)).orders == (3, 3, 6, 6)
    qk2 = from_graph(graphs.complete(2))
    assert group_chain(qk2).orders == (2, 2, 4, 8)


def test_group_chain_inclusions_hold_elementwise():
    # The element sets come from products of generators and from the
    # materializing automorphism search, as group_chain computed them
    # before it worked on stabilizer chains.
    rng = random.Random(29)
    for q in small_suite(rng):
        if q.size > 10:
            continue
        chain = group_chain(q)
        dis, even, inn = (
            closure_by_products(q.size, g.generators)
            for g in (chain.displacement, chain.even_inner, chain.inner)
        )
        aut = set(quandle_automorphisms(q.table))
        assert dis <= even <= inn <= aut
        for small, big in ((dis, even), (even, inn), (inn, aut)):
            assert len(big) % len(small) == 0
        assert chain.orders == (len(dis), len(even), len(inn), len(aut))


def test_group_chain_refuses_a_broken_inclusion(monkeypatch):
    import quandles.analysis as analysis

    # An automorphism "group" holding the first inner generator only.
    monkeypatch.setattr(
        analysis, "automorphism_group", lambda q, **_: PermGroup(q.size, inner_group(q).generators[:1])
    )
    with pytest.raises(VerificationError, match="inner group is not contained in the automorphism group"):
        group_chain(dihedral(3))


# ------------------------------------------- flat and medial vs brute force

# The tetrahedral quandle (Alexander, hence medial) and a Z/2 cocycle whose
# extension is neither flat nor medial.
TETRAHEDRAL = FiniteQuandle([[0, 2, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0], [2, 0, 1, 3]])
NONMEDIAL_PHI = [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]


def oracle_suite():
    from quandles import CocycleTable, cocycle_extension, discrete_torus, enumerate_quandles

    rng = random.Random(41)
    qs = []
    for n in range(1, 6):
        for q in enumerate_quandles(n):
            sigma = list(range(n))
            rng.shuffle(sigma)
            qs += [q, FiniteQuandle(relabeled_table(q.table, sigma))]
    for _ in range(6):
        n = rng.randint(2, 7)
        qs.append(from_graph(SimpleGraph(n, random_edge_set(rng, n))))
    qs += [discrete_torus((3, 3)), discrete_torus((3, 5)), aknn(1, 4), aknn(2, 4)]
    qs.append(cocycle_extension(TETRAHEDRAL, CocycleTable(2, NONMEDIAL_PHI)))
    return qs


def test_flat_and_medial_match_the_pairwise_product_oracle():
    flags = set()
    for q in oracle_suite():
        report = property_report(q)
        witness = first_noncommuting_rows(q.table)
        assert report.abelian_inn == (witness is None), q.table
        assert report.witnesses.get("abelian_inn") == witness, q.table
        for name, inverse in (("flat", False), ("medial", True)):
            witness = first_noncommuting_products(q.table, inverse)
            assert getattr(report, name) == (witness is None), (name, q.table)
            assert report.witnesses.get(name) == witness, (name, q.table)
        flags.add((report.flat, report.medial))
    assert flags == {(True, True), (False, True), (False, False)}


def test_nonmedial_cocycle_extension_of_a_medial_base():
    from quandles import CocycleTable, cocycle_extension

    assert property_report(TETRAHEDRAL).medial
    report = property_report(cocycle_extension(TETRAHEDRAL, CocycleTable(2, NONMEDIAL_PHI)))
    assert not report.flat and not report.medial


def test_generator_sets_give_the_orders_of_the_product_groups():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup

    def order(perms):
        return PermutationGroup([SymPerm(list(p)) for p in perms]).order()

    for q in [q for q in oracle_suite() if q.size <= 12] + [dihedral(r) for r in range(6, 11)]:
        dis = displacement_group(q)
        even = even_inner_group(q)
        assert len(dis.generators) <= q.size and len(even.generators) <= q.size + 1
        assert dis.order() == order(labelled_products(q.table, inverse=True))
        assert even.order() == order(labelled_products(q.table))


# ----------------------------------------------------------------- census

def test_census_to_order_four():
    rows = flat_connected_census(4)
    assert [r.class_count for r in rows] == [1, 1, 3, 7]
    assert [len(r.survivors) for r in rows] == [1, 0, 1, 0]
    assert rows[0].survivors[0].torus_orders == (1,)
    assert rows[2].survivors[0].torus_orders == (3,)
    d3 = rows[2].survivors[0].quandle
    assert find_isomorphism(d3, dihedral(3)) is not None


def test_census_survivors_match_the_enumeration():
    # The census tests the first table of each class it visits; the same
    # tests on the canonical representatives must keep the same classes.
    for row in flat_connected_census(6):
        classes = enumerate_quandles(row.order)
        assert row.class_count == len(classes)
        assert [s.quandle.table for s in row.survivors] == [
            q.table
            for q in classes
            if inner_group(q).is_transitive() and even_inner_group(q).is_abelian()
        ]
        for s in row.survivors:
            assert find_isomorphism(s.quandle, discrete_torus(s.torus_orders)) is not None


def test_census_at_order_seven():
    rows = flat_connected_census(7)
    # OEIS A181769
    assert [r.class_count for r in rows] == [1, 1, 3, 7, 22, 73, 298]
    (survivor,) = rows[6].survivors
    assert survivor.torus_orders == (7,)
    assert survivor.quandle.table == canonical_table(dihedral(7))
    # connected classes, OEIS A181771 (Vendramin, JKTR 2012)
    connected = [
        sum(inner_group(FiniteQuandle(t)).is_transitive() for t in _first_tables(n))
        for n in range(1, 8)
    ]
    assert connected == [1, 0, 1, 1, 3, 2, 5]


def test_census_rejects_bad_bounds():
    from quandles import InputError

    for bad in (0, 8):
        with pytest.raises(InputError):
            flat_connected_census(bad)


def test_census_and_enumeration_share_one_cap():
    from quandles import InputError, enumerate_quandles
    from quandles.core import ENUMERATION_CAP

    with pytest.raises(InputError, match=f"between 1 and {ENUMERATION_CAP}, got"):
        flat_connected_census(ENUMERATION_CAP + 1)
    with pytest.raises(InputError):
        enumerate_quandles(ENUMERATION_CAP + 1)


def test_homogeneity_matches_vertex_transitivity_on_small_graphs():
    for g, expected in (
        (graphs.complete(2), True),
        (graphs.cycle(4), True),
        (graphs.path(3), False),
        (graphs.star(4), False),
    ):
        assert graphs.is_vertex_transitive(g) == expected
        assert property_report(from_graph(g)).homogeneous == expected
