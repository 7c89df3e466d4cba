"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with its runtime (run pytest with -s to see them all)."""

import json
import random
import time
from contextlib import contextmanager

from quandles import (
    CocycleTable,
    PointMap,
    SimpleGraph,
    aknn,
    automorphism_group,
    axis_quandle,
    cocycle_extension,
    connected_components,
    dihedral,
    enumerate_quandles,
    even_inner_group,
    find_isomorphism,
    from_graph,
    flat_connected_census,
    graphs,
    inner_group,
    is_cocycle,
    is_homomorphism,
    quandle_to_dict,
    to_graph,
    trivial,
    verify_axioms,
)
from quandles.cli import main as cli_main

from helpers import (
    adjacency_cocycle,
    gf2_rank,
    group_elements,
    naive_quandle_classes,
    nx_graph,
    petersen_edges,
    random_edge_set,
    reflection_oracle,
    signed_subsets,
)


@contextmanager
def criterion(num, name, seconds=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num} [{name}]: FAIL")
        raise
    dt = time.perf_counter() - t0
    if seconds is not None:
        assert dt < seconds, f"{name} took {dt:.2f}s, budget {seconds}s"
    print(f"acceptance {num} [{name}]: PASS ({dt:.2f}s)")


def _crossed(q):
    t = q.table
    return all(
        t[y][x] == x
        for x in range(q.size)
        for y in range(q.size)
        if t[x][y] == y
    )


def _involutive(q):
    return all(
        row[row[y]] == y for row in q.table for y in range(q.size)
    )


def test_criterion_1_octahedron_from_oriented_planes(tmp_path, capsys):
    import networkx as nx

    with criterion(1, "octahedron reconstruction", seconds=1.0):
        qpath = tmp_path / "a24.json"
        qpath.write_text(json.dumps(quandle_to_dict(aknn(2, 4))))
        assert cli_main(["to-graph", str(qpath)]) == 0
        data = json.loads(capsys.readouterr().out)
        graph = SimpleGraph(data["vertices"], [tuple(e) for e in data["edges"]])
        assert graph.vertex_count == 6
        assert len(graph.edges) == 12
        octahedron = graphs.johnson(4, 2)
        assert nx.is_isomorphic(nx_graph(graph), nx_graph(octahedron))
        # vertex 0 is the {1,2} component and vertex 5 the {3,4} component
        assert (0, 5) not in graph.edges


def test_criterion_2_graph_quandle_suite():
    with criterion(2, "graph quandle property suite", seconds=10.0):
        rng = random.Random(20260810)
        for trial in range(110):
            n = rng.randint(1, 8)
            g = SimpleGraph(n, random_edge_set(rng, n, p=rng.choice([0.2, 0.5, 0.8])))
            q = from_graph(g)
            assert verify_axioms(q.table).ok
            inn = inner_group(q)
            assert inn.is_abelian()
            assert _crossed(q)
            assert _involutive(q)
            comps = connected_components(q)
            assert len(comps) > 1  # 2|V| >= 2 points, never a single orbit
            assert all(len(c) <= 2 for c in comps)
            masks = [0] * n
            for u, v in g.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            assert inn.order() == 2 ** gf2_rank(masks, n)


def test_criterion_3_homogeneity_matches_vertex_transitivity():
    transitive = [
        ("complete(2)", graphs.complete(2)),
        ("complete(4)", graphs.complete(4)),
        ("cycle(4)", graphs.cycle(4)),
        ("cycle(5)", graphs.cycle(5)),
        ("johnson(4,2)", graphs.johnson(4, 2)),
    ]
    intransitive = [
        ("path(3)", graphs.path(3)),
        ("path(4)", graphs.path(4)),
        ("star(4)", graphs.star(4)),
        ("K2+K3", SimpleGraph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])),
        ("tree5", SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])),
    ]
    with criterion(3, "homogeneity = vertex-transitivity", seconds=10.0 * 11):
        for name, g in transitive + intransitive:
            t0 = time.perf_counter()
            expected = graphs.is_vertex_transitive(g)
            q = from_graph(g)
            aut = automorphism_group(q)
            assert aut.is_transitive() == expected, name
            assert time.perf_counter() - t0 < 10.0, name
        assert all(graphs.is_vertex_transitive(g) for _, g in transitive)
        assert not any(graphs.is_vertex_transitive(g) for _, g in intransitive)

        # Petersen graph: its quandle has 20 points.  Besides the search,
        # transitivity of its automorphism group is witnessed
        # constructively: lifts (v,a) -> (phi(v),a) of graph automorphisms
        # reach every fiber from (0,0), and single-fiber flips move within a
        # fiber.  Each witness is verified to be a bijective homomorphism.
        t0 = time.perf_counter()
        pet = SimpleGraph(10, petersen_edges())
        assert graphs.is_vertex_transitive(pet)
        q = from_graph(pet)
        assert automorphism_group(q).is_transitive()
        autos = sorted(group_elements(graphs.graph_automorphisms(pet)))
        reached = set()
        for w in range(10):
            phi = next(p for p in autos if p[0] == w)
            lift = list(2 * phi[v] + a for v in range(10) for a in (0, 1))
            for b in (0, 1):
                images = list(lift)
                if b == 1:
                    images[2 * 0], images[2 * 0 + 1] = (
                        images[2 * 0 + 1],
                        images[2 * 0],
                    )
                witness = PointMap(20, 20, tuple(images))
                assert sorted(images) == list(range(20))
                assert is_homomorphism(witness, q, q)
                reached.add(witness(0))
        assert reached == set(range(20))
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_dihedral_property_table():
    with criterion(4, "dihedral flat/abelian/connected table"):
        for r in range(1, 13):
            q = dihedral(r)
            assert even_inner_group(q).is_abelian()
            assert inner_group(q).is_abelian() == (r in (1, 2, 4))
            assert inner_group(q).is_transitive() == (r % 2 == 1)


def test_criterion_5_reflection_oracle_agreement():
    with criterion(5, "oriented-plane table vs geometric oracle"):
        for n in range(1, 7):
            for k in range(1, n + 1):
                q = aknn(k, n)
                elements = signed_subsets(k, n)
                index = {e: i for i, e in enumerate(elements)}
                for i, big_i in enumerate(elements):
                    row = q.table[i]
                    for j, big_j in enumerate(elements):
                        assert row[j] == index[reflection_oracle(big_i, big_j)]


def test_criterion_6_isomorphism_chain():
    with criterion(6, "graph/axis/plane isomorphism chain"):
        for n in range(1, 6):
            qg = from_graph(graphs.complete(n))
            ax = axis_quandle(n)
            pl = aknn(1, n)
            for a, b in ((qg, ax), (ax, pl)):
                f = find_isomorphism(a, b)
                assert f is not None and sorted(f.images) == list(range(a.size))
                assert is_homomorphism(f, a, b)
        qpd = from_graph(graphs.parity_difference(4, 2))
        f = find_isomorphism(qpd, aknn(2, 4))
        assert f is not None and sorted(f.images) == list(range(qpd.size))
        assert is_homomorphism(f, qpd, aknn(2, 4))


def test_criterion_7_small_order_census():
    with criterion(7, "small-order census", seconds=300.0):
        for n, expected in ((1, 1), (2, 1), (3, 3), (4, 7)):
            assert len(enumerate_quandles(n)) == expected
            assert len(naive_quandle_classes(n)) == expected
        # Ho-Nelson, Matrices and finite quandles (2005); OEIS A181769.
        assert [len(enumerate_quandles(n)) for n in range(1, 7)] == [1, 1, 3, 7, 22, 73]
        rows = flat_connected_census(6)
        survivors = {row.order: row.survivors for row in rows}
        assert [len(survivors[n]) for n in range(1, 7)] == [1, 0, 1, 0, 1, 0]
        for row in rows:
            for s in row.survivors:
                assert row.order % 2 == 1
                assert all(r % 2 == 1 for r in s.torus_orders)
        assert survivors[3][0].torus_orders == (3,)
        assert survivors[5][0].torus_orders == (5,)


def test_criterion_8_cocycle_extension_consistency():
    with criterion(8, "cocycle checks and extensions"):
        rng = random.Random(88)
        for _ in range(20):
            n = rng.randint(1, 7)
            g = SimpleGraph(n, random_edge_set(rng, n))
            phi = CocycleTable(2, adjacency_cocycle(g))
            assert is_cocycle(trivial(n), phi).ok
            assert cocycle_extension(trivial(n), phi).table == from_graph(g).table
        for _ in range(10):
            n = rng.randint(1, 5)
            m = rng.randint(2, 5)
            values = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            x = rng.randrange(n)
            values[x][x] = rng.randrange(1, m)
            check = is_cocycle(trivial(n), CocycleTable(m, values))
            assert not check.ok and check.witness[0] == "diagonal"


def test_criterion_9_graph_round_trip():
    with criterion(9, "graph round trip"):
        rng = random.Random(99)
        done = 0
        while done < 50:
            n = rng.randint(2, 8)
            edges = set(random_edge_set(rng, n, p=rng.choice([0.3, 0.6])))
            covered = {v for e in edges for v in e}
            for v in range(n):
                if v not in covered:
                    w = rng.choice([u for u in range(n) if u != v])
                    edges.add((min(v, w), max(v, w)))
                    covered.update((v, w))
            g = SimpleGraph(n, edges)
            assert {v for e in g.edges for v in e} == set(range(n))
            back, relabeling = to_graph(from_graph(g))
            assert back == g
            assert is_homomorphism(relabeling, from_graph(g), from_graph(back))
            done += 1
