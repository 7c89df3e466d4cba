import itertools
import os
import random
import resource
import subprocess
import sys

import pytest

from quandles import (
    CocycleTable,
    InputError,
    ResourceLimitError,
    SimpleGraph,
    aknn,
    axis_quandle,
    cocycle_extension,
    cocycle_from_dict,
    dihedral,
    direct_product,
    discrete_torus,
    find_isomorphism,
    from_graph,
    inner_group,
    is_cocycle,
    is_homomorphism,
    trivial,
    verify_axioms,
)
from quandles import core, enumerate_quandles, even_inner_group, graphs
from quandles.core import POINT_CAP

from helpers import (
    adjacency_cocycle,
    cocycle_to_dict,
    cocycle_witness,
    extension_table,
    geometric_dihedral_table,
    random_edge_set,
    reflection_oracle,
    signed_subsets,
)


# ------------------------------------------------------------ trivial/dihedral

def test_trivial_tables():
    assert trivial(1).table == ((0,),)
    assert trivial(3).table == ((0, 1, 2),) * 3
    with pytest.raises(InputError):
        trivial(0)


def test_dihedral_one_point_is_trivial():
    assert dihedral(1) == trivial(1)


def test_dihedral_agrees_with_circle_reflections_up_to_eight():
    for r in range(1, 9):
        assert [list(row) for row in dihedral(r).table] == geometric_dihedral_table(r)


def test_dihedral3_rows():
    assert dihedral(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))


# ----------------------------------------------------------------- axes

def test_axis_one_dimension_is_trivial_pair():
    assert axis_quandle(1).table == trivial(2).table


def test_axis_two_dimensions_is_dihedral4():
    f = find_isomorphism(axis_quandle(2), dihedral(4))
    assert f is not None and is_homomorphism(f, axis_quandle(2), dihedral(4))


def test_axis_equals_one_dimensional_planes():
    for n in range(1, 8):
        table = axis_quandle(n).table
        assert table == aknn(1, n).table == from_graph(graphs.complete(n)).table
    assert axis_quandle(2).labels == ("+e1", "-e1", "+e2", "-e2")


def test_axis_sign_rule():
    q = axis_quandle(3)
    # the symmetry at +e_1 (point 0) fixes the first pair, swaps the others
    assert q.table[0][:2] == (0, 1)
    assert q.table[0][2:] == (3, 2, 5, 4)
    assert q.table[0] == q.table[1]


# ---------------------------------------------------------- oriented planes

def test_aknn_element_count_and_order():
    q = aknn(2, 4)
    assert q.size == 12
    assert q.labels[:4] == ("+(1,2)", "-(1,2)", "+(1,3)", "-(1,3)")
    assert q.labels == tuple(
        ("+" if sign > 0 else "-") + "(" + ",".join(map(str, idx)) + ")"
        for _, idx, sign in signed_subsets(2, 4)
    )


def test_aknn_parity_rule():
    q = aknn(2, 4)
    # {1,3} differs from {1,2} in one index: orientation flips
    assert q.table[0][2] == 3
    # every element is fixed by its own symmetry, either sign
    for i in range(0, 12, 2):
        assert q.table[i][i] == i
        assert q.table[i][i + 1] == i + 1
        assert q.table[i + 1][i] == i
    with pytest.raises(InputError):
        aknn(3, 2)


def test_reflection_oracle_fixes_own_plane():
    for k, n in ((1, 3), (2, 4), (3, 5)):
        for element in signed_subsets(k, n):
            assert reflection_oracle(element, element) == element


def test_reflection_oracle_flips_odd_differences():
    assert reflection_oracle((4, (1, 2), 1), (4, (1, 3), 1)) == (4, (1, 3), -1)


def test_reflection_oracle_matches_table_on_a24():
    q = aknn(2, 4)
    elements = signed_subsets(2, 4)
    index = {e: i for i, e in enumerate(elements)}
    for i, big_i in enumerate(elements):
        for j, big_j in enumerate(elements):
            assert q.table[i][j] == index[reflection_oracle(big_i, big_j)]


# ------------------------------------------------------------- graph quandles

def test_empty_graph_gives_trivial_quandle():
    for n in range(1, 5):
        assert from_graph(graphs.empty(n)).table == trivial(2 * n).table


def test_complete_graph_gives_axis_quandle():
    for n in range(1, 5):
        qg = from_graph(graphs.complete(n))
        assert qg.table == axis_quandle(n).table
        assert find_isomorphism(qg, axis_quandle(n)) is not None


def test_complete2_rows():
    assert from_graph(graphs.complete(2)).table == (
        (0, 1, 3, 2),
        (0, 1, 3, 2),
        (1, 0, 2, 3),
        (1, 0, 2, 3),
    )


def test_parity_difference_graph_gives_oriented_planes():
    for n, k in ((4, 2), (5, 2), (4, 3)):
        qg = from_graph(graphs.parity_difference(n, k))
        assert qg.table == aknn(k, n).table
        f = find_isomorphism(qg, aknn(k, n))
        assert f is not None and is_homomorphism(f, qg, aknn(k, n))


def test_graph_quandle_rows_ignore_the_bit():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(1, 8)
        q = from_graph(SimpleGraph(n, random_edge_set(rng, n)))
        for v in range(n):
            assert q.table[2 * v] == q.table[2 * v + 1]


# ----------------------------------------------------------------- cocycles

def test_zero_table_is_a_cocycle():
    for q in (trivial(3), dihedral(5)):
        phi = CocycleTable(2, [[0] * q.size] * q.size)
        assert is_cocycle(q, phi).ok


def test_graph_adjacency_is_a_cocycle_over_trivial():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 6)
        g = SimpleGraph(n, random_edge_set(rng, n))
        assert is_cocycle(trivial(n), CocycleTable(2, adjacency_cocycle(g))).ok


def test_any_zero_diagonal_table_is_a_cocycle_over_trivial():
    phi = CocycleTable(2, [[0, 1], [0, 0]])
    assert is_cocycle(trivial(2), phi).ok
    bad = CocycleTable(2, [[1, 1], [0, 0]])
    check = is_cocycle(trivial(2), bad)
    assert not check.ok
    assert check.witness == ("diagonal", (0,))


def test_cocycle_identity_violation_carries_its_triple():
    phi = CocycleTable(2, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    check = is_cocycle(dihedral(3), phi)
    assert not check.ok
    kind, (x, y, z) = check.witness
    assert kind == "identity"
    t = dihedral(3).table
    vals = phi.values
    total = vals[x][t[y][z]] + vals[y][z] - vals[t[x][y]][t[x][z]] - vals[x][z]
    assert total % 2 != 0


def test_cocycle_witnesses_match_the_triple_loop():
    rng = random.Random(71)
    # Every zero-diagonal table mod 2 and mod 3 over dihedral(3): cocycles
    # and not.
    t3 = dihedral(3).table
    cells = [(x, y) for x in range(3) for y in range(3) if x != y]
    for m in (2, 3):
        for entries in itertools.product(range(m), repeat=len(cells)):
            values = [[0] * 3 for _ in range(3)]
            for (x, y), v in zip(cells, entries):
                values[x][y] = v
            phi = CocycleTable(m, values)
            assert is_cocycle(dihedral(3), phi).witness == cocycle_witness(t3, phi.values, m)
    # Random tables (cocycles over a trivial base), the coboundary
    # f(y) - f(s_x(y)) of a random f (a cocycle over any base, by Q3), and
    # one-entry mutations of each, on both sides of m = 64.
    bases = [trivial(1), trivial(5), dihedral(4), dihedral(5), from_graph(graphs.cycle(4)), aknn(2, 4)]
    for q in bases:
        n = q.size
        t = q.table
        for m in (2, 3, 64, 65):
            tables = [
                [
                    [rng.randrange(m) if x != y and rng.random() < density else 0 for y in range(n)]
                    for x in range(n)
                ]
                for density in (0.0, 0.2, 1.0)
            ]
            f = [rng.randrange(m) for _ in range(n)]
            tables.append([[(f[y] - f[t[x][y]]) % m for y in range(n)] for x in range(n)])
            assert cocycle_witness(t, tables[-1], m) is None
            for values in tables:
                mutated = [row[:] for row in values]
                x, y = rng.randrange(n), rng.randrange(n)
                mutated[x][y] = (mutated[x][y] + rng.randrange(1, m)) % m
                for vals in (values, mutated):
                    phi = CocycleTable(m, vals)
                    expected = cocycle_witness(q.table, phi.values, m)
                    check = is_cocycle(q, phi)
                    assert (check.ok, check.witness) == (expected is None, expected)


def cocycle_sweep():
    """(base, values, m) for every zero-diagonal table mod 2 and mod 3 over
    each class of order at most 3, and 100 seeded tables mod 2, 3 and 5
    over each class of order 4: a third zero-diagonal at random, a third
    coboundaries f(y) - f(s_x(y)), and a third those with one entry
    changed."""
    for n in (1, 2, 3):
        cells = [(x, y) for x in range(n) for y in range(n) if x != y]
        for q in enumerate_quandles(n):
            for m in (2, 3):
                for entries in itertools.product(range(m), repeat=len(cells)):
                    values = [[0] * n for _ in range(n)]
                    for (x, y), v in zip(cells, entries):
                        values[x][y] = v
                    yield q, values, m
    rng = random.Random(83)
    for q in enumerate_quandles(4):
        t = q.table
        for m in (2, 3, 5):
            for i in range(100):
                if i % 3 == 0:
                    values = [[rng.randrange(m) if x != y else 0 for y in range(4)] for x in range(4)]
                else:
                    f = [rng.randrange(m) for _ in range(4)]
                    values = [[(f[y] - f[t[x][y]]) % m for y in range(4)] for x in range(4)]
                    if i % 3 == 2:
                        values[rng.randrange(4)][rng.randrange(4)] = rng.randrange(m)
                yield q, values, m


def test_is_cocycle_is_the_axiom_check_of_the_extension():
    # The extension is built from its definition, with no package code,
    # and the verdicts of is_cocycle, cocycle_extension and the axiom
    # check of that table agree on every sweep table.
    verdicts = set()
    for q, values, m in cocycle_sweep():
        phi = CocycleTable(m, values)
        table = extension_table(q.table, phi.values, m)
        ok = verify_axioms(table).ok
        verdicts.add(ok)
        assert is_cocycle(q, phi).ok == ok
        try:
            built = cocycle_extension(q, phi)
        except InputError as exc:
            assert not ok and str(exc).startswith("not a 2-cocycle: first violation ")
        else:
            assert ok and [list(row) for row in built.table] == table
    assert verdicts == {True, False}


def test_cocycle_size_mismatch():
    with pytest.raises(InputError):
        is_cocycle(trivial(3), CocycleTable(2, [[0, 0], [0, 0]]))
    with pytest.raises(InputError):
        CocycleTable(1, [[0]])


def test_zero_cocycle_extension_is_a_direct_product():
    q = dihedral(3)
    phi = CocycleTable(3, [[0] * 3] * 3)
    assert cocycle_extension(q, phi).table == direct_product(q, trivial(3)).table


def test_adjacency_extension_reproduces_graph_quandle():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(1, 7)
        g = SimpleGraph(n, random_edge_set(rng, n))
        ext = cocycle_extension(trivial(n), CocycleTable(2, adjacency_cocycle(g)))
        assert ext.table == from_graph(g).table


def test_mod3_extension_of_trivial_pair():
    phi = CocycleTable(3, [[0, 1], [2, 0]])
    ext = cocycle_extension(trivial(2), phi)
    assert ext.size == 6
    assert verify_axioms(ext.table).ok


def test_extension_refuses_non_cocycles():
    bad = CocycleTable(2, [[1, 0], [0, 0]])
    with pytest.raises(InputError):
        cocycle_extension(trivial(2), bad)


def test_asymmetric_cocycles_over_dihedral_3():
    # Extensions in the row convention, (x, a) > (y, b) = (s_x(y),
    # b + phi(x, y)): this table's extension is a 6-point quandle, and the
    # next one fails the identity at (0, 1, 0).
    q = dihedral(3)
    phi = CocycleTable(2, [[0, 1, 1], [0, 0, 0], [1, 1, 0]])
    assert is_cocycle(q, phi).ok
    ext = cocycle_extension(q, phi)
    assert ext.size == 6 and verify_axioms(ext.table).ok
    bad = CocycleTable(2, [[0, 0, 1], [1, 0, 1], [1, 0, 0]])
    assert is_cocycle(q, bad).witness == ("identity", (0, 1, 0))
    with pytest.raises(InputError, match=r"^not a 2-cocycle: first violation \('identity', \(0, 1, 0\)\)$"):
        cocycle_extension(q, bad)


def test_cocycle_json_round_trip():
    phi = CocycleTable(5, [[0, 7], [3, 0]])
    d = cocycle_to_dict(phi)
    assert d["values"] == [[0, 2], [3, 0]]
    assert cocycle_from_dict(d) == phi
    with pytest.raises(InputError):
        cocycle_from_dict({"size": 2, "modulus": 2})


def test_cocycle_json_over_the_point_cap_is_refused_before_the_values():
    # 1025 points mod 2 would extend to 2050 points; the size and modulus
    # are read before the values' shape.
    with pytest.raises(ResourceLimitError, match="^the table would have 2050 points, over the bound of 2048$"):
        cocycle_from_dict({"size": 1025, "modulus": 2, "values": None})
    with pytest.raises(InputError, match='^"values" must be a list of 1024 rows$'):
        cocycle_from_dict({"size": 1024, "modulus": 2, "values": None})
    # A bad modulus keeps its own message.
    for modulus in (1, True, "2", None):
        with pytest.raises(InputError):
            cocycle_from_dict({"size": 3000, "modulus": modulus, "values": [[0] * 3000] * 3000})


# -------------------------------------------------------------- torus

def test_torus_single_factor_is_dihedral():
    assert discrete_torus([3]) == dihedral(3)


def test_torus_three_three_is_flat_and_connected():
    q = discrete_torus([3, 3])
    assert q.size == 9
    assert even_inner_group(q).is_abelian()
    assert inner_group(q).is_transitive()


def test_torus_with_even_factor_is_flat_but_disconnected():
    q = discrete_torus([3, 2])
    assert q.size == 6
    assert even_inner_group(q).is_abelian()
    assert not inner_group(q).is_transitive()


def test_torus_needs_a_factor():
    with pytest.raises(InputError):
        discrete_torus([])


# ----------------------------------------------------------- size admission

def run_limited(*args):
    """Run python with these arguments in a child process with the source
    tree on its path, under a 1 GB address-space limit and a 60 s timeout,
    so that a builder which starts work on a huge table fails the test
    instead of exhausting the machine."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory
    )


@pytest.mark.parametrize(
    "call, points",
    [
        ("dihedral(10**20)", 10**20),
        ("aknn(10, 20)", 2 * 184756),
        ("trivial(10**9)", 10**9),
        ("from_graph(SimpleGraph(10**9))", 2 * 10**9),
        ("discrete_torus((3,) * 40)", 3**40),
        ("direct_product(trivial(1000), trivial(1000))", 10**6),
    ],
)
def test_tables_over_the_point_cap_are_refused_before_any_work(call, points):
    code = (
        "from quandles import *\n"
        "try:\n"
        f"    {call}\n"
        "except ResourceLimitError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_limited("-c", code)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"the table would have {points} points, over the bound of {POINT_CAP}\n"


def test_graphs_over_the_point_cap_are_refused_before_any_work():
    # The two symmetry calls refuse before the n x n colour structure,
    # and the families before listing their subsets, vertex pairs or edges.
    calls = [
        ("is_vertex_transitive(SimpleGraph(50000))", 50000),
        ("graph_automorphisms(SimpleGraph(50000))", 50000),
        ("johnson(30, 15)", 155117520),
        ("parity_difference(30, 15)", 155117520),
        ("complete(10**5)", 10**5),
        ("cycle(10**8)", 10**8),
        ("path(10**8)", 10**8),
        ("star(10**8)", 10**8),
    ]
    code = "from quandles import *\nfrom quandles.graphs import *\n" + "".join(
        f"try:\n    {call}\nexcept ResourceLimitError as exc:\n    print(exc)\n" for call, _ in calls
    )
    proc = run_limited("-c", code)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "".join(
        f"the graph would have {vertices} vertices, over the bound of {POINT_CAP}\n" for _, vertices in calls
    )


def test_a_product_of_exactly_the_point_cap_is_built():
    assert direct_product(trivial(2), trivial(POINT_CAP // 2)).size == POINT_CAP


@pytest.mark.parametrize("params", [("dihedral", "100000000000000000000"), ("aknn", "10", "20")])
def test_construct_over_the_point_cap_exits_2(params):
    proc = run_limited("-m", "quandles", "construct", *params)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: the table would have ")
    assert proc.stderr.endswith(f" points, over the bound of {POINT_CAP}\n")
    assert len(proc.stderr.splitlines()) == 1


def test_cocycle_checks_over_the_point_cap_are_refused_before_any_work():
    # 600 points mod 65 is 39,000 extension points; the refusal comes
    # before any row is built or any triple checked.
    code = (
        "from quandles import *\n"
        "q, phi = trivial(600), CocycleTable(65, [[0] * 600] * 600)\n"
        "for check in (is_cocycle, cocycle_extension):\n"
        "    try:\n"
        "        check(q, phi)\n"
        "    except ResourceLimitError as exc:\n"
        "        print(exc)\n"
    )
    proc = run_limited("-c", code)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"the table would have 39000 points, over the bound of {POINT_CAP}\n" * 2


def test_each_builder_counts_its_points_against_the_cap(monkeypatch):
    # With the bound at 6, each family builds its 6-point member and
    # refuses the next one, naming its point count.
    monkeypatch.setattr(core, "POINT_CAP", 6)
    zero2, zero3 = CocycleTable(2, [[0] * 3] * 3), CocycleTable(3, [[0] * 3] * 3)
    cases = [
        (lambda: trivial(6), lambda: trivial(7), 7),
        (lambda: dihedral(6), lambda: dihedral(7), 7),
        (lambda: axis_quandle(3), lambda: axis_quandle(4), 8),
        (lambda: aknn(1, 3), lambda: aknn(2, 4), 12),
        (lambda: discrete_torus([3, 2]), lambda: discrete_torus([3, 3]), 9),
        (lambda: from_graph(graphs.complete(3)), lambda: from_graph(graphs.complete(4)), 8),
        (lambda: cocycle_extension(trivial(3), zero2), lambda: cocycle_extension(trivial(3), zero3), 9),
        (lambda: direct_product(trivial(3), trivial(2)), lambda: direct_product(trivial(3), trivial(3)), 9),
    ]
    for build, refuse, points in cases:
        assert build().size == 6
        with pytest.raises(ResourceLimitError) as info:
            refuse()
        assert str(info.value) == f"the table would have {points} points, over the bound of 6"


def test_parameters_are_checked_before_the_size(monkeypatch):
    # Every invalid torus order is found before the product is taken,
    # and aknn checks k and n before counting its points.
    monkeypatch.setattr(core, "POINT_CAP", 6)
    with pytest.raises(InputError, match="order must be a positive integer, got 0"):
        discrete_torus([7, 0])
    with pytest.raises(InputError, match="need 1 <= k <= n, got k=30, n=20"):
        aknn(30, 20)
    # A cocycle on another base is refused before its n*m = 15 points.
    for check in (is_cocycle, cocycle_extension):
        with pytest.raises(InputError, match="cocycle base size 2 does not match quandle size 3"):
            check(trivial(3), CocycleTable(5, [[0] * 2] * 2))


# ------------------------------------------------------- family-wide checks

def constructed_suite(rng):
    qs = [trivial(rng.randint(1, 6))]
    qs += [dihedral(r) for r in range(1, 9)]
    qs += [axis_quandle(n) for n in range(1, 5)]
    qs += [aknn(k, n) for n in range(1, 6) for k in range(1, n + 1)]
    for _ in range(5):
        n = rng.randint(1, 7)
        qs.append(from_graph(SimpleGraph(n, random_edge_set(rng, n))))
    qs.append(discrete_torus([rng.choice([1, 3, 5]), rng.choice([2, 3, 4])]))
    return qs


def test_every_constructor_output_passes_axioms():
    rng = random.Random(41)
    for q in constructed_suite(rng):
        assert verify_axioms(q.table).ok


def test_every_constructed_quandle_is_involutive():
    rng = random.Random(43)
    for q in constructed_suite(rng):
        for row in q.table:
            assert all(row[row[y]] == y for y in range(q.size))
