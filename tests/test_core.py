import collections
import gc
import hashlib
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import (
    AxiomError,
    AxiomReport,
    FiniteQuandle,
    InputError,
    ResourceLimitError,
    canonical_table,
    dihedral,
    direct_product,
    enumerate_quandles,
    find_isomorphism,
    from_graph,
    is_homomorphism,
    iter_isomorphisms,
    quandle_from_dict,
    quandle_to_dict,
    trivial,
    verify_axioms,
)
from quandles import aknn, axis_quandle, connected_components, graphs
from quandles.core import CANONICAL_SLICE_CAP, _first_tables, _least_of_type, _listings, _orbit_slice, _slice_size

from helpers import (
    affine_table,
    cycle_type,
    first_axiom_violation,
    geometric_dihedral_table,
    is_subquandle,
    naive_quandle_classes,
    orbit_quandle_classes,
    random_edge_set,
    relabeled_table,
    relabeling_orbit,
    restrict,
)


# ---------------------------------------------------------------- axioms

def test_trivial_table_passes():
    report = verify_axioms([[0, 1, 2]] * 3)
    assert report.ok and report.first_violation is None


def test_broken_diagonal_fails_q1():
    report = verify_axioms([[1, 0, 2], [2, 1, 0], [1, 0, 2]])
    assert not report.q1_ok
    assert report.first_violation == ("Q1", (0,))


def test_dihedral3_matches_geometric_reflections():
    table = geometric_dihedral_table(3)
    assert table == [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    assert verify_axioms(table).ok


def test_q2_failure_reports_duplicate():
    report = verify_axioms([[0, 0, 2], [0, 1, 2], [0, 1, 2]])
    assert not report.q2_ok
    assert report.first_violation == ("Q2", (0, 0, 1))


def test_q3_failure_reports_triple():
    # two flips and an identity row satisfy Q1 and Q2 but break Q3
    report = verify_axioms([[0, 2, 1], [2, 1, 0], [0, 1, 2]])
    assert report.q1_ok and report.q2_ok and not report.q3_ok
    x, y, z = report.first_violation[1]
    t = [[0, 2, 1], [2, 1, 0], [0, 1, 2]]
    assert t[x][t[y][z]] != t[t[x][y]][t[x][z]]


def test_malformed_tables_raise_not_report():
    with pytest.raises(InputError):
        verify_axioms([[0, 1], [0, 1, 2]])
    with pytest.raises(InputError):
        verify_axioms([[0, 3], [1, 0]])
    with pytest.raises(InputError):
        verify_axioms([])
    with pytest.raises(AxiomError):
        FiniteQuandle([[1, 0], [0, 1]])
    # the shape gate comes before the axiom gate
    with pytest.raises(InputError):
        FiniteQuandle([[0, 2], [1, 0]])
    with pytest.raises(TypeError):
        FiniteQuandle([[1, 0], [0, 1]], unchecked=True)


class Label(int):
    """An int subclass, as a caller's own point type might be."""


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [0, 1, 2]], "table is not square: row 1 has length 3"),
        ([[0, 5], [0]], r"entry table\[0\]\[1\] = 5 is out of range"),
        ([[0, 1], [0, -1]], r"entry table\[1\]\[1\] = -1 is out of range"),
        ([[0, 1], [True, 1]], r"entry table\[1\]\[0\] = True is out of range"),
        ([[0, 1.0], [0, 1]], r"entry table\[0\]\[1\] = 1.0 is out of range"),
        ([[0, "1"], [0, 1]], r"entry table\[0\]\[1\] = '1' is out of range"),
        ([[0, 1, 2], [0, 1, 2], [0, 1, 2, 3]], "table is not square: row 2 has length 4"),
        ([[0, 1, 2], [0, 1, 3], [0, 1]], r"entry table\[1\]\[2\] = 3 is out of range"),
    ],
)
def test_malformed_table_messages(table, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        verify_axioms(table)


def test_int_subclass_entries_are_accepted():
    table = [[Label(v) for v in row] for row in dihedral(5).table]
    assert verify_axioms(table).ok
    assert FiniteQuandle(table).table == dihedral(5).table


@pytest.mark.parametrize(
    "table, witness",
    [
        ([[0, 0, 2], [0, 1, 2], [0, 1, 2]], ("Q2", (0, 0, 1))),
        ([[0, 1, 2], [0, 1, 2], [2, 1, 2]], ("Q2", (2, 0, 2))),
        ([[0, 2, 2], [0, 1, 1], [0, 1, 2]], ("Q2", (0, 1, 2))),
        ([[0, 1, 1, 0], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]], ("Q2", (0, 1, 2))),
    ],
)
def test_q2_witness_is_the_first_repeat(table, witness):
    report = verify_axioms(table)
    assert report == oracle_report(table)
    assert report.first_violation == witness


def oracle_report(rows):
    w1, w2, w3 = (first_axiom_violation(rows, (ax,)) for ax in ("Q1", "Q2", "Q3"))
    return AxiomReport(w1 is None, w2 is None, w3 is None, w1 or w2 or w3)


def mutations(rows, rng, count):
    """count single-entry changes and count swaps of two entries in a row,
    then, if some row repeats, as many of each made in one copy of a
    repeated row."""
    n = len(rows)
    out = []
    for _ in range(count):
        t = [list(r) for r in rows]
        x, y = rng.randrange(n), rng.randrange(n)
        t[x][y] = rng.choice([v for v in range(n) if v != t[x][y]] or [0])
        out.append(t)
        t = [list(r) for r in rows]
        x, y1, y2 = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        t[x][y1], t[x][y2] = t[x][y2], t[x][y1]
        out.append(t)
    copies = collections.Counter(tuple(r) for r in rows)
    repeated = [x for x, r in enumerate(rows) if copies[tuple(r)] > 1]
    for _ in range(count if repeated else 0):
        t = [list(r) for r in rows]
        x, y = rng.choice(repeated), rng.randrange(n)
        t[x][y] = rng.choice([v for v in range(n) if v != t[x][y]])
        out.append(t)
        t = [list(r) for r in rows]
        x, y1, y2 = rng.choice(repeated), rng.randrange(n), rng.randrange(n)
        t[x][y1], t[x][y2] = t[x][y2], t[x][y1]
        out.append(t)
    return out


def only_the_row_class_test_fails(rows):
    """True when Q3 fails at its first failing x although the identity
    s_x s_y = s_{s_x(y)} s_x holds at the first point y of every distinct
    row: the Q3 check sees the failure only because s_x splits a class of
    equal rows."""
    violation = first_axiom_violation(rows, ("Q3",))
    if violation is None:
        return False
    x = violation[1][0]
    rx = rows[x]
    firsts = {}
    for y, r in enumerate(rows):
        firsts.setdefault(tuple(r), y)
    return all(
        [rx[v] for v in rows[y]] == [rows[rx[y]][v] for v in rx] for y in firsts.values()
    )


SMALL_CLASSES = [q.table for n in range(1, 6) for q in enumerate_quandles(n)]


def test_axiom_reports_match_the_oracle_on_small_classes_and_mutations():
    rng = random.Random(53)
    failing = set()
    class_only = 0
    for table in SMALL_CLASSES:
        assert verify_axioms(table) == oracle_report(table) == AxiomReport(True, True, True)
        n = len(table)
        sigma = rng.sample(range(n), n)
        for rows in mutations(relabeled_table(table, sigma), rng, 4):
            report = verify_axioms(rows)
            assert report == oracle_report(rows), rows
            failing.add(report.first_violation and report.first_violation[0])
            class_only += only_the_row_class_test_fails(rows)
    assert failing == {None, "Q1", "Q2", "Q3"}
    assert class_only > 0


def alexander_table(n, t):
    return [[(t * y + (1 - t) * x) % n for y in range(n)] for x in range(n)]


def trivial_extension_table(n, m, seed):
    """The extension of trivial(n) by a random cocycle mod m: the symmetry
    at (x, a) sends (y, b) to (y, b + phi(x, y)), so it does not depend on a."""
    rng = random.Random(seed)
    phi = [[0 if x == y else rng.randrange(m) for y in range(n)] for x in range(n)]
    return [
        [y * m + (b + phi[x][y]) % m for y in range(n) for b in range(m)]
        for x in range(n)
        for _ in range(m)
    ]


# 255 and 256 points take the bytes row encoding (with and without
# padding), 257 and 258 the tuple one.  alexander(255, 2) and
# alexander(257, 3) have no repeated row; every row of the others repeats.
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: alexander_table(255, 2), id="255-2"),
        pytest.param(lambda: alexander_table(256, 3), id="256-3"),
        pytest.param(lambda: alexander_table(257, 3), id="257-3"),
        pytest.param(lambda: trivial_extension_table(85, 3, 85), id="extension-255"),
        pytest.param(
            lambda: from_graph(graphs.SimpleGraph(128, random_edge_set(random.Random(128), 128))).table,
            id="graph-256",
        ),
        pytest.param(lambda: dihedral(258).table, id="dihedral-258"),
    ],
)
def test_axiom_reports_match_the_oracle_at_the_encoding_boundary(build):
    table = build()
    assert verify_axioms(table) == oracle_report(table) == AxiomReport(True, True, True)
    n = len(table)
    rng = random.Random(n)
    for rows in mutations(table, rng, 3):
        report = verify_axioms(rows)
        assert not report.ok
        assert report == oracle_report(rows)


@st.composite
def relabelled_classes_or_mutations(draw):
    table = draw(st.sampled_from(SMALL_CLASSES))
    n = len(table)
    rows = relabeled_table(table, draw(st.permutations(range(n))))
    kind = draw(st.sampled_from(["none", "entry", "swap"]))
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "entry":
        rows[x][y] = draw(st.integers(0, n - 1))
    elif kind == "swap":
        y2 = draw(st.integers(0, n - 1))
        rows[x][y], rows[x][y2] = rows[x][y2], rows[x][y]
    return rows


@settings(derandomize=True, max_examples=200, deadline=None)
@given(relabelled_classes_or_mutations())
def test_axiom_reports_match_the_oracle_on_generated_tables(rows):
    assert verify_axioms(rows) == oracle_report(rows)


# ---------------------------------------------------------- homomorphisms

def bijective(f):
    """The image tuple f maps its points one to one onto themselves."""
    return sorted(f) == list(range(len(f)))


def test_identity_is_homomorphism():
    d3 = dihedral(3)
    assert is_homomorphism(range(3), d3, d3)


def test_constant_maps_into_trivial_are_homomorphisms():
    d3 = dihedral(3)
    t4 = trivial(4)
    for z in range(4):
        assert is_homomorphism((z, z, z), d3, t4)


def test_sign_change_map_from_complete_graph_quandle_to_axes():
    # (v_i, a) at index 2i+a goes to (-1)^a e_i, also at index 2i+a
    for n in range(1, 5):
        qg = from_graph(graphs.complete(n))
        ax = axis_quandle(n)
        f = tuple(2 * i + a for i in range(n) for a in (0, 1))
        assert is_homomorphism(f, qg, ax)
        assert bijective(f)


def test_homomorphism_size_mismatch():
    with pytest.raises(InputError, match="^3 images for domain of size 4$"):
        is_homomorphism((0, 1, 2), dihedral(4), dihedral(4))
    # The codomain is the second quandle itself.
    with pytest.raises(InputError, match="^image of 2 is 3, out of range$"):
        is_homomorphism((0, 0, 3), dihedral(3), trivial(3))
    with pytest.raises(InputError, match="^image of 1 is -1, out of range$"):
        is_homomorphism([0, -1, 2], dihedral(3), dihedral(3))
    assert is_homomorphism((3, 3, 3), dihedral(3), trivial(4))


# ------------------------------------------------------------ isomorphism

def test_self_isomorphism_found():
    q = dihedral(5)
    f = find_isomorphism(q, q)
    assert f is not None and bijective(f)
    assert is_homomorphism(f, q, q)


def test_complete2_quandle_is_dihedral4():
    qk2 = from_graph(graphs.complete(2))
    f = find_isomorphism(qk2, dihedral(4))
    assert f is not None and bijective(f)
    assert is_homomorphism(f, qk2, dihedral(4))


def test_dihedral3_not_isomorphic_to_trivial3():
    d3, t3 = dihedral(3), trivial(3)
    assert find_isomorphism(d3, t3) is None
    # exhaustive check over all six bijections
    for images in itertools.permutations(range(3)):
        assert not is_homomorphism(images, d3, t3)


def test_find_isomorphism_is_the_first_one_listed():
    a, b = aknn(2, 4), from_graph(graphs.parity_difference(4, 2))
    f = find_isomorphism(a, b)
    assert type(f) is tuple and f == next(iter_isomorphisms(a, b))
    assert bijective(f) and is_homomorphism(f, a, b)


def test_isomorphism_is_symmetric():
    pairs = [
        (from_graph(graphs.complete(2)), dihedral(4)),
        (dihedral(3), trivial(3)),
        (axis_quandle(2), dihedral(4)),
        (dihedral(6), direct_product(dihedral(3), dihedral(2))),
    ]
    for a, b in pairs:
        assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)


def test_search_budget_is_an_error_not_a_no():
    q = trivial(5)
    with pytest.raises(ResourceLimitError, match="node_budget .*QUANDLES_NODE_BUDGET"):
        find_isomorphism(q, q, node_budget=3)


def test_isomorphism_search_goes_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    q = FiniteQuandle([range(n)] * n)
    f = find_isomorphism(q, q)
    assert f is not None and bijective(f)
    assert is_homomorphism(f, q, q)


# ------------------------------------------------------------ subquandles

def test_singletons_are_subquandles():
    q = dihedral(5)
    for x in range(5):
        assert is_subquandle(q.table, {x})


def test_even_points_of_dihedral4():
    assert is_subquandle(dihedral(4).table, {0, 2})
    assert FiniteQuandle(restrict(dihedral(4).table, {2, 0})) == trivial(2)


def test_adjacent_pair_of_dihedral3_is_not_closed():
    assert not is_subquandle(dihedral(3).table, {0, 1})


def test_subquandles_match_the_two_sided_definition():
    # is_subquandle tests closure under the symmetries only; a subset is
    # a subquandle when it is closed under each member symmetry and its
    # inverse, checked here with the inverse read off the row.
    verdicts = collections.Counter()
    for n in range(1, 6):
        for q in enumerate_quandles(n):
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    inside = set(subset)
                    closed = all(
                        q.table[a][x] in inside and q.table[a].index(x) in inside
                        for a in subset
                        for x in subset
                    )
                    assert is_subquandle(q.table, subset) == closed, (q.table, subset)
                    verdicts[closed] += 1
    assert verdicts[True] and verdicts[False]


def test_restricted_subquandle_passes_axioms():
    # Each Inn-orbit is a subquandle, and so a quandle in its own right.
    for q in (from_graph(graphs.cycle(5)), from_graph(graphs.path(4)), dihedral(6), aknn(2, 4)):
        for comp in connected_components(q):
            assert is_subquandle(q.table, comp)
            assert verify_axioms(restrict(q.table, comp)).ok


# ---------------------------------------------------------- direct product

def test_product_with_one_point_quandle():
    q = dihedral(5)
    assert direct_product(trivial(1), q).table == q.table


def test_product_sizes_multiply_and_projections_are_homomorphisms():
    q1, q2 = dihedral(3), dihedral(5)
    prod = direct_product(q1, q2)
    assert prod.size == 15
    p1 = tuple(i // 5 for i in range(15))
    p2 = tuple(i % 5 for i in range(15))
    assert is_homomorphism(p1, prod, q1)
    assert is_homomorphism(p2, prod, q2)


def test_product_labels_pair_the_factor_labels():
    # A factor without labels is labelled by its points.
    ab = FiniteQuandle([[0, 1], [0, 1]], ["a", "b"])
    assert direct_product(ab, dihedral(2)).labels == ("(a,0)", "(a,1)", "(b,0)", "(b,1)")
    assert direct_product(dihedral(2), ab).labels == ("(0,a)", "(0,b)", "(1,a)", "(1,b)")
    assert direct_product(dihedral(2), dihedral(2)).labels is None


def test_product_of_dihedrals_passes_axioms():
    prod = direct_product(dihedral(3), dihedral(3))
    assert prod.size == 9
    assert verify_axioms(prod.table).ok


# ------------------------------------------------------------- enumeration

def test_enumeration_counts_small_orders():
    assert len(enumerate_quandles(1)) == 1
    assert len(enumerate_quandles(2)) == 1
    assert len(enumerate_quandles(3)) == 3
    assert len(enumerate_quandles(4)) == 7


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_naive_oracle(n):
    ours = enumerate_quandles(n)
    oracle = naive_quandle_classes(n)
    assert len(ours) == len(oracle)
    # bijective matching: each oracle class hits exactly one of ours
    matches = []
    for table in oracle:
        hits = [
            i
            for i, q in enumerate(ours)
            if find_isomorphism(FiniteQuandle(table), q) is not None
        ]
        assert len(hits) == 1
        matches.append(hits[0])
    assert sorted(matches) == list(range(len(ours)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_orbit_oracle(n):
    # The oracle has no symmetry breaking at row 0 and dedupes by full orbits.
    assert [q.table for q in enumerate_quandles(n)] == orbit_quandle_classes(n)


def test_enumeration_output_is_canonical_and_valid():
    for n in (3, 4, 5, 6):
        for q in enumerate_quandles(n):
            assert verify_axioms(q.table).ok
            assert canonical_table(q) == q.table


def _assert_reps_pairwise_nonisomorphic(n, rng):
    # Each class against a seeded relabeling of every class of its order:
    # only a class and its own relabeling may be joined by a map, and the
    # map the search returns must be a bijective homomorphism.
    qs = enumerate_quandles(n)
    relabeled = [FiniteQuandle(relabeled_table(q.table, rng.sample(range(n), n))) for q in qs]
    for i, q in enumerate(qs):
        for j, r in enumerate(relabeled):
            f = find_isomorphism(q, r)
            if i != j:
                assert f is None, (n, i, j)
            else:
                assert f is not None and is_homomorphism(f, q, r), (n, i)
                assert sorted(f) == list(range(n))


def test_enumeration_reps_pairwise_nonisomorphic():
    rng = random.Random(47)
    for n in (4, 5, 6):
        _assert_reps_pairwise_nonisomorphic(n, rng)


@pytest.mark.slow
def test_enumeration_reps_pairwise_nonisomorphic_at_order_7():
    # The 298 classes of order 7: 88,804 searches.
    _assert_reps_pairwise_nonisomorphic(7, random.Random(47))


# sha256 of the tables of enumerate_quandles(n) and of _first_tables(n),
# each table as its n * n entries in bytes, in the order returned.  They
# were recorded from the search that tried every row at every point and
# paired each new row with every placed one; pruning may not change them.
ENUMERATION_DIGESTS = {
    5: (
        "4b42228b9b90111498116a99a9c8abf37aa6e33745ffae11945f653b61acfee4",
        "152d048821c9801f3aaaf701afe54abc3999a688fedc6ed951b28e973823fa05",
    ),
    6: (
        "dc2bce13ab3ec34203645ccc00309f0b66b28a6e715043243da00b05eca18fdc",
        "8a6ec0b21b49c87f307191a2614b2fbea6a59b6c96b7305f8097eebfb5b31841",
    ),
    7: (
        "e27569ee9d4c7486f3ab9c605bebb87eaa7b0bc81c7f9d8a957d739d697fd684",
        "6604a329a4c7755b7b595e65213cfc791df62976b145db55dde388df00ee4eb7",
    ),
}


def _tables_digest(tables):
    return hashlib.sha256(b"".join(bytes(row) for table in tables for row in table)).hexdigest()


def _assert_enumeration_is_pinned(n):
    assert (
        _tables_digest(q.table for q in enumerate_quandles(n)),
        _tables_digest(_first_tables(n)),
    ) == ENUMERATION_DIGESTS[n]


@pytest.mark.parametrize("n", [5, 6])
def test_enumeration_is_pinned(n):
    _assert_enumeration_is_pinned(n)


@pytest.mark.slow
def test_enumeration_is_pinned_at_order_7():
    _assert_enumeration_is_pinned(7)


def test_enumeration_rejects_out_of_range():
    for bad in (0, 8, -1, "3"):
        with pytest.raises(InputError):
            enumerate_quandles(bad)


def _unflatten(t, n):
    return tuple(tuple(t[i : i + n]) for i in range(0, n * n, n))


def test_canonical_table_is_the_least_relabeling():
    # Every class up to order 5, a seeded sample at order 6 and trivial(6),
    # whose row-0 slice is the whole orbit, each under a random relabeling.
    rng = random.Random(61)
    order6 = [q.table for q in enumerate_quandles(6)]
    for table in SMALL_CLASSES + rng.sample(order6, 12) + [trivial(6).table]:
        n = len(table)
        relabeled = relabeled_table(table, rng.sample(range(n), n))
        assert canonical_table(relabeled) == min(relabeling_orbit(relabeled))


def random_row_of_type(rng, n, x, lengths):
    """A random permutation of 0..n-1 fixing x, with x's fixed point and
    then cycles of the given lengths on the other points."""
    others = rng.sample([v for v in range(n) if v != x], n - 1)
    row = list(range(n))
    for k in lengths:
        cycle, others = others[:k], others[k:]
        for i, v in enumerate(cycle):
            row[v] = cycle[(i + 1) % k]
    return row


def test_canonical_table_needs_q1_and_q2_only():
    # Q3 need not hold on these, but the rows are permutations fixing
    # their own point.  Rows all of type 1+2+3 make the least row 0 mix two cycle
    # lengths, which no quandle up to order 7 needs.
    rng = random.Random(73)
    tables = [[[0, 2, 1], [2, 1, 0], [0, 1, 2]]]
    tables += [[random_row_of_type(rng, 6, x, (2, 3)) for x in range(6)] for _ in range(3)]
    tables += [
        [random_row_of_type(rng, 6, x, rng.choice([(2, 3), (5,), (2, 2), (1, 4)])) for x in range(6)]
        for _ in range(3)
    ]
    for table in tables:
        assert verify_axioms(table).q2_ok
        assert canonical_table(table) == min(relabeling_orbit(table))
    for bad in ([[1, 0], [0, 1]], [[0, 0], [0, 1]]):
        with pytest.raises(InputError, match="is not a permutation fixing"):
            canonical_table(bad)


def test_least_permutation_of_each_cycle_type():
    for n in range(1, 8):
        least = {}
        for p in itertools.permutations(range(n)):
            least.setdefault(cycle_type(p), p)
        for lengths, p in least.items():
            if 1 in lengths:
                assert _least_of_type(lengths) == p


def _centralizer_in_stabilizer(p):
    """|C(p) n Stab(0)|: the product of m! k^m over the m cycles of each
    length k, with 0 taken out of the fixed points."""
    lengths = collections.Counter(cycle_type(p))
    lengths[1] -= 1
    size = 1
    for k, m in lengths.items():
        size *= math.factorial(m) * k**m
    return size


def test_orbit_slice_is_the_part_of_the_orbit_with_that_row_0():
    rng = random.Random(67)
    for table in SMALL_CLASSES:
        n = len(table)
        rows = tuple(map(tuple, relabeled_table(table, rng.sample(range(n), n))))
        orbit = relabeling_orbit(rows)
        for p in itertools.permutations(range(n)):
            if p[0] != 0:
                continue
            got = list(_orbit_slice(rows, p, _listings(p)))
            assert {_unflatten(t, n) for t in got} == {u for u in orbit if u[0] == p}
            same_type = sum(cycle_type(r) == cycle_type(p) for r in rows)
            assert len(got) == same_type * _centralizer_in_stabilizer(p)


@pytest.mark.parametrize("n, lengths", [(16, (15,)), (16, (1, 2, 3, 4, 5)), (17, (16,)), (17, (2, 3, 5, 6))])
def test_orbit_slice_on_both_sides_of_16_points(n, lengths):
    # Up to 16 points each relabeling is two translates of a flat table,
    # above 16 it is one translate per row.  These seeded random rows of
    # one type have no automorphism, so every relabeling in the slice is a
    # different table.
    rng = random.Random(n * 10 + len(lengths))
    rows = tuple(tuple(random_row_of_type(rng, n, x, lengths)) for x in range(n))
    p = _least_of_type(cycle_type(rows[0]))
    got = list(_orbit_slice(rows, p, _listings(p)))
    assert len(set(got)) == len(got) == _slice_size(rows, p)
    assert {t[:n] for t in got} == {bytes(p)}
    canonical = canonical_table(rows)
    for _ in range(3):
        assert canonical_table(relabeled_table(rows, rng.sample(range(n), n))) == canonical


@pytest.mark.parametrize("p, root, relabelings, tables", [(13, 2, 156, 1), (16, 3, 24_576, 192), (17, 3, 272, 1)])
def test_orbit_slice_of_an_affine_quandle(p, root, relabelings, tables):
    # Every x -> u*x + b with u a unit is an automorphism of the affine
    # quandle over Z/p, so with a primitive root (13 and 17) each of the
    # p * (p - 1) relabelings of the slice gives the table back.
    rows = tuple(map(tuple, affine_table(p, root)))
    got = list(_orbit_slice(rows, rows[0], _listings(rows[0])))
    assert len(got) == _slice_size(rows, rows[0]) == relabelings
    assert {t[:p] for t in got} == {bytes(rows[0])}
    assert len(set(got)) == tables and b"".join(map(bytes, rows)) in got
    rng = random.Random(p)
    canonical = canonical_table(rows)
    for _ in range(3):
        assert canonical_table(relabeled_table(rows, rng.sample(range(p), p))) == canonical


def test_slice_size_is_the_length_of_the_slice():
    cases = 0
    for n in range(1, 7):
        for rows in _first_tables(n):
            for p in {_least_of_type(cycle_type(r)) for r in rows}:
                assert _slice_size(rows, p) == len(list(_orbit_slice(rows, p, _listings(p))))
                cases += 1
    assert cases == 210


def test_canonical_table_refuses_big_slices_before_any_work():
    for q, size in (
        (dihedral(15), 9_676_800),
        (trivial(12), 12 * math.factorial(11)),
        (from_graph(graphs.empty(6)), 12 * math.factorial(11)),
        (trivial(10), 10 * math.factorial(9)),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            canonical_table(q)
        assert time.perf_counter() - start < 1
        assert str(info.value) == f"canonical_table would compare {size} relabelings, over the bound of {CANONICAL_SLICE_CAP}"
    # 11 * 2^5 * 5! relabelings are admitted.
    assert canonical_table(dihedral(11)) == canonical_table(relabeled_table(dihedral(11).table, list(range(10, -1, -1))))


def test_canonical_table_keeps_nothing_alive():
    # Its 599,040 relabelings list 46,080 listing pairs of three small
    # objects each (26 MB, with a 169-byte index per listing).  pymalloc
    # blocks hold at most 512 bytes, so fewer than 4,000 new blocks is
    # under 2 MB of small objects.
    # (tracemalloc would measure bytes, but makes this call take 30 s.)
    q = dihedral(13)
    gc.collect()
    before = sys.getallocatedblocks()
    canonical_table(q)
    gc.collect()
    assert sys.getallocatedblocks() - before < 4000


def test_one_point():
    assert list(_orbit_slice(((0,),), (0,), _listings((0,)))) == [b"\x00"]
    assert canonical_table([[0]]) == ((0,),)
    assert [q.table for q in enumerate_quandles(1)] == [((0,),)]


def test_known_members_appear_at_their_order():
    qs3 = enumerate_quandles(3)
    assert any(find_isomorphism(q, dihedral(3)) for q in qs3)
    assert any(find_isomorphism(q, trivial(3)) for q in qs3)
    qs4 = enumerate_quandles(4)
    assert any(find_isomorphism(q, dihedral(4)) for q in qs4)


# ---------------------------------------------------------------- JSON

def test_json_round_trip():
    q = dihedral(4)
    d = quandle_to_dict(q)
    assert quandle_from_dict(d) == q
    labeled = FiniteQuandle(q.table, labels=["a", "b", "c", "d"])
    back = quandle_from_dict(quandle_to_dict(labeled))
    assert back.labels == ("a", "b", "c", "d")


def test_json_rejects_non_quandles():
    bad = {"size": 2, "table": [[1, 0], [0, 1]]}
    with pytest.raises(AxiomError):
        quandle_from_dict(bad)
    with pytest.raises(TypeError):
        quandle_from_dict(bad, unchecked=True)


def test_json_shape_errors():
    for d in (
        [],
        {"size": 2},
        {"size": "2", "table": [[0]]},
        {"size": 2, "table": [[0, 1]]},
        {"size": 1, "table": [[0]], "labels": ["a", "b"]},
        {"size": 2, "table": [[0, 1], [0, 1]], "labels": [{"a": 1}, "b"]},
        {"size": 2, "table": [[0, 1], [0, 1]], "labels": ["a", None]},
    ):
        with pytest.raises(InputError):
            quandle_from_dict(d)


def test_json_size_over_the_point_cap_is_refused_before_the_table():
    message = "^the table would have 2049 points, over the bound of 2048$"
    with pytest.raises(ResourceLimitError, match=message):
        quandle_from_dict({"size": 2049, "table": [list(range(2049))] * 2049})
    # The size is read before the table's shape.
    with pytest.raises(ResourceLimitError, match=message):
        quandle_from_dict({"size": 2049, "table": []})
    with pytest.raises(InputError, match='^"table" must be a list of 2048 rows$'):
        quandle_from_dict({"size": 2048, "table": [[0]]})


# ------------------------------------------------------------- properties

def test_random_relabelings_stay_isomorphic():
    rng = random.Random(7)
    base = from_graph(graphs.cycle(4))
    n = base.size
    for _ in range(5):
        sigma = list(range(n))
        rng.shuffle(sigma)
        inv = [0] * n
        for x, y in enumerate(sigma):
            inv[y] = x
        table = [
            [sigma[base.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)
        ]
        other = FiniteQuandle(table)
        f = find_isomorphism(base, other)
        assert f is not None
        assert is_homomorphism(f, base, other) and bijective(f)
        assert canonical_table(base) == canonical_table(other)
