import copy
import itertools
import pickle
import random

import pytest

from quandles import InputError, PermGroup
from quandles import aknn, dihedral, direct_product, discrete_torus, from_graph, graphs, group_chain, inner_group, trivial
from quandles.permgroup import _cycle_type, _cycles, _gather, _Kernel, _noncommuting_pair
from quandles.search import _find, _unite

from helpers import closure_by_products, conjugate, cycle_type, first_noncommuting_rows, union_find_orbits


def plain_inverse(images):
    inv = [0] * len(images)
    for x, y in enumerate(images):
        inv[y] = x
    return tuple(inv)


def kernel_inverse(images):
    """The images of the inverse, as the kernel's scatter(a, ident) gives them."""
    kernel = _Kernel(len(images))
    return tuple(kernel.scatter(kernel.embed(images), kernel.ident)[: len(images)])


def kernel_product(a, b):
    """The images of a o b, as the kernel's gather(b, a) gives them."""
    kernel = _Kernel(len(a))
    return tuple(kernel.gather(kernel.embed(b), kernel.embed(a))[: len(a)])


def test_compose_with_identity():
    p, e = (2, 0, 1), tuple(range(3))
    assert kernel_product(p, e) == p
    assert kernel_product(e, p) == p


def test_transposition_squares_to_identity():
    t = (1, 0, 2)
    assert kernel_product(t, t) == (0, 1, 2)


def test_composition_of_dihedral3_reflections():
    s0, s1 = dihedral(3).table[:2]
    assert s0 == (0, 2, 1) and s1 == (2, 1, 0)
    # s0 after s1 advances every point by one; the other order by two
    assert kernel_product(s0, s1) == (1, 2, 0)
    assert kernel_product(s1, s0) == (2, 0, 1)


def test_validation_errors():
    with pytest.raises(InputError, match=r"not a permutation of 0\.\.2: \(0, 0, 2\)"):
        PermGroup(3, [(0, 0, 2)])
    with pytest.raises(InputError, match="generator degree 2 does not match group degree 3"):
        PermGroup(3, [(1, 0)])


def test_inverse_and_cycle_type():
    p = (1, 2, 0, 4, 3)
    assert kernel_product(p, kernel_inverse(p)) == tuple(range(5))
    assert _cycle_type(p) == (2, 3)
    assert _cycle_type(tuple(range(4))) == (1, 1, 1, 1)
    rng = random.Random(29)
    for n in range(0, 12):
        for _ in range(10):
            images = tuple(rng.sample(range(n), n))
            inv = kernel_inverse(images)
            assert all(inv[images[x]] == x for x in range(n))
            assert _cycle_type(images) == cycle_type(images)


def test_cycles_are_read_from_their_smallest_points_in_order():
    assert _cycles(()) == []
    assert _cycles((0,)) == [(0,)]
    assert _cycles((3, 2, 1, 4, 0, 5)) == [(0, 3, 4), (1, 2), (5,)]
    rng = random.Random(31)
    for n in range(0, 12):
        for _ in range(10):
            images = tuple(rng.sample(range(n), n))
            cycles = _cycles(images)
            assert sorted(x for c in cycles for x in c) == list(range(n))
            assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
            for c in cycles:
                assert all(images[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))


# itemgetter with one index returns a scalar and with none fails, so the
# tuple product serves only above 256 points; the kernel at degrees 0
# and 1 takes the bytes form.
@pytest.mark.parametrize("n", [0, 1, 2, 3, 257])
def test_tuple_product_at_every_degree(n):
    rng = random.Random(n)
    for _ in range(5):
        a, b = (tuple(rng.sample(range(n), n)) for _ in range(2))
        assert kernel_product(a, b) == tuple(a[x] for x in b)
        if n > 256:
            kernel = _Kernel(n)
            assert kernel.gather(b, a) == _gather(b, a) == kernel.after(b)(a)


@pytest.mark.parametrize(
    "images",
    [(1.0, 0), [0, "1"], (True, False), [0, None], ((0,), 1), [[0], 1]],
)
def test_permutation_rejects_non_integer_images(images):
    with pytest.raises(InputError, match="not a permutation of 0..1"):
        PermGroup(2, [images])
    assert images not in PermGroup(2, [(1, 0)])


def test_every_generator_is_checked_before_duplicates_are_dropped():
    # A bool row equal to an int row is refused in either order.
    for gens in ([(1, 0), (True, False)], [(True, False), (1, 0)]):
        with pytest.raises(InputError, match="not a permutation of 0..1"):
            PermGroup(2, gens)


def test_permutation_accepts_int_subclass_images():
    import enum

    class Point(enum.IntEnum):
        A = 0
        B = 1

    group = PermGroup(2, [(Point.B, Point.A)])
    assert group.generators == ((1, 0),) and group.order() == 2
    assert (Point.B, Point.A) in group and [1, 0] in group


def test_generators_of_every_sequence_type_give_one_group():
    """Tuples, lists, bytes and IntEnum rows are the same generators."""
    import enum

    rows = dihedral(6).table
    Point = enum.IntEnum("Point", [f"P{x}" for x in range(6)], start=0)
    groups = [
        PermGroup(6, rows),
        PermGroup(6, [list(r) for r in rows]),
        PermGroup(6, [bytes(r) for r in rows]),
        PermGroup(6, [[Point(y) for y in r] for r in rows]),
    ]
    for group in groups:
        assert group.generators == tuple(dict.fromkeys(rows))
        assert group.order() == 6 and group.orbits() == ((0, 2, 4), (1, 3, 5))
        assert group == groups[0]


def test_membership_takes_image_sequences():
    group = inner_group(dihedral(5))
    # s_2 of dihedral(5) as a tuple, a list and bytes; a transposition
    # is odd, so it lies outside the dihedral group of order 10.
    for s2 in ((4, 3, 2, 1, 0), [4, 3, 2, 1, 0], bytes((4, 3, 2, 1, 0))):
        assert s2 in group
    assert (1, 0, 2, 3, 4) not in group
    assert all(g in group for g in group.generators)


@pytest.mark.parametrize(
    "candidate",
    [
        (0, 0, 2, 3, 4),  # not a bijection
        (0, 1, 2, 3, 5),  # out of range
        (0, 1, 2, 3),  # wrong degree
        (0, 1, 2, 3, 4, 5),  # wrong degree
        (0.0, 1, 2, 3, 4),  # not ints
        (False, True, 2, 3, 4),  # bools
        "01234",  # a string of digits
        7,  # no sequence
        None,
    ],
)
def test_non_permutations_are_not_members(candidate):
    assert candidate not in inner_group(dihedral(5))
    assert candidate not in PermGroup(5)


@pytest.mark.parametrize("degree", [-1, True, False, 2.0, "3", None])
def test_group_degree_must_be_a_nonnegative_integer(degree):
    with pytest.raises(InputError, match="group degree must be a nonnegative integer"):
        PermGroup(degree)


# ------------------------------------------------------------------- order

def test_empty_generating_set_gives_trivial_group():
    g = PermGroup(4)
    assert g.order() == 1
    assert closure_by_products(4, g.generators) == {tuple(range(4))}
    assert PermGroup(0).order() == 1


def test_inner_group_orders_of_dihedrals():
    assert inner_group(dihedral(4)).order() == 4
    assert inner_group(dihedral(3)).order() == 6


def random_generator_sets(rng):
    """(degree, generators) of degree <= 12: the trivial group, S_n,
    random sets (mostly A_n or S_n), and intransitive and imprimitive
    groups, where membership is not decided by parity."""
    cases = [
        (1, []),
        (6, []),
        (12, [tuple(range(12))]),
        (12, [(1, 0) + tuple(range(2, 12)), tuple(range(1, 12)) + (0,)]),
    ]
    for _ in range(12):
        degree = rng.randint(1, 12)
        cases.append((degree, [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(1, 3))]))
    for _ in range(12):
        degree = rng.randint(2, 12)
        moved = rng.sample(range(degree), rng.randint(2, degree))
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            for x, y in zip(moved, rng.sample(moved, len(moved))):
                images[x] = y
            gens.append(tuple(images))
        cases.append((degree, gens))
    for _ in range(12):
        size, count = rng.choice([(2, 3), (2, 4), (3, 3), (2, 6), (3, 4), (4, 3), (2, 5)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            blocks = rng.sample(range(count), count)
            inside = [rng.sample(range(size), size) for _ in range(count)]
            gens.append(tuple(blocks[b] * size + inside[b][i] for b in range(count) for i in range(size)))
        cases.append((size * count, gens))
    return cases


def symmetric_from_two(n):
    """S_n from a transposition and an n-cycle."""
    return n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def large_generator_sets(rng):
    """Cases for the paths the small sets miss: the tuple form above 256
    points, S_30 and S_40 from two generators, and seeded sets whose
    stabilizer chains gain several strong generators at one level."""
    cases = [
        # The dihedral group of order 600, and Z_13 x Z_20 acting regularly
        # on its elements, (a, b) at 20a + b.
        (300, [tuple(range(1, 300)) + (0,), tuple((-x) % 300 for x in range(300))]),
        (260, [tuple((x + 20) % 260 for x in range(260)), tuple(x - x % 20 + (x + 1) % 20 for x in range(260))]),
        symmetric_from_two(30),
        symmetric_from_two(40),
    ]
    for _ in range(6):
        degree = rng.randint(8, 14)
        cases.append((degree, [tuple(rng.sample(range(degree), degree)) for _ in range(2)]))
    return cases


def residue_counts(group):
    """Per level of the stabilizer chain, how many of its strong generators
    are residues found by Schreier-Sims rather than input generators."""
    kernel, chain = group._stabilizer_chain()
    given = {kernel.embed(g) for g in group.generators}
    return [sum(s not in given for s in level.gens) for level in chain]


def test_order_and_membership_match_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup

    rng = random.Random(71)
    cases = random_generator_sets(rng) + large_generator_sets(random.Random(73))
    # The rows of two quandles, most of them redundant as generators.
    cases += [(q.size, list(q.table)) for q in (discrete_torus((3, 3, 5)), aknn(3, 6))]
    resumed = 0
    for degree, gens in cases:
        g = PermGroup(degree, gens)
        oracle = PermutationGroup([SymPerm(list(p)) for p in gens] or [SymPerm(list(range(degree)))])
        assert g.order() == oracle.order(), (degree, gens)
        resumed += max(residue_counts(g), default=0) >= 2
        probes = [tuple(rng.sample(range(degree), degree)) for _ in range(10)]
        for _ in range(10):
            p = tuple(range(degree))
            for q in rng.choices(gens, k=4) if gens else []:
                p = tuple(q[i] for i in p)
            probes.append(p)
        for p in probes:
            assert (p in g) == oracle.contains(SymPerm(list(p))), (degree, gens, p)
    # Some chains gained two or more strong generators at one level, so
    # checking resumed there after each with only the untested pairs.
    assert resumed >= 3
    assert (1, 0) not in PermGroup(3)
    assert (1, 0, 2) in PermGroup(3, [(1, 0, 2)]) and (0, 2, 1) not in PermGroup(3, [(1, 0, 2)])


def test_redundant_generators_are_not_kept_as_strong_generators():
    # Each generator is sifted into the chain built so far, so rows that
    # the earlier rows already give are dropped: Inn(R_255) needs 2 of its
    # 255 rows, and the elementary abelian Inn of Q(J(9,4)) keeps
    # log2 |Inn| = 56 of 126 distinct rows.
    cases = [
        (inner_group(dihedral(255)), 2),
        (inner_group(aknn(3, 6)), 6),
        (inner_group(from_graph(graphs.johnson(9, 4))), 56),
    ]
    for group, kept in cases:
        chain = group._stabilizer_chain()[1]
        assert len({s for level in chain for s in level.gens}) == kept
    assert cases[2][0].order() == 2**56


# 256 points and fewer take the bytes encoding, more the tuple one.
@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300])
def test_kernel_inverse_matches_the_tuple_inverse(n):
    kernel = _Kernel(n)
    rng = random.Random(n)
    for images in (tuple(range(n)), tuple(range(1, n)) + (0,), tuple(rng.sample(range(n), n))):
        a = kernel.embed(images)
        inv = kernel.scatter(a, kernel.ident)
        assert type(inv) is (bytes if n <= 256 else tuple)
        assert inv == kernel.embed(plain_inverse(images))
        assert kernel.gather(inv, a) == kernel.gather(a, inv) == kernel.ident


# Degrees 0..256 take the bytes form, 257 and 300 the tuple form.
@pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 300])
def test_gather_and_scatter_match_plain_comprehensions(n):
    kernel = _Kernel(n)
    rng = random.Random(100 + n)
    for _ in range(5):
        a, b = (tuple(rng.sample(range(n), n)) for _ in range(2))
        sa, sb = kernel.embed(a), kernel.embed(b)
        product = kernel.gather(sb, sa)
        assert type(product) is type(kernel.ident) and len(product) == len(kernel.ident)
        assert tuple(product[:n]) == tuple(a[b[z]] for z in range(n))
        quotient = kernel.scatter(sb, sa)
        assert type(quotient) is type(kernel.ident) and len(quotient) == len(kernel.ident)
        b_inverse = plain_inverse(b)
        assert tuple(quotient[:n]) == tuple(a[b_inverse[x]] for x in range(n))
        assert all(quotient[b[z]] == a[z] for z in range(n))
        assert kernel.scatter(sa, kernel.ident) == kernel.embed(plain_inverse(a))
        assert kernel.scatter(sb, kernel.gather(sa, sb)) == kernel.embed(conjugate(a, b))
    assert kernel.gather(kernel.ident, kernel.ident) == kernel.scatter(kernel.ident, kernel.ident) == kernel.ident


def disjoint_short_cycles(rng, degree, count):
    """A permutation of degree points made of count disjoint cycles of
    length 2 to 4 on seeded points."""
    images = list(range(degree))
    points = rng.sample(range(degree), 4 * count)
    for k in range(count):
        cycle = points[4 * k : 4 * k + rng.randint(2, 4)]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            images[x] = y
    return tuple(images)


def tuple_form_groups():
    """(degree, generators) above 256 points whose groups are small: Inn of
    dihedral(257), of order 514, and seeded products of disjoint short
    cycles at 257 and 300 points.  (S_n would take sympy minutes there.)"""
    rng = random.Random(257)
    cases = [(257, list(inner_group(dihedral(257)).generators))]
    for degree in (257, 300):
        cases += [(degree, [disjoint_short_cycles(rng, degree, 3) for _ in range(2)]) for _ in range(2)]
    return cases


def test_tuple_form_orders_and_membership_match_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup

    rng = random.Random(300)
    orders = []
    for degree, gens in tuple_form_groups():
        group = PermGroup(degree, gens)
        orders.append(group.order())
        assert group._stabilizer_chain()[0].ident == tuple(range(degree))
        # One sympy group serves order and membership, as in sympy_order.
        oracle = PermutationGroup([SymPerm(list(g)) for g in gens])
        assert orders[-1] == oracle.order(), (degree, gens)
        probes = [tuple(rng.sample(range(degree), degree))]
        for _ in range(10):
            p = tuple(range(degree))
            for g in rng.choices(gens, k=4):
                p = tuple(g[x] for x in p)
            probes += [p, (p[1], p[0]) + p[2:]]
        for p in probes:
            assert (p in group) == oracle.contains(SymPerm(list(p))), (degree, p)
    assert orders[0] == 514


def chain_groups():
    """Groups whose chains come from Schreier-Sims and from a known base,
    on both encodings."""
    rng = random.Random(79)
    out = [PermGroup(*symmetric_from_two(9)), PermGroup(*large_generator_sets(rng)[1])]
    for degree in (12, 258):
        shift = tuple((x + 2) % degree for x in range(degree))
        swap = tuple(x ^ 1 for x in range(degree))
        out.append(PermGroup._from_base(degree, (0, 1), [shift, swap]))
    return out


def test_chain_levels_store_one_element_per_orbit_point():
    for group in chain_groups():
        kernel, chain = group._stabilizer_chain()
        assert chain
        for level in chain:
            assert list(level.transversal) == level.orbit
            for p, w in level.transversal.items():
                assert type(w) is type(kernel.ident) and len(w) == len(kernel.ident)
                assert sorted(w) == list(range(len(w)))
                assert w[p] == level.point
                assert w[: group.degree] in group


def test_chains_above_256_points_survive_pickle_and_deepcopy():
    degree, gens = large_generator_sets(random.Random(73))[0]
    group = PermGroup(degree, gens)
    assert group.order() == 600
    rotation = gens[0]
    for twin in (copy.deepcopy(group), pickle.loads(pickle.dumps(group))):
        kernel, chain = twin._chain
        assert kernel.degree == degree and kernel.ident == tuple(range(degree))
        assert kernel.scatter(kernel.embed(gens[0]), kernel.ident) == plain_inverse(gens[0])
        assert twin.order() == 600 and len(chain) == len(group._chain[1])
        assert kernel_product(rotation, rotation) in twin
        assert (1, 0) + tuple(range(2, degree)) not in twin


def test_groups_refuse_assignment_and_deletion():
    group = inner_group(dihedral(5))
    order = group.order()
    for name in ("degree", "generators", "_base", "_chain"):
        with pytest.raises(AttributeError):
            setattr(group, name, getattr(group, name))
        with pytest.raises(AttributeError):
            delattr(group, name)
    assert group.order() == order and group.orbits() == ((0, 1, 2, 3, 4),)


def test_groups_compare_as_the_group_they_generate():
    s3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    same = PermGroup(3, [(0, 2, 1), (2, 1, 0), (1, 2, 0)])
    assert s3 == same and hash(s3) == hash(same)
    cyclic = PermGroup(3, [(1, 2, 0)])
    assert cyclic != s3 and s3 != cyclic
    # Same order, different group: two transpositions of S_3.
    assert PermGroup(3, [(1, 0, 2)]) != PermGroup(3, [(0, 2, 1)])
    assert PermGroup(3) != PermGroup(4) and PermGroup(3) == PermGroup(3, [(0, 1, 2)])
    assert s3 != s3.generators
    chain = group_chain(dihedral(3))
    for twin in (group_chain(dihedral(3)), copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
        assert twin == chain and hash(twin) == hash(chain)


# ------------------------------------------------------------------- orbits

def test_no_generators_gives_singleton_orbits():
    assert PermGroup(4).orbits() == ((0,), (1,), (2,), (3,))


def test_dihedral4_orbits():
    assert inner_group(dihedral(4)).orbits() == ((0, 2), (1, 3))


def test_fiber_orbits_of_complete2_quandle():
    q = from_graph(graphs.complete(2))
    assert inner_group(q).orbits() == ((0, 1), (2, 3))


def test_orbits_refine_under_generator_removal():
    rng = random.Random(11)
    degree = 7
    for _ in range(20):
        perms = [tuple(rng.sample(range(degree), degree)) for _ in range(3)]
        full = PermGroup(degree, perms).orbits()
        sub = PermGroup(degree, perms[:2]).orbits()
        lookup = {}
        for i, block in enumerate(full):
            for x in block:
                lookup[x] = i
        for block in sub:
            assert len({lookup[x] for x in block}) == 1


def test_orbits_match_a_union_find():
    """Seeded generator sets, each generator a random permutation of a
    random subset of the points, so the blocks vary in number and size.
    The search's incremental union-find, which skips fixed points, must
    give the same blocks."""
    rng = random.Random(19)
    for degree in (0, 1, 9, 257, 300):
        for _ in range(12):
            gens = []
            for _ in range(rng.randrange(4)):
                moved = rng.sample(range(degree), rng.randrange(degree + 1))
                images = list(range(degree))
                for x, y in zip(moved, rng.sample(moved, len(moved))):
                    images[x] = y
                gens.append(tuple(images))
            expected = union_find_orbits(degree, gens)
            assert PermGroup(degree, gens).orbits() == expected
            parent = list(range(degree))
            for g in gens:
                _unite(parent, g)
            blocks = {}
            for x in range(degree):
                blocks.setdefault(_find(parent, x), []).append(x)
            assert tuple(sorted(map(tuple, blocks.values()))) == expected


# ------------------------------------------------------------- transitivity

def test_transitivity():
    assert PermGroup(1).is_transitive()
    assert not PermGroup(2).is_transitive()
    assert inner_group(dihedral(5)).is_transitive()
    assert not inner_group(dihedral(4)).is_transitive()
    with pytest.raises(InputError):
        PermGroup(0).is_transitive()


# --------------------------------------------------------------- abelianness

def test_single_generator_is_abelian():
    assert PermGroup(4, [(1, 2, 3, 0)]).is_abelian()


def test_dihedral3_inner_group_is_not_abelian():
    assert not inner_group(dihedral(3)).is_abelian()


def test_generator_check_agrees_with_materialized_check():
    rng = random.Random(23)
    for _ in range(25):
        degree = rng.randint(1, 5)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randint(0, 3))]
        g = PermGroup(degree, gens)
        elements = closure_by_products(degree, gens)
        full = all(
            tuple(a[x] for x in b) == tuple(b[x] for x in a)
            for a, b in itertools.combinations(elements, 2)
        )
        assert g.is_abelian() == full


# 255 points take the bytes row encoding, 258 the tuple one.
@pytest.mark.parametrize("k", [85, 86])
def test_noncommuting_rows_on_both_row_encodings(k):
    q = direct_product(dihedral(3), trivial(k))
    assert _noncommuting_pair(q.table) == first_noncommuting_rows(q.table) == (0, k)
    assert not inner_group(q).is_abelian()
    # Graph quandles have abelian inner groups.
    graph_quandle = from_graph(graphs.cycle(3 * k // 2))
    assert _noncommuting_pair(graph_quandle.table) is None
    assert inner_group(graph_quandle).is_abelian()
