import itertools
import math
import random

import pytest

from quandles import InputError, PermGroup, Permutation, ResourceLimitError, compose
from quandles import dihedral, direct_product, from_graph, graphs, inner_group, trivial
from quandles.permgroup import (
    _noncommuting_pair,
    group_from_dict,
    group_to_dict,
    perm_from_list,
    perm_to_list,
)

from helpers import first_noncommuting_rows


def rows_of(q):
    return [Permutation(r) for r in q.table]


def test_compose_with_identity():
    p = Permutation((2, 0, 1))
    assert compose(p, Permutation.identity(3)) == p
    assert compose(Permutation.identity(3), p) == p


def test_transposition_squares_to_identity():
    t = Permutation((1, 0, 2))
    assert compose(t, t).is_identity()


def test_composition_of_dihedral3_reflections():
    s0, s1 = rows_of(dihedral(3))[:2]
    assert s0.images == (0, 2, 1) and s1.images == (2, 1, 0)
    # s0 after s1 advances every point by one; the other order by two
    assert compose(s0, s1).images == (1, 2, 0)
    assert compose(s1, s0).images == (2, 0, 1)


def test_validation_errors():
    with pytest.raises(InputError):
        Permutation((0, 0, 2))
    with pytest.raises(InputError):
        compose(Permutation((1, 0)), Permutation((0, 1, 2)))
    with pytest.raises(InputError):
        PermGroup(3, [Permutation((1, 0))])


def test_inverse_and_cycle_type():
    p = Permutation((1, 2, 0, 4, 3))
    assert compose(p, p.inverse()).is_identity()
    assert p.cycle_type() == (2, 3)
    assert Permutation.identity(4).cycle_type() == (1, 1, 1, 1)


# ------------------------------------------------------------------ closure

def test_empty_generating_set_gives_trivial_group():
    g = PermGroup(4)
    assert g.order() == 1
    assert g.closure() == (Permutation.identity(4),)


def test_inner_group_orders_of_dihedrals():
    assert inner_group(dihedral(4)).order() == 4
    assert inner_group(dihedral(3)).order() == 6


def test_closure_cap_is_an_error():
    gens = rows_of(dihedral(3))
    with pytest.raises(ResourceLimitError, match="6 elements, above the closure cap 2"):
        PermGroup(3, gens).closure(cap=2)


def test_closure_is_closed_and_divides_factorial():
    gens = rows_of(dihedral(5))
    g = PermGroup(5, gens)
    elements = g.closure()
    assert math.factorial(5) % len(elements) == 0
    element_set = set(elements)
    for p in gens:
        assert p in element_set
    for a in elements:
        for b in elements:
            assert compose(a, b) in element_set


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


def test_order_and_membership_match_sympy():
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup

    rng = random.Random(71)
    for degree, gens in random_generator_sets(rng):
        g = PermGroup(degree, gens)
        oracle = PermutationGroup([SymPerm(list(p)) for p in gens] or [SymPerm(list(range(degree)))])
        assert g.order() == oracle.order(), (degree, gens)
        probes = [tuple(rng.sample(range(degree), degree)) for _ in range(10)]
        for _ in range(10):
            p = tuple(range(degree))
            for q in rng.choices(gens, k=4) if gens else []:
                p = tuple(q[i] for i in p)
            probes.append(p)
        for p in probes:
            assert (Permutation(p) in g) == oracle.contains(SymPerm(list(p))), (degree, gens, p)
    assert Permutation((1, 0)) not in PermGroup(3)
    assert (1, 0, 2) not in PermGroup(3, [(1, 0, 2)])


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
        perms = [
            Permutation(tuple(rng.sample(range(degree), degree))) for _ in range(3)
        ]
        full = PermGroup(degree, perms).orbits()
        sub = PermGroup(degree, perms[:2]).orbits()
        lookup = {}
        for i, block in enumerate(full):
            for x in block:
                lookup[x] = i
        for block in sub:
            assert len({lookup[x] for x in block}) == 1


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
    assert PermGroup(4, [Permutation((1, 2, 3, 0))]).is_abelian()


def test_dihedral3_inner_group_is_not_abelian():
    assert not inner_group(dihedral(3)).is_abelian()


def test_generator_check_agrees_with_materialized_check():
    rng = random.Random(23)
    for _ in range(25):
        degree = rng.randint(1, 5)
        gens = [
            Permutation(tuple(rng.sample(range(degree), degree)))
            for _ in range(rng.randint(0, 3))
        ]
        g = PermGroup(degree, gens)
        elements = g.closure()
        full = all(
            compose(a, b) == compose(b, a)
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


# ------------------------------------------------------------- serialization

def test_serialization_round_trip():
    g = inner_group(dihedral(4))
    d = group_to_dict(g)
    assert d["degree"] == 4
    back = group_from_dict(d)
    assert back.closure() == g.closure()
    p = Permutation((2, 0, 1))
    assert perm_from_list(perm_to_list(p)) == p
    with pytest.raises(InputError):
        perm_from_list([0, "1"])
    with pytest.raises(InputError):
        group_from_dict({"degree": 2})
