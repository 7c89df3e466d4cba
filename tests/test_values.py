"""Value semantics of the package's record types.

Each record is built positionally and by keyword with its defaults,
compares and hashes by class and fields (quandles and graphs ignore
their display labels), prints as Name(field=value, ...) or a short
summary, refuses assignment, and validates its input with fixed
messages.
"""

import copy
import pickle

import pytest

from quandles import (
    AxiomReport,
    Characterization,
    CocycleCheck,
    CocycleTable,
    FiniteQuandle,
    GraphReconstruction,
    GroupChain,
    InputError,
    OrderCensus,
    PermGroup,
    PropertyReport,
    SimpleGraph,
    dihedral,
    from_graph,
    group_chain,
    is_homomorphism,
    to_graph,
    trivial,
)
from quandles.analysis import CensusSurvivor

CHAIN = group_chain(dihedral(3))
GROUPS = (CHAIN.displacement, CHAIN.even_inner, CHAIN.inner, CHAIN.aut)
T1 = trivial(1)
PROPS = (True, None, False, True, False, True, False, ((0, 1), (2,)))
P2 = SimpleGraph(2, [(0, 1)])
IDENTITY4 = (0, 1, 2, 3)

# class, field names, two argument tuples differing in one field, repr of the first
RECORDS = [
    (
        AxiomReport,
        ("q1_ok", "q2_ok", "q3_ok", "first_violation"),
        (True, False, True, ("Q2", (0, 0, 1))),
        (True, False, True, ("Q2", (0, 0, 2))),
        "AxiomReport(q1_ok=True, q2_ok=False, q3_ok=True, first_violation=('Q2', (0, 0, 1)))",
    ),
    (
        CocycleCheck,
        ("ok", "witness"),
        (False, ("diagonal", (0,))),
        (False, ("diagonal", (1,))),
        "CocycleCheck(ok=False, witness=('diagonal', (0,)))",
    ),
    (
        PropertyReport,
        (
            "connected",
            "homogeneous",
            "flat",
            "medial",
            "crossed",
            "involutive",
            "abelian_inn",
            "components",
            "witnesses",
        ),
        PROPS + ({"crossed": (0, 2)},),
        PROPS + ({"crossed": (1, 2)},),
        "PropertyReport(connected=True, homogeneous=None, flat=False, medial=True, "
        "crossed=False, involutive=True, abelian_inn=False, components=((0, 1), (2,)), "
        "witnesses={'crossed': (0, 2)})",
    ),
    (
        Characterization,
        (
            "components_size_two",
            "crossed",
            "homogeneous",
            "graph",
            "relabeling",
            "graph_vertex_transitive",
        ),
        (False, True, None, None, None, None),
        (False, True, False, None, None, None),
        "Characterization(components_size_two=False, crossed=True, homogeneous=None, "
        "graph=None, relabeling=None, graph_vertex_transitive=None)",
    ),
    (
        GroupChain,
        ("displacement", "even_inner", "inner", "aut", "orders"),
        GROUPS + ((3, 3, 6, 6),),
        GROUPS + ((3, 3, 6, 7),),
        "GroupChain(displacement=PermGroup(degree=3, generators=3), "
        "even_inner=PermGroup(degree=3, generators=3), "
        "inner=PermGroup(degree=3, generators=3), "
        "aut=PermGroup(degree=3, generators=2), orders=(3, 3, 6, 6))",
    ),
    (
        CensusSurvivor,
        ("quandle", "torus_orders"),
        (T1, (1,)),
        (T1, (3,)),
        "CensusSurvivor(quandle=FiniteQuandle(size=1), torus_orders=(1,))",
    ),
    (
        OrderCensus,
        ("order", "class_count", "survivors"),
        (1, 1, (CensusSurvivor(T1, (1,)),)),
        (1, 2, (CensusSurvivor(T1, (1,)),)),
        "OrderCensus(order=1, class_count=1, "
        "survivors=(CensusSurvivor(quandle=FiniteQuandle(size=1), torus_orders=(1,)),))",
    ),
    (
        FiniteQuandle,
        ("table", "labels"),
        (((0, 2, 1), (2, 1, 0), (1, 0, 2)), ("a", "b", "c")),
        (((0, 1, 2), (0, 1, 2), (0, 1, 2)), ("a", "b", "c")),
        "FiniteQuandle(size=3)",
    ),
    (
        SimpleGraph,
        ("vertex_count", "edges", "labels"),
        (3, frozenset({(0, 1)}), ("x", "y", "z")),
        (3, frozenset({(1, 2)}), ("x", "y", "z")),
        "SimpleGraph(vertices=3, edges=1)",
    ),
    (
        CocycleTable,
        ("modulus", "values"),
        (3, ((0, 1), (2, 0))),
        (3, ((0, 1), (1, 0))),
        "CocycleTable(base_size=2, modulus=3)",
    ),
    (
        GraphReconstruction,
        ("graph", "relabeling"),
        (P2, IDENTITY4),
        (P2, (1, 0, 2, 3)),
        "GraphReconstruction(graph=SimpleGraph(vertices=2, edges=1), relabeling=(0, 1, 2, 3))",
    ),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, fields, args, other, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, args, other, text):
    a = cls(*args)
    b = cls(**dict(zip(fields, args)))
    assert a == b
    assert tuple(getattr(a, f) for f in fields) == args


@pytest.mark.parametrize("cls, fields, args, other, text", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(cls, fields, args, other, text):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != args
    if cls is PropertyReport:  # a dict field makes it unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        compared = cls._compared or fields
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in compared))


def test_records_with_equal_fields_differ_across_classes():
    assert CocycleCheck(True, None) != AxiomReport(True, None, None)
    assert CocycleCheck(True) != CensusSurvivor(True, None)
    assert GraphReconstruction(P2, IDENTITY4) != (P2, IDENTITY4)


def test_quandles_and_graphs_compare_without_their_labels():
    table = trivial(2).table
    pairs = [
        (FiniteQuandle(table, ("a", "b")), FiniteQuandle(table)),
        (SimpleGraph(2, [(0, 1)], ("u", "v")), P2),
    ]
    for labelled, plain in pairs:
        assert labelled == plain and hash(labelled) == hash(plain)
        assert labelled.labels and plain.labels is None
        assert {labelled: 1}[plain] == 1


def test_quandle_size_is_read_off_the_table():
    q = dihedral(5)
    assert q.size == len(q.table) == 5
    with pytest.raises(AttributeError):
        q.size = 6


def test_graph_reconstruction_unpacks_but_is_no_tuple():
    r = to_graph(from_graph(P2))
    graph, relabeling = r
    assert (graph, relabeling) == (r.graph, r.relabeling)
    assert list(r) == [graph, relabeling]
    for use in (lambda: r[0], lambda: len(r)):
        with pytest.raises(TypeError):
            use()
    for name in ("_asdict", "_replace"):
        assert not hasattr(r, name)


@pytest.mark.parametrize("cls, fields, args, other, text", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, fields, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, fields, args, other, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args, other, text):
    a = cls(*args)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(a, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert cls(*args) == a


@pytest.mark.parametrize("cls, fields, args, other, text", RECORDS, ids=IDS)
def test_copies_and_pickles_keep_class_and_fields(cls, fields, args, other, text):
    a = cls(*args)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls
        assert repr(b) == text
        assert b == a and tuple(getattr(b, f) for f in fields) == args


def test_defaults():
    assert AxiomReport(True, True, True).first_violation is None
    assert CocycleCheck(True).witness is None
    c = Characterization(True, True, None)
    assert c.graph is None and c.relabeling is None and c.graph_vertex_transitive is None
    a, b = PropertyReport(*PROPS), PropertyReport(*PROPS)
    assert a.witnesses == {} and a.witnesses is not b.witnesses


def test_sequences_are_stored_as_tuples():
    assert PermGroup(2, [[1, 0]]).generators == ((1, 0),)
    assert CocycleTable(2, [[0, 1], [1, 0]]).values == ((0, 1), (1, 0))
    assert to_graph(from_graph(P2)).relabeling == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PermGroup(2, [[0, 0]]), "not a permutation of 0..1: (0, 0)"),
        (lambda: PermGroup(2, [(1, 2)]), "not a permutation of 0..1: (1, 2)"),
        (lambda: PermGroup(2, [(True, False)]), "not a permutation of 0..1: (True, False)"),
        (lambda: PermGroup(3, [b"\x01\x00"]), "generator degree 2 does not match group degree 3"),
        (lambda: is_homomorphism([0], trivial(2), trivial(2)), "1 images for domain of size 2"),
        (lambda: is_homomorphism([0, 2], trivial(2), trivial(2)), "image of 1 is 2, out of range"),
        (lambda: is_homomorphism([True], T1, T1), "image of 0 is True, out of range"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message
