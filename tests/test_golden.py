"""Golden outputs: exact bytes of answers that are byte-stable contracts.

Each string was produced by the code as it stood when the test was
written; a change to any of them is a change to the output contract.
"""

import json

from quandles import canonical_table, dihedral, enumerate_quandles, from_graph, graph_to_dict, graphs
from quandles.cli import main

from helpers import relabeled_table

# An order-6 class that fails flat, medial, crossed, involutive,
# connected and homogeneous, so every witness of `check` is exercised,
# the non-commuting products of flat and medial included.
SIX = (
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 3, 5, 4),
    (1, 2, 0, 5, 4, 3),
    (1, 2, 0, 4, 3, 5),
)


def check_json(tmp_path, capsys, table):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"size": len(table), "table": [list(r) for r in table]}))
    code = main(["check", str(path), "--json"])
    return code, capsys.readouterr().out


def test_check_json_of_a_class_that_fails_every_property(tmp_path, capsys):
    assert check_json(tmp_path, capsys, SIX) == (
        0,
        '{"abelian_inn": false, "components": [[0, 1, 2], [3, 4, 5]], "connected": false, '
        '"crossed": false, "flat": false, "homogeneous": false, "involutive": false, '
        '"medial": false, "size": 6, "witnesses": {"abelian_inn": [3, 4], "connected": [0, 3], '
        '"crossed": [0, 3], "flat": [0, 3, 0, 4], "homogeneous": [0, 3], "involutive": [3, 0], '
        '"medial": [0, 3, 0, 4]}}\n',
    )


def test_check_json_of_a_relabeled_graph_quandle(tmp_path, capsys):
    table = relabeled_table(from_graph(graphs.path(4)).table, [5, 2, 7, 0, 3, 6, 1, 4])
    assert table == [
        [0, 1, 5, 6, 4, 2, 3, 7],
        [0, 1, 2, 6, 4, 5, 3, 7],
        [7, 1, 2, 3, 4, 5, 6, 0],
        [7, 4, 2, 3, 1, 5, 6, 0],
        [0, 1, 2, 6, 4, 5, 3, 7],
        [7, 1, 2, 3, 4, 5, 6, 0],
        [7, 4, 2, 3, 1, 5, 6, 0],
        [0, 1, 5, 6, 4, 2, 3, 7],
    ]
    assert check_json(tmp_path, capsys, table) == (
        0,
        '{"abelian_inn": true, "components": [[0, 7], [1, 4], [2, 5], [3, 6]], "connected": false, '
        '"crossed": true, "flat": true, "homogeneous": false, "involutive": true, "medial": true, '
        '"size": 8, "witnesses": {"connected": [0, 1], "homogeneous": [0, 1]}}\n',
    )


def test_order_four_classes():
    assert [q.table for q in enumerate_quandles(4)] == [
        ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3)),
        ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (0, 2, 1, 3)),
        ((0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3), (1, 2, 0, 3)),
        ((0, 1, 2, 3), (0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 2, 3)),
        ((0, 1, 2, 3), (0, 1, 3, 2), (0, 3, 2, 1), (0, 2, 1, 3)),
        ((0, 1, 3, 2), (0, 1, 3, 2), (1, 0, 2, 3), (1, 0, 2, 3)),
        ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3)),
    ]


def test_canonical_tables():
    assert canonical_table(relabeled_table(dihedral(5).table, [3, 0, 4, 1, 2])) == (
        (0, 2, 1, 4, 3),
        (3, 1, 4, 0, 2),
        (4, 3, 2, 1, 0),
        (2, 4, 0, 3, 1),
        (1, 0, 3, 2, 4),
    )
    relabeled = relabeled_table(SIX, [4, 1, 5, 0, 2, 3])
    assert relabeled == [
        [0, 5, 3, 2, 1, 4],
        [0, 1, 2, 3, 4, 5],
        [3, 5, 2, 0, 1, 4],
        [2, 5, 0, 3, 1, 4],
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 3, 4, 5],
    ]
    assert canonical_table(relabeled) == SIX


def test_construct_aknn_2_4_out_file(tmp_path, capsys):
    path = tmp_path / "a24.json"
    assert main(["construct", "aknn", "2", "4", "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"aknn(2,4): 12 points -> {path}\n"
    assert path.read_text() == (
        '{"labels": ["+(1,2)", "-(1,2)", "+(1,3)", "-(1,3)", "+(1,4)", "-(1,4)", '
        '"+(2,3)", "-(2,3)", "+(2,4)", "-(2,4)", "+(3,4)", "-(3,4)"], "size": 12, "table": ['
        '[0, 1, 3, 2, 5, 4, 7, 6, 9, 8, 10, 11], [0, 1, 3, 2, 5, 4, 7, 6, 9, 8, 10, 11], '
        '[1, 0, 2, 3, 5, 4, 7, 6, 8, 9, 11, 10], [1, 0, 2, 3, 5, 4, 7, 6, 8, 9, 11, 10], '
        '[1, 0, 3, 2, 4, 5, 6, 7, 9, 8, 11, 10], [1, 0, 3, 2, 4, 5, 6, 7, 9, 8, 11, 10], '
        '[1, 0, 3, 2, 4, 5, 6, 7, 9, 8, 11, 10], [1, 0, 3, 2, 4, 5, 6, 7, 9, 8, 11, 10], '
        '[1, 0, 2, 3, 5, 4, 7, 6, 8, 9, 11, 10], [1, 0, 2, 3, 5, 4, 7, 6, 8, 9, 11, 10], '
        '[0, 1, 3, 2, 5, 4, 7, 6, 9, 8, 10, 11], [0, 1, 3, 2, 5, 4, 7, 6, 9, 8, 10, 11]]}\n'
    )


def test_from_graph_of_a_path(tmp_path, capsys):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(graph_to_dict(graphs.path(4))))
    assert main(["from-graph", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{"labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)", "(2,0)", "(2,1)", "(3,0)", "(3,1)"], '
        '"size": 8, "table": [[0, 1, 3, 2, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7], '
        '[1, 0, 2, 3, 5, 4, 6, 7], [1, 0, 2, 3, 5, 4, 6, 7], [0, 1, 3, 2, 4, 5, 7, 6], '
        '[0, 1, 3, 2, 4, 5, 7, 6], [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 5, 4, 6, 7]]}\n'
    )
