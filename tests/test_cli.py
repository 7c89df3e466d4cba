import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import aknn, analysis, dihedral, from_graph, graphs, quandle_to_dict, trivial
from quandles.cli import _dump, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_construct_oriented_planes(capsys):
    code, out, _ = run(capsys, "construct", "aknn", "2", "4")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 12
    assert data["table"][0][2] == 3


def test_construct_dihedral_one_is_trivial(capsys):
    code, out, _ = run(capsys, "construct", "dihedral", "1")
    assert code == 0
    assert json.loads(out)["table"] == [[0]]


def test_construct_graph_quandle(capsys, tmp_path):
    gpath = write_json(tmp_path, "k2.json", {"vertices": 2, "edges": [[0, 1]]})
    code, out, _ = run(capsys, "construct", "graph", gpath)
    assert code == 0
    assert json.loads(out)["table"] == [
        [0, 1, 3, 2],
        [0, 1, 3, 2],
        [1, 0, 2, 3],
        [1, 0, 2, 3],
    ]


def test_construct_writes_file_and_summary(capsys, tmp_path):
    out_path = str(tmp_path / "q.json")
    code, out, _ = run(capsys, "construct", "torus", "3", "5", "--out", out_path)
    assert code == 0
    assert "15 points" in out and out_path in out
    assert json.loads(open(out_path).read())["size"] == 15


def test_construct_extension(capsys, tmp_path):
    qpath = write_json(tmp_path, "t2.json", quandle_to_dict(trivial(2)))
    cpath = write_json(
        tmp_path, "phi.json", {"size": 2, "modulus": 2, "values": [[0, 1], [1, 0]]}
    )
    code, out, _ = run(capsys, "construct", "extension", qpath, cpath)
    assert code == 0
    assert json.loads(out)["size"] == 4


# ------------------------------------------------------------ golden output

# Every construct kind, and from-graph, on a small input: the argv, the
# summary line printed with --out, and the JSON printed without it.  The
# input files are written into the working directory by golden_dir.
GOLDEN_BUILDS = [
    (("construct", "trivial", "2"), "trivial(2): 2 points",
     '{"size": 2, "table": [[0, 1], [0, 1]]}'),
    (("construct", "dihedral", "3"), "dihedral(3): 3 points",
     '{"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}'),
    # The summary names the parsed integer, not the text typed.
    (("construct", "dihedral", "03"), "dihedral(3): 3 points",
     '{"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}'),
    (("construct", "axis", "2"), "axis(2): 4 points",
     '{"labels": ["+e1", "-e1", "+e2", "-e2"], "size": 4, '
     '"table": [[0, 1, 3, 2], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 2, 3]]}'),
    (("construct", "aknn", "1", "3"), "aknn(1,3): 6 points",
     '{"labels": ["+(1)", "-(1)", "+(2)", "-(2)", "+(3)", "-(3)"], "size": 6, '
     '"table": [[0, 1, 3, 2, 5, 4], [0, 1, 3, 2, 5, 4], [1, 0, 2, 3, 5, 4], '
     '[1, 0, 2, 3, 5, 4], [1, 0, 3, 2, 4, 5], [1, 0, 3, 2, 4, 5]]}'),
    (("construct", "graph", "k2.json"), "graph(k2.json): 4 points",
     '{"labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], "size": 4, '
     '"table": [[0, 1, 3, 2], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 2, 3]]}'),
    (("from-graph", "k2.json"), "quandle: 4 points",
     '{"labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], "size": 4, '
     '"table": [[0, 1, 3, 2], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 2, 3]]}'),
    (("construct", "torus", "1", "3"), "torus(1,3): 3 points",
     '{"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}'),
    (("construct", "extension", "t2.json", "phi.json"), "extension(t2.json,phi.json): 4 points",
     '{"labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"], "size": 4, '
     '"table": [[0, 1, 3, 2], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 2, 3]]}'),
]

# Requests that exit 2 before printing anything, and their one stderr line.
GOLDEN_ERRORS = [
    (("construct", "dihedral"), "expected `dihedral R`, got 0 parameter(s)"),
    (("construct", "trivial", "1", "2"), "expected `trivial N`, got 2 parameter(s)"),
    (("construct", "axis"), "expected `axis N`, got 0 parameter(s)"),
    (("construct", "aknn", "2"), "expected `aknn K N`, got 1 parameter(s)"),
    (("construct", "graph"), "expected `graph FILE`, got 0 parameter(s)"),
    (("construct", "extension", "t2.json"),
     "expected `extension QUANDLE COCYCLE`, got 1 parameter(s)"),
    (("construct", "torus"), "torus needs at least one dihedral order"),
    (("construct", "trivial", "two"), "size must be integers, got 'two'"),
    (("construct", "dihedral", "x"), "order must be integers, got 'x'"),
    (("construct", "axis", "1.5"), "dimension must be integers, got '1.5'"),
    (("construct", "aknn", "2", "y"), "parameters must be integers, got 'y'"),
    (("construct", "torus", "3", "z"), "orders must be integers, got 'z'"),
    (("construct", "trivial", "0"), "size must be a positive integer, got 0"),
    (("construct", "dihedral", "0"), "order must be a positive integer, got 0"),
    (("construct", "axis", "0"), "dimension must be a positive integer, got 0"),
    (("construct", "aknn", "3", "2"), "need 1 <= k <= n, got k=3, n=2"),
    (("construct", "graph", "missing.json"),
     "[Errno 2] No such file or directory: 'missing.json'"),
    # The base quandle is read before the cocycle.
    (("construct", "extension", "missing.json", "absent.json"),
     "[Errno 2] No such file or directory: 'missing.json'"),
    (("construct", "extension", "t2.json", "absent.json"),
     "[Errno 2] No such file or directory: 'absent.json'"),
    (("from-graph", "missing.json"), "[Errno 2] No such file or directory: 'missing.json'"),
    (("check", "t2.json", "--props", "shiny"),
     "unknown property 'shiny'; choose from connected, homogeneous, flat, medial, "
     "crossed, involutive, abelian_inn"),
]


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "k2.json", {"vertices": 2, "edges": [[0, 1]]})
    write_json(tmp_path, "t2.json", quandle_to_dict(trivial(2)))
    write_json(tmp_path, "phi.json", {"size": 2, "modulus": 2, "values": [[0, 1], [1, 0]]})
    return tmp_path


@pytest.mark.parametrize("argv, summary, text", GOLDEN_BUILDS, ids=["-".join(b[0]) for b in GOLDEN_BUILDS])
def test_build_output_is_golden(argv, summary, text, capsys, golden_dir):
    assert run(capsys, *argv) == (0, text + "\n", "")
    assert run(capsys, *argv, "--out", "q.json") == (0, f"{summary} -> q.json\n", "")
    assert (golden_dir / "q.json").read_text() == text + "\n"


@pytest.mark.parametrize("argv, message", GOLDEN_ERRORS, ids=["-".join(e[0]) for e in GOLDEN_ERRORS])
def test_usage_errors_are_golden(argv, message, capsys, golden_dir):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_check_homogeneous_cycle5(capsys, tmp_path):
    q = from_graph(graphs.cycle(5))
    path = write_json(tmp_path, "qc5.json", quandle_to_dict(q))
    code, out, _ = run(capsys, "check", path, "--props", "homogeneous")
    assert code == 0
    assert "homogeneous: yes" in out


def test_check_path3_fails_homogeneity(capsys, tmp_path):
    q = from_graph(graphs.path(3))
    path = write_json(tmp_path, "qp3.json", quandle_to_dict(q))
    code, out, _ = run(capsys, "check", path, "--props", "homogeneous")
    assert code == 1
    assert "homogeneous: no" in out


def test_check_malformed_json(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "error" in err


def test_check_deeply_nested_json_is_an_input_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200_000)
    proc = subprocess.run(
        [sys.executable, "-m", "quandles", "check", str(p)],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_exhausted_recursion_or_memory_exits_2(exc, capsys, tmp_path, monkeypatch):
    from quandles import analysis

    def fail(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(analysis, "property_report", fail)
    path = write_json(tmp_path, "q.json", quandle_to_dict(dihedral(3)))
    code, out, err = run(capsys, "check", path)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_check_non_quandle_table(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"size": 2, "table": [[1, 0], [0, 1]]})
    code, _, err = run(capsys, "check", path)
    assert code == 2


def test_quandle_files_over_the_point_cap_exit_2(capsys, golden_dir):
    write_json(golden_dir, "big.json", {"size": 2049, "table": []})
    message = "error: the table would have 2049 points, over the bound of 2048\n"
    for argv in (("check", "big.json"), ("to-graph", "big.json"), ("construct", "extension", "big.json", "phi.json")):
        assert run(capsys, *argv) == (2, "", message)


def test_check_rejects_labels_that_are_not_strings(capsys, tmp_path):
    data = {"size": 2, "table": [[0, 1], [0, 1]], "labels": [{"a": 1}, 2]}
    path = write_json(tmp_path, "q.json", data)
    code, out, err = run(capsys, "check", path)
    assert code == 2 and out == ""
    assert err == 'error: "labels" must be a list of 2 strings\n'


def test_check_validates_its_arguments_before_any_work(capsys, tmp_path, monkeypatch):
    def no_analysis(*args, **kwargs):
        raise AssertionError("property_report ran")

    monkeypatch.setattr(analysis, "property_report", no_analysis)
    path = write_json(tmp_path, "q.json", quandle_to_dict(dihedral(3)))
    code, out, err = run(capsys, "check", path, "--props", "nope")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown property 'nope'; choose from ")
    # The budget is read before the file: a missing file is not reached.
    monkeypatch.setenv("QUANDLES_NODE_BUDGET", "zero")
    code, out, err = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: QUANDLES_NODE_BUDGET must be an integer")


def test_check_decides_homogeneity_above_sixteen_points(capsys, tmp_path):
    path = write_json(tmp_path, "a36.json", quandle_to_dict(aknn(3, 6)))
    code, out, _ = run(capsys, "check", path, "--props", "homogeneous")
    assert code == 0
    assert "homogeneous: yes" in out


def test_check_undecidable_homogeneity_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # The Aut search of the 40-point aknn(3,6) takes a few hundred nodes:
    # with a budget of 50 the flag is unknown, not false.
    monkeypatch.setenv("QUANDLES_NODE_BUDGET", "50")
    path = write_json(tmp_path, "a36.json", quandle_to_dict(aknn(3, 6)))
    code, out, err = run(capsys, "check", path, "--props", "homogeneous")
    assert code == 2
    assert "homogeneous: unknown" in out
    assert "budget" in err
    code, _, _ = run(capsys, "check", path, "--props", "flat")
    assert code == 0


def test_check_json_report(capsys, tmp_path):
    path = write_json(tmp_path, "q.json", quandle_to_dict(dihedral(4)))
    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["abelian_inn"] is True
    assert report["components"] == [[0, 2], [1, 3]]


def test_to_graph_octahedron(capsys, tmp_path):
    from quandles import aknn

    qpath = write_json(tmp_path, "a24.json", quandle_to_dict(aknn(2, 4)))
    dot_path = str(tmp_path / "a24.dot")
    code, out, _ = run(capsys, "to-graph", qpath, "--dot", dot_path)
    assert code == 0
    data = json.loads(out.splitlines()[-1])
    assert data["vertices"] == 6 and len(data["edges"]) == 12
    dot = open(dot_path).read()
    assert dot.startswith("graph {") and dot.count(" -- ") == 12


def test_to_graph_of_trivial_pair_fails_with_witness(capsys, tmp_path):
    qpath = write_json(tmp_path, "t2.json", quandle_to_dict(trivial(2)))
    code, _, err = run(capsys, "to-graph", qpath)
    assert code == 1
    assert "component" in err


def test_from_graph_empty(capsys, tmp_path):
    gpath = write_json(tmp_path, "e3.json", {"vertices": 3, "edges": []})
    code, out, _ = run(capsys, "from-graph", gpath)
    assert code == 0
    assert json.loads(out)["table"] == [list(range(6))] * 6


def test_round_trip_through_cli(capsys, tmp_path):
    gpath = write_json(
        tmp_path, "c4.json", {"vertices": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]}
    )
    qpath = str(tmp_path / "q.json")
    code, _, _ = run(capsys, "from-graph", gpath, "--out", qpath)
    assert code == 0
    code, out, _ = run(capsys, "to-graph", qpath)
    assert code == 0
    assert json.loads(out) == json.loads(open(gpath).read())


def test_census_table(capsys):
    code, out, _ = run(capsys, "census", "--max-order", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order 1: 1 classes, 1 flat+connected (dihedral(1))"
    assert lines[2] == "order 3: 3 classes, 1 flat+connected (dihedral(3))"
    assert lines[3] == "order 4: 7 classes, 0 flat+connected"
    assert lines[4] == "order 5: 22 classes, 1 flat+connected (dihedral(5))"
    assert lines[5] == "order 6: 73 classes, 0 flat+connected"


def test_census_json_and_bounds(capsys):
    code, out, _ = run(capsys, "census", "--max-order", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert rows[2]["classes"] == 3
    assert rows[2]["flat_connected"] == [{"torus": [3]}]
    code, out, _ = run(capsys, "census", "--max-order", "7")
    assert code == 0
    assert out.splitlines()[-1] == "order 7: 298 classes, 1 flat+connected (dihedral(7))"
    code, _, _ = run(capsys, "census", "--max-order", "8")
    assert code == 2


def test_failed_cross_check_is_a_one_line_error(capsys, monkeypatch):
    # A VerificationError means a bug; it exits 2 with an error: line, not
    # 1 (reserved for a false property) and not a traceback.
    from quandles import analysis

    monkeypatch.setattr(analysis, "_matching_torus", lambda canonical: None)
    code, out, err = run(capsys, "census", "--max-order", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "matches no odd torus" in err
    assert len(err.splitlines()) == 1


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "construct", "aknn", "2", "4")
    _, second, _ = run(capsys, "construct", "aknn", "2", "4")
    assert first == second


def test_node_budget_env_is_validated(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QUANDLES_NODE_BUDGET", "zero")
    path = write_json(tmp_path, "q.json", quandle_to_dict(dihedral(3)))
    code, _, err = run(capsys, "check", path)
    assert code == 2
    monkeypatch.setenv("QUANDLES_NODE_BUDGET", "100000")
    code, _, _ = run(capsys, "check", path)
    assert code == 0


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "quandles", "census", "--max-order", "1"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "order 1" in proc.stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every request pays for what the CLI imports; these two cost more
    # than the whole package.  Modules the interpreter loaded at start-up
    # are not the package's doing.
    code = (
        "import sys; before = set(sys.modules); import quandles.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_without_site_loads_neither_typing_nor_dataclasses():
    # With site switched off (python -S) nothing but the package can have
    # loaded them.  json and argparse import re, so re is not checked.
    code = (
        "import sys, quandles.cli; "
        "assert not {'typing', 'dataclasses'} & set(sys.modules), sorted(sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr


def test_test_oracles_import_nothing_from_the_package():
    # tests/helpers.py is the independent side of every oracle check, so
    # even with the package on the path it loads no quandles module.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import helpers; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'quandles'))"
    )
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, tests], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ------------------------------------------------------------- JSON writer

JSON_KEYS = st.sampled_from(["table", "size", "labels", "\"", "é"]) | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(JSON_KEYS, inner, max_size=4)
    ),
    max_leaves=12,
)
ROWS = st.lists(st.integers(0, 300), max_size=6) | st.tuples(st.integers(), st.integers()) | JSON_VALUES
ITEM_LISTS = st.lists(ROWS, max_size=1) | st.lists(ROWS, max_size=5) | st.tuples(ROWS, ROWS)
# Objects whose values are often lists: a table's rows, a graph's edges.
DOCUMENTS = st.dictionaries(JSON_KEYS, ITEM_LISTS | JSON_VALUES, max_size=5)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS | JSON_VALUES)
def test_dump_is_sorted_key_json_dumps(data):
    assert _dump(data) == json.dumps(data, sort_keys=True)


def test_writing_a_table_holds_one_row_at_a_time():
    # json.dumps holds one str per token on Python 3.11, about 12 times
    # the output here; writing row by row holds little beyond the output.
    q = aknn(4, 9)
    tracemalloc.start()
    try:
        text = _dump(quandle_to_dict(q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps(quandle_to_dict(q), sort_keys=True)
    assert peak < 2 * len(text)


def test_writing_a_graph_holds_one_edge_at_a_time():
    # One json.dumps over a copied edge list peaked at 24 times the output.
    rng = random.Random(5)
    pairs = [(u, v) for u in range(126) for v in range(u + 1, 126)]
    g = graphs.SimpleGraph(126, rng.sample(pairs, 4786))
    tracemalloc.start()
    try:
        text = _dump(graphs.graph_to_dict(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json.dumps({"vertices": 126, "edges": [list(e) for e in g.edge_list()]}, sort_keys=True)
    assert peak < 3 * len(text)
