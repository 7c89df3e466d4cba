"""The four benchmark workloads: seeded requests and their oracles.

A workload is a list of rounds.  Every round has the same composition
(the same request kinds at the same input sizes), and only the seeded
content changes: random edges, relabelings, which of two equal-size
parameter sets is used.  So the same seed gives the same inputs, two
seeds give the same amount of work, and no input repeats within a run.

Each request carries an oracle that checks the program's answer by a
route that does not go through the package (``families`` and networkx).
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from dataclasses import dataclass

import families as F

PROPERTY_NAMES = (
    "connected",
    "homogeneous",
    "flat",
    "medial",
    "crossed",
    "involutive",
    "abelian_inn",
)


@dataclass
class Request:
    """One closed-loop request.

    A CLI request has ``argv`` (arguments after ``python -m quandles``); a
    library request has ``call(Q) -> summary``.  ``check(result)`` returns
    None when the answer is right and a one-line reason otherwise, and
    ``verdicts`` is how many decided answers the request asks for.
    """

    label: str
    verdicts: int
    check: object
    argv: list | None = None
    call: object = None
    decided: object = None  # result -> number of verdicts that came back decided


@dataclass
class Workload:
    name: str
    why: str
    mode: str  # "cli" or "library"
    round_s: float  # one round's serving time at the commit that defined the benchmark
    build: object  # (seed, rounds, workdir) -> list[Request]


def _rng(seed, workload, round_index):
    return random.Random(f"{seed}/{workload}/{round_index}")


def _write(workdir, name, data):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------- graph oracle


@functools.lru_cache(maxsize=None)
def graph_aut(n, edges, *, transitivity_only=False):
    """(|Aut(G)|, vertex-transitive) by networkx VF2 along a stabilizer chain.

    |Aut| is the product over v of the orbit of v under the pointwise
    stabilizer of the vertices before it; each orbit member is found by a
    mark-preserving isomorphism test, so no automorphism list is built.
    With transitivity_only, only the orbit of vertex 0 is computed and
    the order is None.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    def marked(marks):
        g = nx.Graph()
        g.add_nodes_from((v, {"mark": marks.get(v)}) for v in range(n))
        g.add_edges_from(edges)
        return g

    def same_mark(a, b):
        return a["mark"] == b["mark"]

    order, fixed, transitive = 1, {}, None
    for v in range(n):
        here = marked({**fixed, v: "x"})
        orbit = sum(
            1
            for w in range(n)
            if w not in fixed
            and GraphMatcher(here, marked({**fixed, w: "x"}), node_match=same_mark).is_isomorphic()
        )
        if v == 0:
            transitive = orbit == n
            if transitivity_only:
                return None, transitive
        order *= orbit
        fixed[v] = v
    return order, transitive


def graphs_isomorphic(n1, edges1, n2, edges2):
    import networkx as nx

    g1, g2 = nx.Graph(), nx.Graph()
    g1.add_nodes_from(range(n1))
    g1.add_edges_from(edges1)
    g2.add_nodes_from(range(n2))
    g2.add_edges_from(edges2)
    return nx.is_isomorphic(g1, g2)


# --------------------------------------------------------------------- census

CENSUS_COUNTS = (1, 1, 3, 7, 22, 73)  # OEIS A181769, orders 1..6
CENSUS_SURVIVORS = {1: [(1,)], 3: [(3,)], 5: [(5,)]}  # dihedral(1), (3), (5)


def _census_text():
    lines = []
    for order, count in enumerate(CENSUS_COUNTS, start=1):
        tori = CENSUS_SURVIVORS.get(order, [])
        line = f"order {order}: {count} classes, {len(tori)} flat+connected"
        if tori:
            line += " (" + ", ".join("x".join(f"dihedral({r})" for r in t) for t in tori) + ")"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _census_json():
    return [
        {
            "order": order,
            "classes": count,
            "flat_connected": [{"torus": list(t)} for t in CENSUS_SURVIVORS.get(order, [])],
        }
        for order, count in enumerate(CENSUS_COUNTS, start=1)
    ]


def _check_census(as_json):
    def check(result):
        if result.rc != 0:
            return f"exit code {result.rc}"
        if as_json:
            try:
                got = json.loads(result.stdout)
            except ValueError:
                return "stdout is not JSON"
            return None if got == _census_json() else "census JSON differs from the published counts"
        return None if result.stdout == _census_text() else "census text differs from the published counts"

    return check


def build_census(seed, rounds, workdir):
    first_json = random.Random(f"{seed}/census").random() < 0.5
    requests = []
    for r in range(rounds):
        for as_json in (first_json, not first_json):
            argv = ["census", "--max-order", "6"] + (["--json"] if as_json else [])
            requests.append(
                Request(
                    f"census {'json' if as_json else 'text'}",
                    len(CENSUS_COUNTS),
                    _check_census(as_json),
                    argv=argv,
                )
            )
    return requests


# ---------------------------------------------------------------------- check


def _graph_flags(n, edges, sigma):
    return {
        "connected": False,
        "crossed": True,
        "involutive": True,
        "flat": True,
        "medial": True,
        "abelian_inn": True,
        "components": F.components_of_graph_quandle(n, edges, sigma),
        "homogeneous": lambda: graph_aut(n, tuple(edges), transitivity_only=True)[1],
    }


def _dihedral_flags(r, sigma):
    if r % 2:
        blocks = {frozenset(sigma)}
    else:
        blocks = {frozenset(sigma[0::2]), frozenset(sigma[1::2])}
    return {
        "connected": r % 2 == 1,
        "crossed": True,
        "involutive": True,
        "flat": True,
        "medial": True,
        "abelian_inn": 4 % r == 0,
        "components": blocks,
        "homogeneous": lambda: True,
    }


def _torus_flags(size):
    return {
        "connected": True,
        "crossed": True,
        "involutive": True,
        "flat": True,
        "medial": True,
        "abelian_inn": False,
        "components": {frozenset(range(size))},
        "homogeneous": lambda: True,
    }


def _check_report(table, expected):
    """Oracle for `check --json`: closed-form flags of the input's family."""

    def check(result):
        if result.rc != 0:
            return f"exit code {result.rc}"
        try:
            got = json.loads(result.stdout)
        except ValueError:
            return "stdout is not JSON"
        if got.get("size") != len(table):
            return f"size {got.get('size')} != {len(table)}"
        for name in PROPERTY_NAMES:
            if name == "homogeneous":
                if got[name] is not None and got[name] != expected["homogeneous"]():
                    return f"homogeneous is {got[name]}"
            elif got[name] != expected[name]:
                return f"{name} is {got[name]}, expected {expected[name]}"
        blocks = {frozenset(c) for c in got["components"]}
        if blocks != expected["components"]:
            return "components differ"
        witnesses = got["witnesses"]
        for name in PROPERTY_NAMES:
            if (got[name] is False) != (name in witnesses):
                return f"witness for {name} does not match its flag"
        if "connected" in witnesses:
            a, b = witnesses["connected"]
            if any(a in blk and b in blk for blk in blocks):
                return "connected witness lies in one component"
        if "abelian_inn" in witnesses and F.rows_commute(table, *witnesses["abelian_inn"]):
            return "abelian_inn witness rows commute"
        return None

    return check


def _check_decided(result):
    if result.rc != 0:
        return 0
    try:
        return sum(v is not None for k, v in json.loads(result.stdout).items() if k in PROPERTY_NAMES)
    except ValueError:
        return 0


# Per round: 6 light requests (start-up dominated: two dihedral quandles,
# two tori, aknn(2,6), aknn(3,6)), a block of 7 alike middle ones (G(18..21),
# cycle(19..21)), a block of 5 alike heavy ones (G(25), G(26) twice,
# cycle(25), cycle(26)) and G(30).  Over three rounds the median falls in
# the middle of the middle block and the tail percentile in the middle of
# the heavy block, not on a step between unlike sizes.
CHECK_GRAPH_SIZES = (18, 19, 20, 21, 25, 26, 26, 30)
CHECK_CYCLE_SIZES = (19, 20, 21, 25, 26)
CHECK_TORI_TWO = ((3, 9), (3, 11), (3, 13), (3, 15), (3, 17), (3, 19), (5, 5), (5, 7), (5, 9), (5, 11), (7, 7))
CHECK_TORI_THREE = ((3, 3, 3), (3, 3, 5))


def build_check(seed, rounds, workdir):
    requests = []
    for r in range(rounds):
        rng = _rng(seed, "check", r)
        items = []
        for v in CHECK_GRAPH_SIZES:
            edges = F.random_graph(rng, v, rng.uniform(0.3, 0.6))
            items.append((f"graph G({v})", v, edges))
        for v in CHECK_CYCLE_SIZES:
            items.append((f"graph cycle({v})", v, F.cycle(v)))
        for k in (2, 3):
            edges, v = F.parity_difference(6, k)
            items.append((f"aknn({k},6)", v, edges))
        cases = []
        for label, v, edges in items:
            sigma = F.random_permutation(rng, 2 * v)
            table = F.relabel(F.graph_quandle_table(v, edges), sigma)
            cases.append((label, table, _graph_flags(v, edges, sigma)))
        for rd in (rng.randrange(25, 60, 2), rng.randrange(24, 61, 2)):
            sigma = F.random_permutation(rng, rd)
            cases.append((f"dihedral({rd})", F.relabel(F.dihedral_table(rd), sigma), _dihedral_flags(rd, sigma)))
        for orders in (rng.choice(CHECK_TORI_TWO), rng.choice(CHECK_TORI_THREE)):
            size = math.prod(orders)
            sigma = F.random_permutation(rng, size)
            cases.append((f"torus{orders}", F.relabel(F.torus_table(orders), sigma), _torus_flags(size)))
        rng.shuffle(cases)
        for i, (label, table, expected) in enumerate(cases):
            path = _write(workdir, f"check-{r}-{i}.json", {"size": len(table), "table": table})
            requests.append(
                Request(
                    f"check {label}",
                    len(PROPERTY_NAMES),
                    _check_report(table, expected),
                    argv=["check", path, "--json"],
                    decided=_check_decided,
                )
            )
    return requests


# -------------------------------------------------------------------- convert


def _check_table(out_path, expected_table):
    def check(result):
        if result.rc != 0:
            return f"exit code {result.rc}"
        try:
            got = _read(out_path)
        except (OSError, ValueError) as exc:
            return f"output unreadable: {exc}"
        want = expected_table()
        if got.get("size") != len(want) or got.get("table") != want:
            return "table differs from the definition"
        return None

    return check


def _dot(n, edges):
    lines = ["graph {"]
    lines += [f'  {v} [label="{{{2 * v},{2 * v + 1}}}"];' for v in range(n)]
    lines += [f"  {u} -- {v};" for u, v in edges]
    return "\n".join(lines + ["}"]) + "\n"


def _check_round_trip(paths, n, edges):
    out, dot, mapping = paths

    def check(result):
        if result.rc != 0:
            return f"exit code {result.rc}"
        try:
            graph, relabel = _read(out), _read(mapping)
            with open(dot, encoding="utf-8") as fh:
                dot_text = fh.read()
        except (OSError, ValueError) as exc:
            return f"output unreadable: {exc}"
        if graph != {"vertices": n, "edges": [list(e) for e in edges]}:
            return "to-graph did not give back the input graph"
        if dot_text != _dot(n, edges):
            return "DOT text differs"
        if relabel != {"domain_size": 2 * n, "codomain_size": 2 * n, "images": list(range(2 * n))}:
            return "relabeling is not the identity"
        return None

    return check


CONVERT_AKNN = (((2, 10), (8, 10)), ((3, 9), (6, 9)), ((4, 9), (5, 9)))  # 90, 168, 252 points
CONVERT_GRAPH_SIZES = (45, 84, 126)  # 90, 168, 252 points
CONVERT_EXTENSIONS = ((45, 2), (56, 3), (63, 4))  # trivial base size, modulus


def build_convert(seed, rounds, workdir):
    requests = []
    for r in range(rounds):
        rng = _rng(seed, "convert", r)
        batch = []
        for size in range(3):
            k, n = rng.choice(CONVERT_AKNN[size])
            out = os.path.join(workdir, f"convert-{r}-aknn-{size}.json")
            batch.append(Request(
                f"construct aknn {k} {n}", 1,
                _check_table(out, lambda k=k, n=n: F.aknn_table(k, n)),
                argv=["construct", "aknn", str(k), str(n), "--out", out],
            ))

            v = CONVERT_GRAPH_SIZES[size]
            for verb in ("construct", "from-graph"):
                edges = F.random_graph(rng, v, rng.uniform(0.2, 0.6))
                gpath = _write(workdir, f"convert-{r}-{verb}-{size}-g.json",
                               {"vertices": v, "edges": [list(e) for e in edges]})
                out = os.path.join(workdir, f"convert-{r}-{verb}-{size}.json")
                argv = (["construct", "graph"] if verb == "construct" else ["from-graph"]) + [gpath, "--out", out]
                batch.append(Request(
                    f"{verb} graph v={v}", 1,
                    _check_table(out, lambda v=v, edges=edges: F.graph_quandle_table(v, edges)),
                    argv=argv,
                ))

            base_n, m = CONVERT_EXTENSIONS[size]
            values = [[0 if x == y else rng.randrange(m) for y in range(base_n)] for x in range(base_n)]
            qpath = _write(workdir, f"convert-{r}-ext-{size}-q.json",
                           {"size": base_n, "table": F.trivial_table(base_n)})
            cpath = _write(workdir, f"convert-{r}-ext-{size}-phi.json",
                           {"size": base_n, "modulus": m, "values": values})
            out = os.path.join(workdir, f"convert-{r}-ext-{size}.json")
            batch.append(Request(
                f"construct extension {base_n}x{m}", 1,
                _check_table(out, lambda b=base_n, m=m, values=values:
                             F.extension_table(F.trivial_table(b), m, values)),
                argv=["construct", "extension", qpath, cpath, "--out", out],
            ))

            edges = F.random_graph(rng, v, rng.uniform(0.2, 0.6), no_isolated=True)
            qpath = _write(workdir, f"convert-{r}-tograph-{size}-q.json",
                           {"size": 2 * v, "table": F.graph_quandle_table(v, edges)})
            outs = tuple(os.path.join(workdir, f"convert-{r}-tograph-{size}.{ext}")
                         for ext in ("json", "dot", "map.json"))
            batch.append(Request(
                f"to-graph v={v}", 1,
                _check_round_trip(outs, v, edges),
                argv=["to-graph", qpath, "--out", outs[0], "--dot", outs[1], "--map", outs[2]],
            ))
        rng.shuffle(batch)
        requests += batch
    return requests


# ------------------------------------------------------------------- symmetry

# Every input appears once per run; axis_quandle(4) has the same table as
# the graph quandle of complete(4), which stands for it.  The calls fall in
# three cost groups: 6 light ones (under 0.25 s), a block of 12 alike ones
# near 0.45 s (vertex-transitivity of star(9) with its hub at each vertex,
# of complete(8), and |Inn| of the cycle(13) and cycle(14) graph quandles),
# and 4 heavy ones plus the over-cap input.  The median and the tail
# percentile both fall in the middle of the block, so they do not jump
# between unlike requests from run to run.
SYMMETRY_CALLS = (
    [("characterize", spec) for spec in (("complete", 4), ("star", 6), ("star", 7), ("johnson", 4, 2))]
    + [("group_chain", spec) for spec in (("complete", 6), ("cycle", 8), ("trivial", 8))]
    + [("inner_order", ("cycle", n)) for n in (13, 14)]
)
SYMMETRY_TRANSITIVE = (("complete", 8), ("path", 12), ("johnson", 5, 2))
SYMMETRY_STAR = 9
SYMMETRY_OVER_CAP = ("empty", 6)  # graph quandle is trivial(12): |Aut| = 12! is over the element cap


def _characterize_summary(c):
    graph = None
    if c.graph is not None:
        graph = (c.graph.vertex_count, sorted(c.graph.edges))
    return (c.components_size_two, c.crossed, c.homogeneous, c.graph_vertex_transitive, graph)


def _expect_characterize(kind, n, edges):
    """Oracle for characterize on a graph quandle (no isolated vertex) or trivial(n)."""

    def check(got):
        size_two, crossed, homogeneous, graph_vt, graph = got
        if kind == "trivial":
            want = (False, True, True, None, None)
            return None if got == want else f"characterize gave {got}"
        _, transitive = graph_aut(n, tuple(edges))
        if (size_two, crossed, homogeneous, graph_vt) != (True, True, transitive, transitive):
            return f"characterize flags {got[:4]}, vertex-transitive is {transitive}"
        if graph is None or not graphs_isomorphic(graph[0], graph[1], n, edges):
            return "rebuilt graph is not isomorphic to the input graph"
        return None

    return check


def _expect_value(want):
    def check(got):
        return None if got == want() else f"got {got}, expected {want()}"

    return check


_SYMMETRY_OPS = {
    "characterize": lambda Q, q: _characterize_summary(Q.characterize(q)),
    "group_chain": lambda Q, q: Q.group_chain(q).orders,
    "inner_order": lambda Q, q: Q.inner_group(q).order(),
}


def _symmetry_input(spec):
    """(table, oracle for each op) of a trivial quandle or a graph quandle."""
    if spec[0] == "trivial":
        n = spec[1]
        return F.trivial_table(n), {
            "characterize": _expect_characterize("trivial", n, None),
            "group_chain": _expect_value(lambda: (1, 1, 1, math.factorial(n))),
            "inner_order": _expect_value(lambda: 1),
        }
    edges, n = F.named_graph(*spec)
    key = tuple(edges)
    return F.graph_quandle_table(n, edges), {
        "characterize": _expect_characterize("graph", n, edges),
        "group_chain": _expect_value(lambda: F.graph_quandle_orders(n, edges, graph_aut(n, key)[0])),
        "inner_order": _expect_value(lambda: 2 ** F.gf2_rank(F.edge_masks(n, edges))),
    }


def build_symmetry(seed, rounds, workdir):
    """Library calls on small symmetric inputs, built as package objects.

    The objects are made here, in set-up, so the timed call is the
    symmetry computation alone.  Quandles keep their natural labels: a
    random relabeling swings the automorphism search by orders of
    magnitude (group_chain on the star(6) graph quandle goes from 0.13 s to
    a node-budget refusal after 33 s), which would make the work depend on
    the seed.  The seed relabels the graphs given to is_vertex_transitive
    and orders the calls; the over-cap input always goes first, so the
    process's peak RSS does not depend on the order.
    """
    import quandles as Q

    requests = []
    for r in range(rounds):
        rng = _rng(seed, "symmetry", r)
        batch = []
        for op, spec in SYMMETRY_CALLS:
            table, oracles = _symmetry_input(spec)
            q = Q.FiniteQuandle(table)
            batch.append(Request(
                f"{op} {spec}", 1, oracles[op], call=lambda Q, q=q, op=op: _SYMMETRY_OPS[op](Q, q),
            ))
        for spec in SYMMETRY_TRANSITIVE:
            edges, n = F.named_graph(*spec)
            g = Q.SimpleGraph(n, F.relabel_edges(edges, F.random_permutation(rng, n)))
            batch.append(Request(
                f"vertex-transitive {spec}", 1,
                _expect_value(lambda n=n, key=tuple(edges): graph_aut(n, key)[1]),
                call=lambda Q, g=g: Q.graphs.is_vertex_transitive(g),
            ))
        n = SYMMETRY_STAR
        for hub in range(n):
            g = Q.SimpleGraph(n, [(min(hub, v), max(hub, v)) for v in range(n) if v != hub])
            batch.append(Request(
                f"vertex-transitive star({n}) hub {hub}", 1,
                _expect_value(lambda: graph_aut(n, tuple(F.star(n)))[1]),
                call=lambda Q, g=g: Q.graphs.is_vertex_transitive(g),
            ))
        rng.shuffle(batch)
        table, oracles = _symmetry_input(SYMMETRY_OVER_CAP)
        q = Q.FiniteQuandle(table)
        over_cap = Request(
            f"characterize {SYMMETRY_OVER_CAP} (over the element cap)", 1,
            _expect_characterize("trivial", len(table), None),
            call=lambda Q, q=q: _characterize_summary(Q.characterize(q)),
        )
        requests += [over_cap] + batch
    return requests


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            "census --max-order 6 as CLI requests; core.enumerate_quandles n! orbit de-dup is the work "
            "(ROADMAP item 4); no graphs, group closure or property scans",
            "cli", 2.45, build_census,
        ),
        Workload(
            "check",
            "check --json on 24-60-point low-symmetry quandles; analysis.property_report O(n^5) flat/medial "
            "scans dominate, Aut is refused above 16 points so homogeneity is unknown",
            "cli", 7.5, build_check,
        ),
        Workload(
            "convert",
            "construct/from-graph/to-graph on 80-300-point tables; every build and load runs the O(n^3) "
            "core.verify_axioms, plus JSON I/O; no search or group work",
            "cli", 7.3, build_convert,
        ),
        Workload(
            "symmetry",
            "in-process characterize, group_chain, inner order, vertex-transitivity on small symmetric inputs "
            "and one over-cap input; core.iter_isomorphisms listing Aut dominates; only user of closure",
            "library", 29.0, build_symmetry,
        ),
    )
}
