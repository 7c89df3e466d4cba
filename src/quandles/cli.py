"""Command-line front end.

Exit codes: 0 success (or every requested property true), 1 a requested
property or reconstruction precondition is false, 2 malformed input,
bad usage, an exceeded search or size limit, an input too deep or too large for
the recursion limit or memory, or a failed internal cross-check (a bug).
Output for fixed inputs is byte-stable: collections are sorted and
nothing is timestamped.

QUANDLES_NODE_BUDGET overrides the backtracking-node budget (default
10^5) of the automorphism search of `check`; it is the only environment
knob.  `census` runs no search (it matches tori by canonical tables) and
no longer reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, constructions, core, graphs, search
from .analysis import PROPERTY_NAMES
from .errors import (
    BadComponentSizeError,
    InputError,
    NotCrossedError,
    ResourceLimitError,
    VerificationError,
)


def _node_budget() -> int:
    raw = os.environ.get("QUANDLES_NODE_BUDGET")
    if raw is None:
        return search.DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"QUANDLES_NODE_BUDGET must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputError("QUANDLES_NODE_BUDGET must be positive")
    return value


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply to parse") from None


# json.dumps(value, sort_keys=True) without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode


def _dump(data) -> str:
    """json.dumps(data, sort_keys=True), byte for byte.

    In a dict, each list or tuple value (a table's rows, a graph's
    edges) is written one item at a time, each appended to one str that
    CPython grows in place.  On Python 3.11 json.dumps holds one str per
    token until the document is done, about 12 times the output for a
    252-point table, and a join would hold every item's text beside the
    result.
    """
    if not isinstance(data, dict):
        return _encode(data)
    text = "{"
    for i, key in enumerate(sorted(data)):
        text += (", " if i else "") + _encode(key) + ": "
        value = data[key]
        if isinstance(value, (list, tuple)):
            text += "["
            for j, item in enumerate(value):
                text += (", " if j else "") + _encode(item)
            text += "]"
        else:
            text += _encode(value)
    text += "}"
    return text


def _write_json(data, out: str | None, summary: str) -> None:
    text = _dump(data)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
        print(f"{summary} -> {out}")
    else:
        print(text)


def _load_quandle(path: str) -> core.FiniteQuandle:
    return core.quandle_from_dict(_read_json(path))


def _graph_quandle(path: str) -> core.FiniteQuandle:
    return constructions.from_graph(graphs.graph_from_dict(_read_json(path)))


def _extension(qpath: str, cpath: str) -> core.FiniteQuandle:
    base = _load_quandle(qpath)
    phi = constructions.cocycle_from_dict(_read_json(cpath))
    return constructions.cocycle_extension(base, phi)


# kind -> (usage, label, builder).  A usage ending in "..." takes one or
# more parameters.  They are integers, called label in errors, or file
# paths when label is None.  Builders look their constructions up at
# call time, so a wrapper installed on the module later is seen.
_CONSTRUCTORS = {
    "trivial": ("N", "size", lambda n: constructions.trivial(n)),
    "dihedral": ("R", "order", lambda r: constructions.dihedral(r)),
    "axis": ("N", "dimension", lambda n: constructions.axis_quandle(n)),
    "aknn": ("K N", "parameters", lambda k, n: constructions.aknn(k, n)),
    "graph": ("FILE", None, _graph_quandle),
    "torus": ("dihedral order...", "orders", lambda *rs: constructions.discrete_torus(rs)),
    "extension": ("QUANDLE COCYCLE", None, _extension),
}


def cmd_construct(args) -> int:
    kind, params = args.kind, args.params
    usage, label, build = _CONSTRUCTORS[kind]
    if usage.endswith("..."):
        if not params:
            raise InputError(f"{kind} needs at least one {usage[:-3]}")
    elif len(params) != len(usage.split()):
        raise InputError(f"expected `{kind} {usage}`, got {len(params)} parameter(s)")
    values = []
    for v in params:
        try:
            values.append(v if label is None else int(v))
        except ValueError:
            raise InputError(f"{label} must be integers, got {v!r}") from None
    q = build(*values)
    name = f"{kind}({','.join(map(str, values))})"
    _write_json(core.quandle_to_dict(q), args.out, f"{name}: {q.size} points")
    return 0


def cmd_check(args) -> int:
    requested = []
    if args.props:
        for name in args.props.split(","):
            name = name.strip()
            if name not in PROPERTY_NAMES:
                raise InputError(
                    f"unknown property {name!r}; choose from {', '.join(PROPERTY_NAMES)}"
                )
            requested.append(name)
    node_budget = _node_budget()
    q = _load_quandle(args.file)
    report = analysis.property_report(q, node_budget=node_budget)
    if args.json:
        print(_dump({"size": q.size, **report.to_dict()}))
    else:
        print(f"size: {q.size}")
        for name in PROPERTY_NAMES:
            value = getattr(report, name)
            shown = "unknown" if value is None else ("yes" if value else "no")
            line = f"{name}: {shown}"
            if name in report.witnesses:
                line += f"  (witness: {report.witnesses[name]})"
            print(line)
        print("components: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in report.components))
    for name in requested:
        value = getattr(report, name)
        if value is None:
            print(f"error: {name} could not be decided within the node budget", file=sys.stderr)
            return 2
        if not value:
            return 1
    return 0


def cmd_to_graph(args) -> int:
    q = _load_quandle(args.file)
    graph, relabeling = analysis.to_graph(q)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graphs.to_dot(graph))
        print(f"dot -> {args.dot}")
    if args.map:
        _write_json({
            "domain_size": relabeling.domain_size,
            "codomain_size": relabeling.codomain_size,
            "images": relabeling.images,
        }, args.map, "relabeling")
    summary = f"graph: {graph.vertex_count} vertices, {len(graph.edges)} edges"
    _write_json(graphs.graph_to_dict(graph), args.out, summary)
    return 0


def cmd_from_graph(args) -> int:
    q = _graph_quandle(args.file)
    _write_json(core.quandle_to_dict(q), args.out, f"quandle: {q.size} points")
    return 0


def cmd_census(args) -> int:
    rows = analysis.flat_connected_census(args.max_order)
    if args.json:
        print(_dump([
            {
                "order": row.order,
                "classes": row.class_count,
                "flat_connected": [
                    {"torus": list(s.torus_orders)} for s in row.survivors
                ],
            }
            for row in rows
        ]))
        return 0
    for row in rows:
        line = f"order {row.order}: {row.class_count} classes, {len(row.survivors)} flat+connected"
        tori = [
            "x".join(f"dihedral({r})" for r in s.torus_orders) for s in row.survivors
        ]
        if tori:
            line += " (" + ", ".join(tori) + ")"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="Construct, inspect and convert finite quandles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a quandle and emit its JSON")
    p.add_argument("kind", choices=_CONSTRUCTORS)
    p.add_argument("params", nargs="*")
    p.add_argument("--out", help="write the quandle JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="report the properties of a quandle file")
    p.add_argument("file", help="quandle JSON path, or - for stdin")
    p.add_argument("--props", help="comma-separated properties that must hold")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("to-graph", help="rebuild the graph behind a quandle")
    p.add_argument("file", help="quandle JSON path, or - for stdin")
    p.add_argument("--out", help="write the graph JSON here instead of stdout")
    p.add_argument("--dot", help="also write DOT text here")
    p.add_argument("--map", help="also write the point relabeling here")
    p.set_defaults(func=cmd_to_graph)

    p = sub.add_parser("from-graph", help="build the quandle of a graph file")
    p.add_argument("file", help="graph JSON path, or - for stdin")
    p.add_argument("--out", help="write the quandle JSON here instead of stdout")
    p.set_defaults(func=cmd_from_graph)

    p = sub.add_parser("census", help="enumerate small quandles and the flat connected ones")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--json", action="store_true", help="machine-readable table")
    p.set_defaults(func=cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotCrossedError, BadComponentSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError, ResourceLimitError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input too deep for the recursion limit", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
