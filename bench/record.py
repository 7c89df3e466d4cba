"""`run.py --all`: every workload untraced and traced, and the record file.

The record holds what later changes size their claims against: each
layer's share of each workload's traced time, the dominant layer, the
deterministic work counts (taken twice and required to repeat exactly),
the environment, and which per-layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

from workloads import WORKLOADS

# per-layer metric -> (end-to-end metrics it should move, workloads where it shows)
METRIC_MAP = (
    ("cli.import_ms", ["latency_p50_ms"], ["census", "check", "convert"]),
    ("cli.json_s", ["latency_p50_ms"], ["convert"]),
    ("core.verify_axioms.busy_s, core.verify_axioms.q3_triples", ["wall_s", "latency_p50_ms"],
     ["convert", "check", "census (predicted no change)"]),
    ("core.quandle_from_dict.busy_s", ["latency_p50_ms"], ["check", "convert"]),
    ("core.enumerate_quandles.busy_s, core.enumerate_quandles.classes",
     ["wall_s", "latency_p50_ms", "peak_rss_mb"], ["census"]),
    ("core.iter_isomorphisms.busy_s, core.iter_isomorphisms.yielded", ["wall_s", "latency_tail_ms"],
     ["symmetry", "census (torus matching)"]),
    ("permgroup.PermGroup.closure.busy_s, permgroup.PermGroup.closure.elements",
     ["wall_s", "latency_tail_ms", "peak_rss_mb"], ["symmetry"]),
    ("permgroup.PermGroup.orbits.busy_s, permgroup.PermGroup.is_abelian.busy_s", ["none predicted (small)"],
     ["check", "census"]),
    ("graphs.graph_automorphisms.busy_s, graphs.graph_automorphisms.elements", ["wall_s"], ["symmetry"]),
    ("graphs.graph_from_dict.busy_s, graphs.to_dot.busy_s", ["latency_p50_ms"], ["convert"]),
    ("constructions.from_graph.busy_s, constructions.aknn.busy_s, constructions.is_cocycle.busy_s, "
     "constructions.cocycle_extension.self_s", ["latency_p50_ms"], ["convert"]),
    ("constructions.discrete_torus.busy_s", ["wall_s"], ["census"]),
    ("analysis.property_report.busy_s, analysis.property_report.self_s", ["wall_s", "latency_p50_ms"], ["check"]),
    ("analysis.automorphism_group.busy_s, analysis.automorphism_group.elements, "
     "analysis.automorphism_group.refused", ["wall_s", "decided_share"], ["symmetry", "check"]),
    ("analysis.connected_components.busy_s, analysis.to_graph.busy_s", ["latency_p50_ms"], ["convert", "check"]),
    ("analysis.characterize.self_s, analysis.group_chain.self_s", ["wall_s"], ["symmetry"]),
    ("analysis.flat_connected_census.self_s", ["wall_s"], ["census"]),
    ("trace.overhead_share, trace.unattributed_s", ["checks on the tracer itself"], ["all"]),
)

SANDBOX = {
    "cpu_pinning": "none",
    "cache_drops": "none",
    "rss": "ru_maxrss only: wait4 rusage of each child for CLI workloads, getrusage(RUSAGE_SELF) for symmetry",
    "load": "closed loop, one client, at most one child process at a time; QUANDLES_NODE_BUDGET unset",
    "timing": "time.perf_counter around each request; wall_s is the sum over the request list",
}


def _commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _round(value):
    return round(value, 6) if isinstance(value, float) else value


def run_all(seed, seconds, path, run_workload, report, spec_names):
    e2e_names, layer_names = spec_names(0), spec_names(1)
    record = {
        "command": f"python3 bench/run.py --all --seed {seed} --seconds {seconds:g}",
        "environment": {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "sandbox": SANDBOX,
        "workloads": {},
        "metric_map": [
            {"per_layer": m, "should_move": e, "workloads": w} for m, e, w in METRIC_MAP
        ],
    }
    ok = True
    for name, w in WORKLOADS.items():
        plain = run_workload(name, seed, seconds, 0, time.perf_counter())
        report(plain, e2e_names + ["fail_share"])
        traced = run_workload(name, seed, seconds, 1, time.perf_counter())
        again = run_workload(name, seed, seconds, 1, time.perf_counter())
        report(traced, ["trace.overhead_share", "trace.unattributed_s", "trace.wall_s"])
        repeat = traced["counts"] == again["counts"]
        wall = traced["metrics"]["trace.wall_s"][0]
        shares = {layer: v / wall for layer, v in traced["layer_self_s"].items()}
        dominant = max(shares, key=shares.get)
        functions = {
            key[: -len(".self_s")]: v / wall
            for key, (v, _) in traced["metrics"].items()
            if key.endswith(".self_s") and key.count(".") >= 2
        }
        coverage = 1 - traced["metrics"]["trace.unattributed_s"][0] / wall
        print(f"  dominant layer {dominant} ({shares[dominant]:.1%} of traced time), "
              f"spans cover {coverage:.1%}, counts repeat: {repeat}")
        ok &= repeat and plain["tally"].failed == 0 and traced["tally"].failed == 0
        record["workloads"][name] = {
            "why": w.why,
            "mode": w.mode,
            "rounds": plain["rounds"],
            "requests": plain["requests"],
            "latency_tail_percentile": round(plain["tail_percentile"], 2),
            "latency_samples": plain["tally"].attempted,
            "attempted": plain["tally"].attempted,
            "failed": plain["tally"].failed,
            "failures": plain["tally"].failures + traced["tally"].failures,
            "end_to_end": {
                n: {"value": _round(v), "unit": u} for n, (v, u) in plain["metrics"].items()
            },
            "dominant_layer": dominant,
            "layer_self_share": {k: round(v, 4) for k, v in shares.items()},
            "function_self_share": {
                k: round(v, 4) for k, v in sorted(functions.items(), key=lambda kv: -kv[1]) if v >= 0.001
            },
            "span_coverage": round(coverage, 4),
            "counts": traced["counts"],
            "counts_repeat_exactly": repeat,
            "per_layer": {
                n: {"value": _round(traced["metrics"][n][0]), "unit": traced["metrics"][n][1]}
                for n in layer_names
            },
        }
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=False)
            fh.write("\n")
        print(f"record -> {path}")
    print(json.dumps({"all_correct_and_repeatable": ok}), file=sys.stderr)
    return 0 if ok else 1
