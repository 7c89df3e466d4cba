"""Benchmark of the quandles engine: four seeded closed-loop workloads.

One run:

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

builds the workload's inputs from the seed, serves them one request at a
time, checks every answer against an independent oracle and prints the
metrics, one per line, with the last line a JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics, measured the way users meet
the program: CLI workloads run each request as a ``python -m quandles``
subprocess, the library workload calls the public function in this
process.  ``--trace 1`` serves the same requests in this process twice,
untraced and then with spans around every public function of every
package module, and gives the per-layer metrics.

    python3 bench/run.py --all --seed 1 --seconds 20 --record bench/BENCH_1.json

runs every workload untraced and traced (traced twice, to check that the
work counts repeat exactly) and writes the record: layer shares, counts,
environment and the metric-to-workload map.

The program is loaded from ``src/`` of the checkout that holds this
directory; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

START = time.perf_counter()
deadline = START + 150.0  # requests not started by then count as failed
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

REQUEST_TIMEOUT_S = 60.0  # about 3x the slowest request at the defining commit
SETUP_REPEATS = 5
IMPORT_PROBES = 7
REFUSAL = re.compile(r"^error: .*\b(cap|budget)\b", re.MULTILINE)

class RequestTimeout(BaseException):
    """Raised by SIGALRM inside an in-process request that ran too long."""


@dataclass
class Result:
    status: str  # ok | refused | error | timeout | skipped
    latency: float = 0.0
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    rss_kb: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    decided: int = 0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, request, result):
        self.attempted += 1
        self.verdicts += request.verdicts
        self.latencies.append(result.latency)
        reason = _judge(request, result)
        if reason:
            self.failed += 1
            self.failures.append(f"{request.label}: {reason}")
        elif result.status != "refused":
            self.decided += request.decided(result) if request.decided else request.verdicts


def _judge(request, result):
    """None if the answer is right (or an honest refusal), else why not."""
    if result.status in ("timeout", "skipped", "error"):
        return result.status + (f": {result.stderr.strip().splitlines()[-1]}" if result.stderr.strip() else "")
    if request.argv is not None:
        if "Traceback (most recent call last)" in result.stderr:
            return "traceback"
        if result.rc == 2 and REFUSAL.search(result.stderr):
            result.status = "refused"
            return None
        return request.check(result)
    if result.status == "refused":
        return None
    return request.check(result.value)


# ------------------------------------------------------------------ children


def _child_env():
    """The caller's environment with every cap at its default and bytecode
    caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("QUANDLES_NODE_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs request subprocesses through launcher.py, one at a time."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            cwd=workdir, env=_child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, cmd, timeout=REQUEST_TIMEOUT_S):
        """Latency is fork to exit; peak RSS is the child's own, from wait4."""
        out = os.path.join(self.workdir, "child.out")
        err = os.path.join(self.workdir, "child.err")
        job = {"cmd": cmd, "cwd": self.workdir, "out": out, "err": err, "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        with open(out, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        status = "timeout" if reply["killed"] else "ok"
        return Result(status, reply["latency"], reply["rc"], stdout, stderr, rss_kb=reply["maxrss_kb"])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=REQUEST_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cli_cmd(argv):
    return [sys.executable, "-m", "quandles", *argv]


def import_probe(launcher):
    """Median start-up of a bare interpreter and of `import quandles.cli`, in ms."""
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(launcher.run([sys.executable, "-c", "pass"]).latency)
        loaded.append(launcher.run([sys.executable, "-c", "import quandles.cli"]).latency)
    return 1000 * (statistics.median(loaded) - statistics.median(bare)), 1000 * statistics.median(bare)


# ---------------------------------------------------------------- in-process


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_inprocess(fn, timeout=REQUEST_TIMEOUT_S):
    """Time fn() in this process; a ResourceLimitError is a refusal."""
    from quandles.errors import ResourceLimitError

    old = signal.signal(signal.SIGALRM, _on_alarm)
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            value = fn()
        status = "ok"
    except RequestTimeout:
        value, status = None, "timeout"
    except ResourceLimitError as exc:
        value, status = exc, "refused"
    except Exception:
        value, status = None, "error"
        err.write(traceback.format_exc())
    finally:
        latency = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return Result(status, latency, None, out.getvalue(), err.getvalue(), value)


def _cli_main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def serve(requests, how):
    """Closed loop: each request is sent after the previous one returned."""
    results = []
    for req in requests:
        if time.perf_counter() > deadline:
            results.append(Result("skipped", stderr="run deadline passed"))
            continue
        results.append(how(req))
    return results


def serve_inprocess(requests):
    import quandles
    import quandles.cli as cli

    def how(req):
        if req.argv is None:
            return run_inprocess(lambda: req.call(quandles))
        result = run_inprocess(lambda: _cli_main(cli, req.argv))
        result.rc = result.value
        return result

    results = []
    for req in requests:
        gc.collect()
        results += serve([req], how)
    return results


# -------------------------------------------------------------------- a run


def _tail(latencies):
    """The highest percentile with at least ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 10, 1)
    return ordered[k - 1], 100.0 * k / n


def _setup(workload, seed, rounds, workdir, launcher):
    """Build the inputs and warm up; repeated, and the median time is setup_s."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        requests = workload.build(seed, rounds, workdir)
        if workload.mode == "cli":
            warm = launcher.run(_cli_cmd(["census", "--max-order", "1"]))
            if warm.rc != 0:
                raise RuntimeError(f"warm-up request failed: {warm.stderr.strip()}")
        else:
            import quandles

            quandles.characterize(quandles.dihedral(3))
        times.append(time.perf_counter() - start)
    return requests, statistics.median(times)


def run_workload(workload, seed, seconds, trace, started=START):
    """One run; requests not started within 150 s of `started` count as failed."""
    from workloads import WORKLOADS

    global deadline
    deadline = started + 150.0

    w = WORKLOADS[workload]
    rounds = max(1, round(seconds / w.round_s))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    launcher = None
    try:
        launcher = Launcher(workdir)
        requests, setup_s = _setup(w, seed, rounds, workdir, launcher)
        out = {"workload": workload, "seed": seed, "rounds": rounds, "requests": len(requests)}
        if trace:
            out.update(_traced(requests, launcher))
        else:
            out.update(_untraced(w, requests, launcher))
        out["metrics"]["setup_s"] = (setup_s, "s")
        return out
    finally:
        if launcher:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(w, requests, launcher):
    if w.mode == "cli":
        results = serve(requests, lambda req: launcher.run(_cli_cmd(req.argv)))
        peak_kb = max(r.rss_kb for r in results)
    else:
        results = serve_inprocess(requests)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = Tally()
    for req, res in zip(requests, results):
        tally.add(req, res)
    tail, pct = _tail(tally.latencies)
    return {
        "tally": tally,
        "tail_percentile": pct,
        "metrics": {
            "wall_s": (sum(tally.latencies), "s"),
            "latency_p50_ms": (1000 * statistics.median(tally.latencies), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "decided_share": (tally.decided / tally.verdicts, "share"),
            "fail_share": (tally.failed / tally.attempted, "share"),
        },
    }


def _traced(requests, launcher):
    import spans
    from quandles.errors import ResourceLimitError

    import_ms, interpreter_ms = import_probe(launcher)
    tally = Tally()
    plain = serve_inprocess(requests)
    for req, res in zip(requests, plain):
        tally.add(req, res)
    tracer = spans.Tracer(ResourceLimitError)
    tracer.install()
    try:
        traced = serve_inprocess(requests)
    finally:
        tracer.uninstall()
    for req, res in zip(requests, traced):
        tally.add(req, res)
    untraced_s = sum(r.latency for r in plain)
    traced_s = sum(r.latency for r in traced)
    metrics = tracer.metrics()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.interpreter_ms"] = (interpreter_ms, "ms")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "share")
    metrics["trace.unattributed_s"] = (traced_s - tracer.top_level_s, "s")
    return {"tally": tally, "metrics": metrics, "counts": tracer.counts(), "layer_self_s": tracer.layer_self_s()}


# ------------------------------------------------------------------- output


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(out, names):
    tally = out["tally"]
    print(
        f"{out['workload']}: seed {out['seed']}, {out['rounds']} round(s), "
        f"{tally.attempted} requests attempted, {tally.failed} failed"
    )
    for name, (value, unit) in sorted(out["metrics"].items()):
        if names is None or name in names:
            print(f"  {name:48s} {value:14.6f} {unit}")
    if "tail_percentile" in out:
        print(f"  latency_tail_ms is p{out['tail_percentile']:.1f} of {tally.attempted} requests")
    for line in tally.failures[:20]:
        print(f"  FAILED {line}")


def result_line(out, names):
    tally = out["tally"]
    missing = [n for n in names if n not in out["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": out["metrics"][n][0], "unit": out["metrics"][n][1]} for n in names},
    })


def spec_names(trace):
    spec = load_spec()
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--record", help="with --all: write the record JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "quandles" / "__init__.py").is_file():
        print(f"error: no quandles package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QUANDLES_NODE_BUDGET", None)

    if args.all:
        import record

        return record.run_all(args.seed, args.seconds, args.record, run_workload, report, spec_names)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    names = spec_names(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(out, None)
    print(result_line(out, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
