"""structcon benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py                                   # every workload, default seed
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):
  cli_cold       cold `python -m structcon.cli` requests, one process each
  dense_closure  in-process cross_validate on patterns whose closure is large
  random_sweep   in-process cross_validate on many small random pairs

Each run is a single closed loop: one request at a time, the next sent when
the previous one has finished, for --seconds seconds.  With --trace 0 the run
prints the end-to-end metrics, with request costs in units of a reference
probe timed through the run (reference.py), and the same figures in wall-clock
time for people; with --trace 1 it runs a fixed list of requests
once untraced and once traced and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed and metrics, whose
names and units come from BENCHMARK.json.  Run it from any directory; it reads
and writes only inside the repository checkout that holds it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import reference
import tracing  # bench/ is sys.path[0] when this file runs as a script
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

clock = tracing.clock

# Set up 5 times before the timed loop and 4 times after it, so that the
# median set-up time does not come from a single one of the host's speed
# phases (see reference.py).
SETUP_REPEATS = 9
SETUP_REPEATS_BEFORE = 5
# Times are for a 2-vCPU Xeon VM; a loop that runs out of requests wraps round.
CLI_CYCLES = 16          # ~5 s per round
CLI_TRACE_CYCLES = 2
DENSE_CYCLES = 64        # ~2.3 s per cycle
DENSE_TRACE_CYCLES = 3
SWEEP_TRACE_BLOCKS = 6   # ~0.5 s per block of 17 pairs
CLI_TIMEOUT_S = 60
PROBE_EVERY_S = 1.0      # a reference probe takes 0.12-0.22 s, so 12-18% of a run


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fresh_import(extra: tuple[str, ...] = ()) -> dict[str, Any]:
    """Import structcon from scratch (dropping any earlier import, and with it
    every lru cache) and return the package and its modules by short name."""
    for name in [m for m in sys.modules if m == "structcon" or m.startswith("structcon.")]:
        del sys.modules[name]
    mods = {"sc": importlib.import_module("structcon")}
    for name in ("algebra", "verdict", "graphs", "analysis", *extra):
        mods[name] = importlib.import_module(f"structcon.{name}")
    return mods


# ---------------------------------------------------------------------------
# workloads: how to build inputs and run one request
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    extra_imports: tuple[str, ...]
    build: Callable[[dict, int, Path, bool], list]
    execute: Callable[[dict, Any, "tracing.Tracer | None", Path], bool]
    children: bool  # peak RSS of child processes instead of this process


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _build_cli(mods: dict, seed: int, workdir: Path, traced: bool) -> list:
    cycles = CLI_TRACE_CYCLES if traced else CLI_CYCLES
    return wl.cli_cold_requests(mods["sc"], mods["cli"], ROOT, seed, workdir, cycles)


def _execute_cli(_mods: dict, req: wl.CliRequest, tracer: tracing.Tracer | None,
                 workdir: Path) -> bool:
    if tracer is None:
        cmd = [sys.executable, "-m", "structcon.cli", *req.argv]
    else:
        spans_file = workdir / "spans.json"
        spans_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(spans_file), repr(clock()),
               *req.argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    if tracer is not None:
        try:
            with open(spans_file, encoding="utf-8") as fh:
                tracer.adopt([tracing.Span.from_json(s) for s in json.load(fh)])
        except FileNotFoundError:
            return False
    return wl.check_cli(req, proc.returncode, proc.stdout)


def _build_dense(mods: dict, seed: int, _workdir: Path, traced: bool) -> list:
    return wl.dense_closure_requests(mods["sc"], seed,
                                     DENSE_TRACE_CYCLES if traced else DENSE_CYCLES)


def _build_sweep(mods: dict, seed: int, _workdir: Path, traced: bool) -> list:
    requests = wl.random_sweep_requests(mods["sc"], seed, wl.load_sweep_golden())
    if traced:
        return requests[:SWEEP_TRACE_BLOCKS * len(wl.SWEEP_KINDS)]
    return requests


def _execute_pair(mods: dict, req: wl.PairRequest, _tracer: Any, _workdir: Path) -> bool:
    report = mods["verdict"].cross_validate(req.pair, trials=req.trials, seed=req.seed)
    return wl.check_pair(req, report)


WORKLOADS = {w.name: w for w in (
    Workload("cli_cold", ("cli",), _build_cli, _execute_cli, children=True),
    Workload("dense_closure", (), _build_dense, _execute_pair, children=False),
    Workload("random_sweep", (), _build_sweep, _execute_pair, children=False),
)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup(w: Workload, seed: int, workdir: Path, traced: bool) -> tuple[float, dict, list]:
    """Import structcon and build the inputs; returns the time taken."""
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()  # the previous import and inputs are garbage now; do not time their collection
    start = clock()
    mods = fresh_import(w.extra_imports)
    requests = w.build(mods, seed, workdir, traced)
    return clock() - start, mods, requests


@dataclass
class Loop:
    latencies: list[float]
    failed: int
    wall: float
    midpoints: list[float] = field(default_factory=list)
    speed: reference.Speedometer | None = None

    def normalised(self) -> list[float]:
        """Each request's latency in reference units: divided by the duration
        of the reference probe around it (see reference.py)."""
        if self.speed is None:
            raise RuntimeError("this loop took no reference samples")
        return [lat / self.speed.local(mid) for lat, mid in zip(self.latencies, self.midpoints)]


def closed_loop(w: Workload, mods: dict, requests: list, workdir: Path, seconds: float | None,
                tracer: tracing.Tracer | None = None,
                speed: reference.Speedometer | None = None) -> Loop:
    """Send requests one at a time: for `seconds`, cycling through the list,
    but at least two requests so that percentiles exist, or through the list
    exactly once when seconds is None.  With a speedometer, the reference
    probe runs before the first request, after any request that ends
    PROBE_EVERY_S or more after the last probe's midpoint, and after the last
    request; it is not part of any latency."""
    latencies: list[float] = []
    midpoints: list[float] = []
    failed = 0
    if speed is not None:
        for _ in range(speed.window):
            speed.sample()
    gc.collect()
    start = clock()
    for k in range(len(requests) if seconds is None else sys.maxsize):
        req = requests[k % len(requests)]
        t0 = clock()
        if tracer is None:
            ok = w.execute(mods, req, None, workdir)
        else:
            tracer.request = k
            with tracer.span("request", t0):
                ok = w.execute(mods, req, tracer, workdir)
        t1 = clock()
        latencies.append(t1 - t0)
        midpoints.append((t0 + t1) / 2.0)
        failed += not ok
        if speed is not None and t1 - speed.times[-1] >= PROBE_EVERY_S:
            speed.sample()
        if seconds is not None and k >= 1 and clock() - start >= seconds:
            break
    if speed is not None:
        for _ in range(speed.window // 2):
            speed.sample()
    return Loop(latencies, failed, clock() - start, midpoints, speed)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end_metrics(setup_times: list[float], loop: Loop, rss_mb: float
                       ) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count).  Request costs are in reference units."""
    norm = loop.normalised()
    n = len(norm)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "requests_per_kref": (1000.0 * n / sum(norm), n),
        "request_p50_ref": (statistics.median(norm), n),
        "request_p90_ref": (p90(norm), n),
        "peak_rss_mb": (rss_mb, 1),
    }


def wall_clock_metrics(loop: Loop) -> dict[str, tuple[float, int, str]]:
    """The same run in plain wall-clock terms, printed for people; these move
    with the host's speed phases (reference.py), so they are not gated."""
    lat = loop.latencies
    n = len(lat)
    ref = loop.speed.durations if loop.speed is not None else [0.0]
    return {
        "wall.requests_per_s": (n / sum(lat), n, "1/s"),
        "wall.request_p50_ms": (statistics.median(lat) * 1000.0, n, "ms"),
        "wall.request_p90_ms": (p90(lat) * 1000.0, n, "ms"),
        "wall.reference_ms": (statistics.median(ref) * 1000.0, len(ref), "ms"),
        "wall.reference_range": ((max(ref) - min(ref)) / statistics.median(ref), len(ref),
                                 "ratio"),
    }


def run_end_to_end(w: Workload, seed: int, seconds: float, workdir: Path
                   ) -> tuple[dict[str, tuple[float, int]], dict[str, tuple[float, int, str]], int,
                              int]:
    setup_times = []
    for _ in range(SETUP_REPEATS_BEFORE):
        elapsed, mods, requests = setup(w, seed, workdir, traced=False)
        setup_times.append(elapsed)
    speed = reference.Speedometer(clock)
    loop = closed_loop(w, mods, requests, workdir, seconds, speed=speed)
    rss_mb = peak_rss_mb(w.children)
    for _ in range(SETUP_REPEATS - SETUP_REPEATS_BEFORE):
        setup_times.append(setup(w, seed, workdir, traced=False)[0])
    metrics = end_to_end_metrics(setup_times, loop, rss_mb)
    tail = metrics["request_p90_ref"][0]
    beyond = sum(1 for x in loop.normalised() if x > tail)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond the 90th percentile", file=sys.stderr)
    return metrics, wall_clock_metrics(loop), len(loop.latencies), loop.failed


def run_traced(w: Workload, seed: int, workdir: Path
               ) -> tuple[dict[str, tuple[float, int]], int, int, Path]:
    """The fixed request list untraced twice, then traced, each pass after a
    fresh import so that all pay the same lazy set-up.  The first pass only
    warms the process: the first pass of a process ran up to 10% slower."""
    passes = []
    for _ in range(2):
        _, mods, requests = setup(w, seed, workdir, traced=True)
        passes.append(closed_loop(w, mods, requests, workdir, None))
    _, mods, requests = setup(w, seed, workdir, traced=True)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mods)
    try:
        traced = closed_loop(w, mods, requests, workdir, None, tracer)
    finally:
        restore()
    dump = WORK / f"trace-{w.name}-seed{seed}.json"
    dump.write_text(json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8")
    n = len(requests)
    values = tracing.layer_metrics(tracer.spans, traced.wall / passes[-1].wall)
    passes.append(traced)
    attempted = sum(len(p.latencies) for p in passes)
    return {k: (v, n) for k, v in values.items()}, attempted, sum(p.failed for p in passes), dump


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def result_line(metrics: dict[str, tuple[float, int]], declared: list[dict],
                attempted: int, failed: int) -> dict:
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from the declared {names}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in declared}}


def print_summary(workload: str, metrics: dict[str, tuple[float, int]], declared: list[dict],
                  attempted: int, failed: int, extra: dict[str, tuple[float, int, str]]) -> None:
    rows = {m["name"]: (*metrics[m["name"]], m["unit"]) for m in declared}
    for name, (value, samples, unit) in {**rows, **extra}.items():
        print(f"{workload:<14} {name:<32} {value:>14.6g} {unit:<6} n={samples}")
    print(f"{workload:<14} {'failed_ratio':<32} {failed / attempted:>14.6g} {'ratio':<6} "
          f"n={attempted}")


def run_one(name: str, seed: int, seconds: float, trace: bool, decl: dict) -> dict:
    w = WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            metrics, attempted, failed, dump = run_traced(w, seed, workdir)
            declared, extra = decl["per_layer"], {}
            print(f"spans written to {dump}", file=sys.stderr)
        else:
            metrics, extra, attempted, failed = run_end_to_end(w, seed, seconds, workdir)
            declared = decl["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_summary(name, metrics, declared, attempted, failed, extra)
    return result_line(metrics, declared, attempted, failed)


def main(argv: list[str] | None = None) -> int:
    decl = declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=decl["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "structcon" / "__init__.py").is_file():
        print(f"error: no structcon sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace), decl)))
        return 0

    # one process per workload, so that no workload inherits another's caches or RSS
    combined, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            continue
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
