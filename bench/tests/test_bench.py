"""Tests of the benchmark itself: inputs, output checks, tracing arithmetic
and the metric declaration.  Run with `python -m pytest bench/tests -q`."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import structcon
import reference
import run
import tracing
import workloads as wl
from structcon.verdict import OracleReport, Report, Verdict

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pair_fingerprint(req: wl.PairRequest):
    return ([repr(b) for b in req.pair.drift.bases], [str(b) for b in req.pair.control.bases],
            req.trials, req.seed, req.expected_dims, req.expected_verdict)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def test_in_process_inputs_repeat_for_a_seed():
    for build in (lambda s: wl.dense_closure_requests(structcon, s, 2),
                  lambda s: wl.random_sweep_requests(structcon, s, wl.load_sweep_golden())):
        first = [_pair_fingerprint(r) for r in build(5)]
        assert first == [_pair_fingerprint(r) for r in build(5)]
        assert first != [_pair_fingerprint(r) for r in build(6)]


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    import structcon.cli as cli

    def build(seed, name):
        workdir = tmp_path / name
        reqs = wl.cli_cold_requests(structcon, cli, ROOT, seed, workdir, 2)
        argvs = [tuple(a.replace(str(workdir), "W") for a in r.argv) for r in reqs]
        files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
        return argvs, files, [(r.golden, r.sparse_dim, r.target) for r in reqs]

    assert build(3, "a") == build(3, "b")
    assert build(3, "a")[1] != build(4, "c")[1]
    argvs = build(3, "a")[0]
    assert len(argvs) == 2 * (len(wl.BUNDLED_SPECS) * len(wl.CLI_COMMANDS) + len(wl.SPARSE_KINDS))


@pytest.mark.parametrize("family", sorted(wl.SPARSE_SHAPES))
def test_sparse_shapes_have_the_stated_dimension(family):
    for shape in wl.SPARSE_SHAPES[family]:
        pair = wl.sparse_pair(structcon, family, 6, shape, dict(zip("abcd", (5, 2, 6, 1))), -3)
        report = structcon.cross_validate(pair, trials=wl.SPARSE_TRIALS, seed=1)
        assert report.verdict is Verdict.NECESSARY_FAILED_NO
        assert report.oracle.dimensions == (shape[4],) * wl.SPARSE_TRIALS, shape


@pytest.mark.parametrize("scenario", ["dense_su", "gl_cycle", "su_path"])
def test_dense_scenarios_reach_the_full_algebra(scenario):
    rng = random.Random(2)
    for n in (4, 5):
        pair = wl.dense_pair(structcon, rng, scenario, n)
        report = structcon.cross_validate(pair, trials=2, seed=rng.randrange(1000))
        assert report.oracle.dimensions == (pair.kind.dimension,) * 2


def test_relabelled_sweep_pairs_match_the_golden():
    golden = wl.load_sweep_golden()
    for req in wl.random_sweep_requests(structcon, 9, golden)[:36]:
        report = structcon.cross_validate(req.pair, trials=req.trials, seed=req.seed)
        assert wl.check_pair(req, report)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_changed_cli_stdout_fails():
    golden = b"Verdict: ExactYes\n"
    req = wl.CliRequest(("check", "x.json"), golden=golden)
    assert wl.check_cli(req, 0, golden)
    assert not wl.check_cli(req, 0, golden.replace(b"Exact", b"Sufficient"))
    assert not wl.check_cli(req, 0, golden + b"\n")
    assert not wl.check_cli(req, 3, golden)


def test_wrong_sparse_report_fails():
    req = wl.CliRequest(("report", "x.json", "--json"), sparse_dim=3, target=255)
    good = {"verdict": "NecessaryFailedNo", "contradiction": False,
            "oracle": {"target": 255, "dimensions": [3] * wl.SPARSE_TRIALS}}
    assert wl.check_cli(req, 0, json.dumps(good).encode())
    wrong_dim = dict(good, oracle={"target": 255, "dimensions": [3] * 7 + [2]})
    assert not wl.check_cli(req, 0, json.dumps(wrong_dim).encode())
    assert not wl.check_cli(req, 0, json.dumps(dict(good, contradiction=True)).encode())
    assert not wl.check_cli(req, 0, b"not json")


def _report(verdict, dims, target, contradiction=False):
    orc = OracleReport(len(dims), tuple(dims), target, target in dims, 0)
    return Report(verdict, (), orc, contradiction, "")


def test_wrong_dimension_or_contradiction_fails():
    req = wl.PairRequest(None, 2, 0, (35, 35))
    assert wl.check_pair(req, _report(Verdict.INCONCLUSIVE, (35, 35), 35))
    assert not wl.check_pair(req, _report(Verdict.INCONCLUSIVE, (35, 34), 35))
    assert not wl.check_pair(req, _report(Verdict.INCONCLUSIVE, (35, 35), 35, contradiction=True))


def test_unconfirmed_yes_and_changed_verdict_fail():
    req = wl.PairRequest(None, 2, 0, (6, 6), "SufficientYes")
    assert not wl.check_pair(req, _report(Verdict.SUFFICIENT_YES, (6, 6), 8))
    req = wl.PairRequest(None, 2, 0, (8, 8), "SufficientYes")
    assert wl.check_pair(req, _report(Verdict.SUFFICIENT_YES, (8, 8), 8))
    assert not wl.check_pair(req, _report(Verdict.INCONCLUSIVE, (8, 8), 8))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    S = tracing.Span
    spans = [S("a", 0.0, 10.0), S("b", 1.0, 4.0, 0), S("c", 5.0, 9.0, 0), S("d", 2.0, 3.0, 1),
             # overlapping children count once; a child is clipped to its parent
             S("e", 20.0, 30.0), S("f", 21.0, 25.0, 4), S("g", 24.0, 26.0, 4),
             S("h", 40.0, 45.0), S("i", 44.0, 47.0, 7)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0, 5.0, 4.0, 2.0, 4.0, 3.0])
    r = tracing.rollup(spans)
    assert (r["a"].calls, r["a"].total, r["a"].self_time) == (1, 10.0, 3.0)


def test_reentry_into_the_same_span_name_is_not_recorded():
    tracer = tracing.Tracer()

    def depth(k):
        return 0 if k == 0 else 1 + wrapped(k - 1)

    wrapped = tracer.wrap("layer", depth)
    assert wrapped(3) == 3
    assert [s.name for s in tracer.spans] == ["layer"]


def test_install_records_layers_and_restores():
    mods = {name: sys.modules[f"structcon.{name}"]
            for name in ("algebra", "verdict", "graphs", "analysis")}
    verdict = mods["verdict"]
    original = verdict.check
    pair = wl.dense_pair(structcon, random.Random(0), "su_path", 5)
    expected = verdict.cross_validate(pair, trials=2, seed=4)

    tracer = tracing.Tracer()
    restore = tracing.install(tracer, mods)
    try:
        assert verdict.cross_validate(pair, trials=2, seed=4) == expected
    finally:
        restore()
    assert verdict.check is original
    m = tracing.layer_metrics(tracer.spans, 1.0)
    assert m["verdict.check_calls"] == 1
    assert m["verdict.oracle_trials"] == 2 and m["verdict.oracle_full_trials"] == 2
    assert m["algebra.final_dim_sum"] == 2 * 24
    assert m["algebra.closure_runs"] >= 1 and m["algebra.closure_rank_gain"] > 0
    assert m["patterns.sample_drift_calls"] == 2
    assert m["graphs.build_calls"] >= 2 and m["analysis.calls"] >= 1


# ---------------------------------------------------------------------------
# the metric declaration
# ---------------------------------------------------------------------------


def fake_speedometer(ends: list[float], durations: list[float], window: int
                     ) -> reference.Speedometer:
    """A speedometer whose probes end at the given clock readings and report
    the given durations."""
    clock, probe = iter(ends).__next__, iter(durations).__next__
    speed = reference.Speedometer(clock, probe, window)
    for _ in ends:
        speed.sample()
    return speed


def test_reference_task_repeats():
    assert reference.task() == reference.RANK == 30
    assert reference.child_process() > 0


def test_speedometer_uses_the_samples_nearest_in_time():
    speed = fake_speedometer([2.0, 4.0, 6.0, 8.0, 10.0, 12.0], [0.2, 0.4, 0.6, 0.8, 1.0, 1.8], 3)
    assert speed.times == pytest.approx([1.9, 3.8, 5.7, 7.6, 9.5, 11.1])  # the probes' midpoints
    assert speed.local(0.0) == 0.4       # samples 0-2
    assert speed.local(5.0) == 0.6       # samples 1-3
    assert speed.local(100.0) == 1.0     # samples 3-5


def test_latencies_are_normalised_by_the_local_reference():
    speed = fake_speedometer([1.0, 3.0], [0.5, 2.0], 1)
    loop = run.Loop([1.0, 1.0, 3.0], 0, 10.0, [0.0, 4.0, 9.0], speed)
    assert loop.normalised() == [2.0, 0.5, 1.5]
    e2e = run.end_to_end_metrics([0.1], loop, 20.0)
    assert e2e["requests_per_kref"] == (1000.0 * 3 / 4.0, 3)
    assert e2e["request_p50_ref"] == (1.5, 3)


def test_every_reported_metric_is_declared():
    speed = fake_speedometer([1.0], [0.01], 7)
    loop = run.Loop([0.01 * k for k in range(1, 30)], 0, 1.0, [0.0] * 29, speed)
    e2e = run.end_to_end_metrics([0.1, 0.2, 0.3], loop, 20.0)
    assert sorted(e2e) == sorted(m["name"] for m in DECLARED["end_to_end"])
    layers = tracing.layer_metrics([], 1.0)
    assert sorted(layers) == sorted(m["name"] for m in DECLARED["per_layer"])
    line = run.result_line(e2e, DECLARED["end_to_end"], 29, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    with pytest.raises(RuntimeError):
        run.result_line({k: v for k, v in e2e.items() if k != "setup_s"},
                        DECLARED["end_to_end"], 29, 0)


def test_declaration_follows_the_benchmark_format():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    for m in metrics:
        assert name.match(m["name"]) and unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    for m in DECLARED["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_run_fails_without_structcon_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dense_closure",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_short_run_prints_declared_metrics():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           "dense_closure", "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED["end_to_end"])
    assert "failed_ratio" in proc.stdout
