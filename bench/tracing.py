"""Spans around the calls from one structcon module into the next.

The benchmark wraps public functions where the caller looks them up (for
example ``structcon.verdict.check`` as ``cross_validate`` and the CLI call it,
and the ``LieClosure`` methods on the class), so structcon itself is not
changed.  Spans are kept in memory and written out when the run ends.

A span whose innermost open span has the same name is not recorded: the
wrapped functions of one layer call each other (``analysis.is_connected``
calls ``analysis.components``), and only the call that enters the layer
counts.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, so comparable across processes


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "counts": self.counts}

    @staticmethod
    def from_json(doc: dict) -> "Span":
        return Span(doc["name"], doc["start"], doc["end"], doc["parent"], doc["request"],
                    dict(doc["counts"]))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.request = 0

    def _enter(self, name: str, start: float) -> None:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, parent=parent, request=self.request))
        self._open.append(len(self.spans) - 1)

    def _exit(self) -> Span:
        span = self.spans[self._open.pop()]
        span.end = clock()
        return span

    @contextmanager
    def span(self, name: str, start: float | None = None) -> Iterator[None]:
        self._enter(name, clock() if start is None else start)
        try:
            yield
        finally:
            self._exit()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the innermost open one."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, end, parent, self.request))

    def adopt(self, spans: list[Span]) -> None:
        """Append spans recorded elsewhere (a child process) under the
        innermost open span, keeping their own nesting."""
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in spans:
            self.spans.append(Span(s.name, s.start, s.end,
                                   parent if s.parent is None else base + s.parent,
                                   self.request, s.counts))

    def wrap(self, name: str, fn: Callable,
             before: Callable[[tuple], Any] | None = None,
             after: Callable[[Any, tuple, Any], dict[str, int]] | None = None) -> Callable:
        """fn, recording a span per call; `after(state, args, result)` gives
        the span's counts, with `state = before(args)` taken before the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].name == name:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            self._enter(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._exit()
            if after:
                span.counts = after(state, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# which structcon names are wrapped
# ---------------------------------------------------------------------------


def _run_before(args: tuple) -> tuple[int, int]:
    return args[0].rank, args[0].steps


def _run_after(state: tuple[int, int], args: tuple, _result: Any) -> dict[str, int]:
    return {"rank_gain": args[0].rank - state[0], "sweeps": args[0].steps - state[1]}


def _oracle_after(_state: Any, _args: tuple, orc: Any) -> dict[str, int]:
    return {"trials": orc.trials,
            "full_trials": sum(1 for d in orc.dimensions if d == orc.target),
            "final_dim": sum(orc.dimensions)}


def _lie_closure_after(_state: Any, _args: tuple, result: tuple) -> dict[str, int]:
    return {"final_dim": result[1]}


def _module_functions(module) -> list[str]:
    return [name for name, value in vars(module).items()
            if callable(value) and getattr(value, "__module__", None) == module.__name__
            and not isinstance(value, type)]


def install(tracer: Tracer, modules: dict[str, Any]) -> Callable[[], None]:
    """Wrap the cross-module calls of the imported structcon modules; returns
    a function that restores the originals.  Names a later version no longer
    has are skipped, so their metrics read 0."""
    algebra, verdict, graphs, analysis = (modules[m] for m in
                                          ("algebra", "verdict", "graphs", "analysis"))
    cli = modules.get("cli")
    plan: list[tuple[Any, str, str, Any, Any]] = []
    for owner in (cli, verdict):
        if owner is None:
            continue
        plan += [(owner, "sample_drift", "patterns.sample_drift", None, None),
                 (owner, "control_generators", "patterns.control_generators", None, None)]
    if cli is not None:
        plan += [(cli, "parse_spec", "cli.parse_spec", None, None),
                 (cli, "lie_closure", "algebra.lie_closure", None, _lie_closure_after)]
    plan += [(verdict, "cross_validate", "verdict.cross_validate", None, None),
             (verdict, "check", "verdict.check", None, None),
             (verdict, "oracle", "verdict.oracle", None, _oracle_after)]
    closure = getattr(algebra, "LieClosure", None)
    if closure is not None:
        plan += [(closure, "__init__", "algebra.closure_init", None, None),
                 (closure, "run", "algebra.closure_run", _run_before, _run_after),
                 (closure, "copy", "algebra.closure_copy", None, None),
                 (closure, "add_generators", "algebra.add_generators", None, None)]
    plan += [(graphs, name, "graphs.build", None, None) for name in _module_functions(graphs)]
    plan += [(analysis, name, "analysis", None, None) for name in _module_functions(analysis)]

    saved = []
    for owner, attr, span_name, before, after in plan:
        original = vars(owner).get(attr)
        if original is None:
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span_name, original, before, after))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, reach, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@dataclass
class Rollup:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


def rollup(spans: list[Span]) -> dict[str, Rollup]:
    out: dict[str, Rollup] = {}
    for s, own in zip(spans, self_times(spans)):
        r = out.setdefault(s.name, Rollup())
        r.calls += 1
        r.total += s.end - s.start
        r.self_time += own
        for key, value in s.counts.items():
            r.counts[key] = r.counts.get(key, 0) + value
    return out


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from a traced pass.

    `*_ms` is the total time inside spans of that name, `*_self_ms` the same
    less the time in their child spans; both are summed over the pass.
    """
    r = rollup(spans)

    def get(name: str) -> Rollup:
        return r.get(name, Rollup())

    def ms(value: float) -> float:
        return value * 1000.0

    closure_run = get("algebra.closure_run")
    oracle = get("verdict.oracle")
    return {
        "cli.interp_start_ms": ms(get("cli.interp_start").total),
        "cli.import_ms": ms(get("cli.import").total),
        "cli.parse_spec_ms": ms(get("cli.parse_spec").total),
        "cli.parse_spec_calls": get("cli.parse_spec").calls,
        "cli.main_self_ms": ms(get("cli.main").self_time),
        "algebra.closure_init_ms": ms(get("algebra.closure_init").total),
        "algebra.closure_inits": get("algebra.closure_init").calls,
        "algebra.closure_run_ms": ms(closure_run.total),
        "algebra.closure_runs": closure_run.calls,
        "algebra.closure_rank_gain": closure_run.counts.get("rank_gain", 0),
        "algebra.closure_sweeps": closure_run.counts.get("sweeps", 0),
        "algebra.closure_copy_ms": ms(get("algebra.closure_copy").total),
        "algebra.add_generators_ms": ms(get("algebra.add_generators").total),
        "patterns.sample_drift_ms": ms(get("patterns.sample_drift").total),
        "patterns.sample_drift_calls": get("patterns.sample_drift").calls,
        "patterns.control_generators_ms": ms(get("patterns.control_generators").total),
        "verdict.check_ms": ms(get("verdict.check").total),
        "verdict.check_calls": get("verdict.check").calls,
        "graphs.build_ms": ms(get("graphs.build").total),
        "graphs.build_calls": get("graphs.build").calls,
        "analysis.ms": ms(get("analysis").total),
        "analysis.calls": get("analysis").calls,
        "verdict.oracle_self_ms": ms(oracle.self_time),
        "verdict.oracle_trials": oracle.counts.get("trials", 0),
        "verdict.oracle_full_trials": oracle.counts.get("full_trials", 0),
        "algebra.final_dim_sum": (oracle.counts.get("final_dim", 0)
                                  + get("algebra.lie_closure").counts.get("final_dim", 0)),
        "trace_overhead_ratio": overhead_ratio,
    }
