"""Byte-for-byte pins of the command line output on the bundled specs.

`check`, `report` and `closure --json` are compared with the goldens the
benchmark checks its cold CLI requests against (`bench/golden/cli`, read
only here);
`graph --which drift|contr|union` is compared with `tests/golden/dot`, and
`check`, `report` and `oracle` with `--json` with `tests/golden/json`.
Rebuilding a layer must leave every byte in place.
A sample of the benchmark's `random_sweep` corpus is checked against its
golden verdicts and dimensions (`bench/golden/random_sweep.json`) too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import structcon
from structcon.cli import main

from conftest import SPEC_NAMES

TESTS = Path(__file__).resolve().parent
SPECS = TESTS.parent / "src" / "structcon" / "specs"
CLI_GOLDEN = TESTS.parent / "bench" / "golden" / "cli"
DOT_GOLDEN = TESTS / "golden" / "dot"
JSON_GOLDEN = TESTS / "golden" / "json"

COMMANDS = (("check",), ("report",), ("closure", "--json"))


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("name", SPEC_NAMES)
def test_cli_output_matches_golden(name, command, capsys):
    out = _stdout(capsys, [command[0], str(SPECS / f"{name}.json"), *command[1:]])
    assert out == (CLI_GOLDEN / f"{name}.{command[0]}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("which", ("drift", "contr", "union"))
@pytest.mark.parametrize("name", SPEC_NAMES)
def test_graph_dot_matches_golden(name, which, capsys):
    out = _stdout(capsys, ["graph", str(SPECS / f"{name}.json"), "--which", which])
    assert out == (DOT_GOLDEN / f"{name}.{which}.dot").read_bytes().decode("utf-8")


@pytest.mark.parametrize("command", ("check", "report", "oracle"))
@pytest.mark.parametrize("name", SPEC_NAMES)
def test_json_output_matches_golden(name, command, capsys):
    out = _stdout(capsys, [command, str(SPECS / f"{name}.json"), "--json"])
    assert out == (JSON_GOLDEN / f"{name}.{command}.json").read_bytes().decode("utf-8")


def _bench_workloads():
    """`bench/workloads.py`, loaded read-only under a private module name."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  TESTS.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_random_sweep_sample_matches_golden():
    # every 13th pair: 13 is coprime to the 17 kinds of a corpus block, so
    # the sample covers every kind
    wl = _bench_workloads()
    corpus, golden = wl.sweep_corpus(structcon), wl.load_sweep_golden()
    assert len(corpus) == len(golden)
    sample = range(0, len(corpus), 13)
    assert {str(corpus[k].kind) for k in sample} == {str(pair.kind) for pair in corpus}
    for k in sample:
        report = structcon.cross_validate(corpus[k], trials=wl.SWEEP_TRIALS, seed=k)
        assert (report.verdict.value, report.oracle.dimensions) == golden[k], k
