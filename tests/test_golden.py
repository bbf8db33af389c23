"""Byte-for-byte pins of the command line output on the bundled specs.

`check`, `report` and `closure --json` are compared with the goldens the
benchmark checks its cold CLI requests against (`bench/golden/cli`, read
only here), and `oracle --cross` with the `report` golden;
`graph --which drift|contr|union` is compared with `tests/golden/dot`.  Rebuilding a layer must leave every byte in place.
"""

from pathlib import Path

import pytest

from structcon.cli import main

from conftest import SPEC_NAMES

TESTS = Path(__file__).resolve().parent
SPECS = TESTS.parent / "src" / "structcon" / "specs"
CLI_GOLDEN = TESTS.parent / "bench" / "golden" / "cli"
DOT_GOLDEN = TESTS / "golden" / "dot"

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


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_oracle_cross_matches_report_golden(name, capsys):
    out = _stdout(capsys, ["oracle", str(SPECS / f"{name}.json"), "--cross"])
    assert out == (CLI_GOLDEN / f"{name}.report.out").read_bytes().decode("utf-8")
