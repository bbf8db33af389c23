import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from structcon.algebra import BasisElement, su
from structcon.cli import main, pair_to_document, parse_spec
from structcon.errors import ParseError, ValidationError

from conftest import load_pair, load_spec_text
from helpers import fresh_rules


def spec_path(name: str) -> str:
    return str(resources.files("structcon").joinpath("specs", f"{name}.json"))


def test_parse_spec_golden():
    pair = parse_spec(load_spec_text("so6_bridged_triangles"))
    assert pair.kind.n == 6 and pair.kind.family.value == "so"
    assert len(pair.drift.bases) == 3
    assert len(pair.control.bases) == 6


def test_parse_spec_accepts_rational_strings():
    text = json.dumps({
        "algebra": "su", "n": 3,
        "drift": [{"terms": [{"basis": "C", "i": 1, "j": 2, "coeff": "-1/2"}]}],
        "control": [{"basis": "B", "i": 1, "j": 2}],
    })
    pair = parse_spec(text)
    base = pair.drift.bases[0]
    assert str(next(iter(base.items()))[1]) == "-1/2"


@pytest.mark.parametrize("mutate,expected", [
    (lambda d: d.update(algebra="sp"), ParseError),
    (lambda d: d.pop("n"), ParseError),
    (lambda d: d.update(n="six"), ParseError),
    (lambda d: d.update(n=1), ValidationError),
    (lambda d: d.update(drift=[]), ValidationError),
    (lambda d: d.update(control=[]), ValidationError),
    (lambda d: d["drift"][0]["terms"][0].update(coeff="0"), ValidationError),
    (lambda d: d["drift"][0]["terms"][0].update(coeff="x/y"), ParseError),
    (lambda d: d["drift"][0]["terms"][0].update(basis="E"), ValidationError),
    (lambda d: d["control"][0].update(i=9), ValidationError),
    (lambda d: d["control"][0].update(i=2, j=1), ValidationError),
    (lambda d: d["drift"][0]["terms"][0].update(basis=""), ValidationError),
    (lambda d: d["control"][0].update(basis=""), ValidationError),
])
def test_parse_spec_failures(mutate, expected):
    doc = json.loads(load_spec_text("so6_bridged_triangles"))
    mutate(doc)
    with pytest.raises(expected):
        parse_spec(json.dumps(doc))


def su_spec(n: int = 3, drift_tag: str = "B", control_tag: str = "C", coeff: str = "1") -> dict:
    """su(n) with the drift coeff·B12 and the control C12 (tags replaceable)."""
    return {
        "algebra": "su", "n": n,
        "drift": [{"terms": [{"basis": drift_tag, "i": 1, "j": 2, "coeff": coeff}]}],
        "control": [{"basis": control_tag, "i": 1, "j": 2}],
    }


@pytest.mark.parametrize("tag", ["BC", "CD", "BCD"])
def test_multi_letter_tags_are_validation_errors(tag):
    # each letter is an su tag, but a tag is one whole letter
    for doc in (su_spec(drift_tag=tag), su_spec(control_tag=tag)):
        with pytest.raises(ValidationError, match="unknown basis tag"):
            parse_spec(json.dumps(doc))


def test_parse_spec_rejects_non_json():
    with pytest.raises(ParseError):
        parse_spec("not json at all {")


def test_document_round_trip():
    for name in ("so6_bridged_triangles", "gl4_unit_drift", "su5_hub_with_loops"):
        pair = load_pair(name)
        again = parse_spec(json.dumps(pair_to_document(pair)))
        assert again == pair


def test_cmd_check_text_and_exit_code(capsys):
    assert main(["check", spec_path("su5_hub_with_loops")]) == 0
    out = capsys.readouterr().out
    assert "Verdict: ExactYes (Theorem 4)" in out

    assert main(["check", spec_path("gl4_pair_rings_no_loop")]) == 0
    out = capsys.readouterr().out
    assert "Verdict: Inconclusive" in out


def test_cmd_check_json_deterministic(capsys):
    assert main(["check", spec_path("so6_bridged_triangles"), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", spec_path("so6_bridged_triangles"), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "SufficientYes"
    assert payload["oracle"] is None


def test_cmd_check_missing_file(capsys):
    assert main(["check", "/no/such/spec.json"]) == 1


def test_cmd_check_validation_exit_code(tmp_path, capsys):
    doc = json.loads(load_spec_text("so6_bridged_triangles"))
    doc["drift"][0]["terms"][0]["coeff"] = "0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 2


def test_cmd_report_multi_letter_tag_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(su_spec(control_tag="BC")))
    assert main(["report", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("structcon: validation error: control[0]")


def test_cmd_oracle(capsys):
    assert main(["oracle", spec_path("su6_two_triads"), "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "target dimension 35" in out
    assert out.count("dimension 35") >= 5
    assert "Full dimension achieved: yes" in out


def test_cmd_oracle_not_full(capsys):
    assert main(["oracle", spec_path("gl4_pair_rings_no_loop"),
                 "--trials", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == 16
    assert payload["achieved_full"] is False


def test_cmd_oracle_cross_exit_codes(capsys):
    # `report` is the one cross-check command; `oracle --cross` is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["oracle", spec_path("su5_hub_with_loops"), "--cross"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--cross" in captured.err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--help"])
    assert exc.value.code == 0
    assert "--cross" not in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    b"\xff\xfe{", b"[" * 200_000, b'{"n": ' + b"1" * 5000 + b"}",
], ids=["not-utf8", "nested-200000-deep", "int-5000-digits"])
def test_hostile_spec_file_is_a_parse_error(tmp_path, capsys, content):
    spec = tmp_path / "hostile.json"
    spec.write_bytes(content)
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().err.startswith("structcon: parse error: ")


def test_trials_are_capped_when_parsed(capsys):
    # refused before any closure runs
    with pytest.raises(SystemExit) as exc:
        main(["report", spec_path("su5_hub_with_loops"), "--trials=10001"])
    assert exc.value.code == 1
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["closure", spec_path("su5_hub_with_loops"), "--trials", "3"],
    ["graph", spec_path("su5_hub_with_loops"), "--which", "drift", "--format", "dot"],
], ids=["closure-trials", "graph-format"])
def test_flags_that_did_nothing_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", spec_path("su5_hub_with_loops"), "--trials", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["graph", spec_path("su5_hub_with_loops"), "--which", "everything"])
    assert exc.value.code == 1


@pytest.mark.parametrize("pool", ["0", "a..b", "1..100000000"])
def test_bad_pool_is_a_usage_error(pool):
    # a separate process, so a traceback would reach its stderr; the wide
    # range must be refused before it is materialised
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "structcon.cli", "report",
         spec_path("so6_bridged_triangles"), f"--pool={pool}"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert "bad pool" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_import_loads_no_dataclasses():
    # `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, which a
    # cold process pays for.  The stdlib modules structcon itself imports are
    # loaded first, so whatever they load on some Python version is not
    # counted; -S keeps `site` and its .pth hooks out of the baseline
    baseline = ("argparse", "json", "fractions", "random", "re", "pathlib",
                "collections", "enum", "functools", "math", "typing")
    code = (f"import sys\nimport {', '.join(baseline)}\n"
            "before = set(sys.modules)\n"
            "import structcon.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cmd_closure_with_explicit_coefficients(capsys):
    assert main(["closure", spec_path("so6_bridged_triangles"), "--coeffs", "1,3,1"]) == 0
    out = capsys.readouterr().out
    assert "Closure dimension: 15 of 15" in out
    # half of 1, 3, 1 gives the same ray, so the same rows and steps; its
    # products with the integer base coefficients are not all integers
    assert main(["closure", spec_path("so6_bridged_triangles"), "--coeffs", "1/2,3/2,1/2"]) == 0
    assert capsys.readouterr().out == out


def test_cmd_closure_control_only(capsys):
    assert main(["closure", spec_path("su5_hub_with_loops"), "--no-drift", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 24 and payload["target"] == 24


def test_cmd_closure_coeffs_arity_error(capsys):
    assert main(["closure", spec_path("so6_bridged_triangles"), "--coeffs", "1,2"]) == 1
    assert main(["closure", spec_path("so6_bridged_triangles"), "--coeffs", "1,0,1"]) == 1
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--no-drift", "--coeffs", "1,2"],
    ["--no-drift", "--seed", "5"],
    ["--no-drift", "--pool=1..3"],
    ["--coeffs", "1,3,1", "--seed", "5"],
    ["--coeffs", "1,3,1", "--pool=2"],
], ids=["no-drift-coeffs", "no-drift-seed", "no-drift-pool", "coeffs-seed", "coeffs-pool"])
def test_closure_drift_flags_exclude_each_other(flags, capsys):
    # each fixes the drift its own way, so a second one would go unused
    try:
        code = main(["closure", spec_path("so6_bridged_triangles"), *flags])
    except SystemExit as exc:  # argparse's own mutually exclusive group
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert all(f.split("=")[0] in err for f in flags if f.startswith("--"))


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_closure_rows_past_the_int_digit_limit_exit_1(flags, tmp_path, capsys):
    # the exponent 4300 is within the parse bound, but the row B12 + 10^4300·B34
    # has a 4301-digit coefficient, which `repr` refuses to print
    doc = {"algebra": "so", "n": 6,
           "drift": [{"terms": [{"basis": "B", "i": 1, "j": 2, "coeff": "1"},
                                {"basis": "B", "i": 3, "j": 4, "coeff": "1e4300"}]}],
           "control": [{"basis": "B", "i": 5, "j": 6}]}
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps(doc))
    assert main(["closure", str(spec), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("structcon: parse error: cannot print the closure rows: ")
    assert err.count("\n") == 1


def test_cmd_graph_dot(capsys):
    assert main(["graph", spec_path("so6_bridged_triangles"), "--which", "contr"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 6
    assert main(["graph", spec_path("su5_hub_with_loops"), "--which", "drift"]) == 0
    out = capsys.readouterr().out
    for color in ("blue", "red", "green"):
        assert f"[color={color}]" in out


def test_cmd_graph_union_matches_modules(capsys, so6_pair):
    from structcon.graphs import contr_graph, drift_graph, to_dot, union
    assert main(["graph", spec_path("so6_bridged_triangles"), "--which", "union"]) == 0
    out = capsys.readouterr().out
    assert out == to_dot(union(drift_graph(so6_pair.drift), contr_graph(so6_pair.control)))


def test_cmd_report(capsys):
    assert main(["report", spec_path("su6_two_triads"), "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "Verdict: SufficientYes (Theorem 5)" in out
    assert "Cross-check contradiction: no" in out


def test_cmd_report_small_closure_in_large_algebra(tmp_path, capsys, monkeypatch):
    # su(200) has dimension 39999, but B12 and C12 close to a 3-dimensional
    # su(2); every bracket has B12 or C12 on the left, so only their rows of
    # structure constants are built.  No table grows with the 39999 basis
    # elements either, so the whole command allocates little
    tables = fresh_rules(monkeypatch)
    spec = tmp_path / "su200.json"
    spec.write_text(json.dumps(su_spec(200)))
    tracemalloc.start()
    try:
        assert main(["report", str(spec), "--json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["dimensions"] == [3] * 8
    assert payload["contradiction"] is False
    rules = tables(su(200))
    built = [rules.element(k) for k in sorted(rules.rows)]
    assert built == [BasisElement("B", 1, 2), BasisElement("C", 1, 2)]


def test_algebra_too_large_to_tabulate_fails_fast(tmp_path, capsys):
    # su(100000) has dimension 10^10 - 1: `check` reads only the pattern
    # graphs, while `report` would need the structure-constant table
    spec = tmp_path / "su100000.json"
    spec.write_text(json.dumps(su_spec(100_000)))
    start = time.perf_counter()
    assert main(["report", str(spec)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "dimension 9999999999" in err and "limit of 1000000" in err
    assert main(["check", str(spec)]) == 0


@pytest.mark.parametrize("argv", [["check"], ["graph", "--which", "union"], ["report"]],
                         ids=lambda argv: argv[0])
def test_more_than_1e5_nodes_fails_fast(argv, tmp_path, capsys):
    # the pattern graphs hold every node, so n itself is bounded
    spec = tmp_path / "su100001.json"
    spec.write_text(json.dumps(su_spec(100_001)))
    start = time.perf_counter()
    assert main([argv[0], str(spec), *argv[1:]]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "validation error" in err and "at most 100000, got 100001" in err


@pytest.mark.parametrize("coeff", ["1e9999999", "-3e-9999999", "1e4301"])
def test_huge_exponent_in_spec_is_a_parse_error(coeff, tmp_path, capsys):
    # Fraction("1e9999999") alone takes seconds; the exponent is refused first
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(su_spec(coeff=coeff)))
    start = time.perf_counter()
    assert main(["report", str(spec)]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("structcon: parse error: drift[0].terms[0]: bad coefficient")
    assert "exponent over the limit of" in err


def test_huge_exponent_in_coeffs_is_a_parse_error(capsys):
    start = time.perf_counter()
    assert main(["closure", spec_path("so6_bridged_triangles"), "--coeffs", "1,1e9999999,1"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("structcon: parse error: --coeffs: bad coefficient '1e9999999'")


def test_huge_exponent_in_pool_is_a_usage_error(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["report", spec_path("so6_bridged_triangles"), "--pool=1,1e9999999"])
    assert exc.value.code == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "argument --pool: bad pool" in err and "exponent over the limit of" in err


@pytest.mark.parametrize("coeff,value", [("1e3", 1000), ("2.5", Fraction(5, 2)),
                                         ("4e-2", Fraction(1, 25))], ids=["1e3", "2.5", "4e-2"])
def test_moderate_exponents_and_decimals_still_parse(coeff, value):
    # "-1/2" is test_parse_spec_accepts_rational_strings
    pair = parse_spec(json.dumps(su_spec(coeff=coeff)))
    assert dict(pair.drift.bases[0].items()) == {BasisElement("B", 1, 2): value}


def test_stdin_spec(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(load_spec_text("gl4_unit_drift")))
    assert main(["check", "-"]) == 0
    assert "Verdict: SufficientYes (Theorem 2.2)" in capsys.readouterr().out
