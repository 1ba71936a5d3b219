"""CLI surface, report emission, and suite determinism."""

import json

import pytest

from wittnorm.cli import main
from wittnorm.intlinalg import IntMatrix
from wittnorm.mackey import witt_mackey
from wittnorm.serialize import (
    InstanceRecord,
    SuiteReport,
    emit,
    emit_csv,
    emit_json,
    emit_text,
    group_json,
    mackey_json,
    matrix_json,
)
from wittnorm.abgroups import FgAbGroup
from wittnorm.suites import SUITE_IDS, run_suite


def test_suite_reports_are_byte_identical_per_seed():
    a = emit_json(run_suite("trace", seed=3))
    b = emit_json(run_suite("trace", seed=3))
    assert a == b
    assert emit_json(run_suite("trace", seed=4)) != a


def test_suite_records_sorted_and_aggregated():
    rep = run_suite("resolution", seed=0)
    keys = [r.key for r in rep.records]
    assert keys == sorted(keys)
    doc = json.loads(emit_json(rep))
    assert doc["aggregate"]["total"] == str(len(doc["records"]))
    assert doc["aggregate"]["passed"] == str(rep.passed)
    assert doc["schema"] == "1"


def test_emit_formats_round_trip():
    rep = SuiteReport(suite="demo", seed=1, cap=64)
    rep.records = [
        InstanceRecord("b ok", {"p": 2}, True),
        InstanceRecord("a fail", {"p": 3}, False, witness="sum was wrong"),
        InstanceRecord("c skip", {"p": 5}, True, skipped=True, witness="cap"),
    ]
    doc = json.loads(emit_json(rep))
    assert [r["key"] for r in doc["records"]] == ["a fail", "b ok", "c skip"]
    assert doc["records"][0]["inputs"] == {"p": "3"}
    assert doc["aggregate"] == {
        "passed": "1", "failed": "1", "skipped": "1", "total": "3"}
    csv_text = emit_csv([rep])
    assert len(csv_text.strip().splitlines()) == 1 + 3
    text = emit_text(rep)
    assert "FAIL a fail :: sum was wrong" in text
    assert "SKIP c skip" in text
    with pytest.raises(ValueError):
        emit(rep, "xml")


def test_timings_only_when_requested():
    rep = run_suite("mackey", seed=0)
    plain = emit_json(rep)
    assert '"ms"' not in plain
    assert '"ms"' in emit_json(rep, timings=True)


def test_value_serializers_frozen():
    assert group_json(FgAbGroup([2, 4])) == {
        "kind": "abelian-group", "invariant_factors": ["2", "4"]}
    m = IntMatrix(2, 2, {(0, 1): -3})
    assert matrix_json(m)["matrix"] == [["0", "-3"], ["0", "0"]]
    doc = mackey_json(witt_mackey(2, 1))
    assert doc["levels"] == [["2"], ["4"]]
    assert doc["res"] == [[["1"]]]
    assert doc["tr"] == [[["2"]]]


def test_cli_witt_add(capsys):
    assert main(["witt", "add", "--p", "2", "--r", "2",
                 "--in", '[["1","0"],["1","0"]]']) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == ["2", "-1"]


def test_cli_witt_poly_base(capsys):
    assert main(["witt", "mul", "--p", "2", "--r", "2", "--ring", "fpx",
                 "--in", "[[[0,1],[]],[[0,1],[]]]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == [["0", "0", "1"], []]


def test_cli_mackey_validate_and_resolve(capsys):
    assert main(["mackey", "validate", "--kind", "witt", "--p", "3", "--n", "2"]) == 0
    capsys.readouterr()
    assert main(["mackey", "resolve", "--p", "2", "--r", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exact"] is True


def _int_leaves(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _int_leaves(v)]
    if isinstance(value, list):
        return [x for v in value for x in _int_leaves(v)]
    return [value] if isinstance(value, int) and not isinstance(value, bool) else []


def test_cli_polywitt_compare(capsys):
    assert main(["polywitt", "compare", "--p", "2", "--d", "2", "--r", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["tate"] == ["2", "4", "4"]
    assert doc["instance"] == {"p": "2", "d": "2", "r": "2"}
    assert "ms" not in doc
    assert _int_leaves(doc) == []
    assert main(["polywitt", "compare", "--p", "2", "--d", "2", "--r", "2",
                 "--timings"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["ms"]) == {"tate", "norm"}
    assert _int_leaves(doc) == []


@pytest.mark.parametrize("argv", [
    ["witt", "add", "--p", "4", "--r", "2", "--in", '[["1","0"],["1","0"]]'],
    ["polywitt", "compare", "--p", "4", "--d", "2", "--r", "2"],
    ["polywitt", "compare", "--p", "1", "--d", "2", "--r", "2"],
    ["mackey", "build", "--p", "6"],
    ["trace", "check", "--theory", "polywitt", "--p", "4"],
    ["drw", "check", "--p", "4", "--r", "2", "--weight-cap", "4"],
])
def test_cli_non_prime_p_is_config_error(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be a prime" in err


@pytest.mark.parametrize("theory", ["orbit", "raw"])
def test_cli_trace_characteristic_zero(theory, capsys):
    assert main(["trace", "check", "--theory", theory, "--p", "0"]) == 0


def test_cli_trace_reports(capsys):
    assert main(["trace", "check", "--theory", "orbit", "--m", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(a["ok"] for a in doc["axioms"])
    assert main(["trace", "check", "--theory", "raw", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexample"] == ["1", "2"] or doc["counterexample"] == [1, 2]
    # a rank cap of one leaves no room for a counterexample
    assert main(["trace", "check", "--theory", "raw", "--m", "2",
                 "--rank-cap", "1"]) == 2


def test_cli_run_exit_codes(capsys):
    assert main(["run", "nosuch"]) == 3
    capsys.readouterr()
    assert main(["run", "resolution", "--p", "2", "--r", "1..2"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out


def test_cli_run_empty_grid(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert main(["run", "compare", "--p", "7", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["records"] == []
    assert doc["aggregate"] == {
        "passed": "0", "failed": "0", "skipped": "0", "total": "0"}


def test_cli_run_csv_rows(tmp_path, capsys):
    path = tmp_path / "report.csv"
    assert main(["run", "trace", "--csv", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "suite,key,ok,skipped,witness"
    assert len(lines) == 1 + 5


def test_cli_bad_input_is_config_error(capsys):
    assert main(["witt", "add", "--p", "2", "--r", "2", "--in", "notjson"]) == 3
    assert main(["witt", "add", "--p", "2"]) == 3


def test_suite_ids_complete():
    assert set(SUITE_IDS) == {
        "witt", "cartier", "mackey", "resolution", "compare",
        "lift", "drw", "trace"}
