"""CLI surface, report emission, and suite determinism."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

import wittnorm
from wittnorm import cli, drw, mackey, polywitt, rings
from wittnorm.abgroups import FgAbGroup, GroupHom
from wittnorm.cli import main
from wittnorm.mackey import CyclicMackeyFunctor, witt_mackey
from wittnorm.serialize import (
    InstanceRecord,
    SuiteReport,
    dumps_value,
    emit_csv,
    emit_json,
    emit_text,
    mackey_json,
)
from wittnorm.suites import SUITE_IDS, run_suite

from test_mackey import orbit_summand_map


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


def test_timings_only_when_requested():
    rep = run_suite("mackey", seed=0)
    plain = emit_json(rep)
    assert '"ms"' not in plain
    assert '"ms"' in emit_json(rep, timings=True)


def test_value_serializers_frozen():
    # every integer and rational leaf is a decimal string; bools and None stay
    doc = {"n": 3, "neg": -12345678901234567890, "whole": Fraction(6, 2),
           "half": Fraction(-3, 2), "rows": ((0, -3), [Fraction(1, 4)]),
           "nested": {"ok": True, "bad": False, "none": None, "s": "x"}}
    assert dumps_value(doc) == (
        '{\n  "half": "-3/2",\n  "n": "3",\n  "neg": "-12345678901234567890",\n'
        '  "nested": {\n    "bad": false,\n    "none": null,\n    "ok": true,\n'
        '    "s": "x"\n  },\n  "rows": [\n    [\n      "0",\n      "-3"\n    ],\n'
        '    [\n      "1/4"\n    ]\n  ],\n  "whole": "3"\n}\n')
    doc = json.loads(dumps_value(mackey_json(witt_mackey(2, 1))))
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


def test_cli_witt_poly_components_are_reduced(capsys):
    # 3 + 0x in F_2[x] is 1; restriction alone must not leak the raw array
    assert main(["witt", "R", "--p", "2", "--r", "2", "--ring", "fpx",
                 "--in", '[[3,"0"],[]]']) == 0
    assert json.loads(capsys.readouterr().out)["components"] == [["1"]]


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


@pytest.mark.parametrize("verb", ["build", "check"])
def test_cli_saturation_failure_is_check_failure(verb, monkeypatch, capsys):
    # a tower that cannot reach its fixpoint is a failed check (exit 2),
    # reported in one line, never a traceback
    monkeypatch.setattr(drw, "SATURATION_ROUND_LIMIT", 0)
    assert main(["drw", verb, "--p", "2", "--r", "2", "--weight-cap", "4"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == ("check failed: relation saturation unstable after 0 rounds"
                   " at level 2 degree 0 weight (Fraction(1, 2),)\n")


def _broken_witt_mackey(p, n):
    # transfer after restriction is 2p, not p: the cohomological axiom
    # fails, and the constructor raises inside the CLI call
    w = witt_mackey(p, n)
    return CyclicMackeyFunctor(w.spec, w.levels, w.res, [t.scale(2) for t in w.tr], w.weyl)


def test_cli_failed_mackey_axiom_is_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(mackey, "witt_mackey", _broken_witt_mackey)
    assert main(["mackey", "validate", "--kind", "witt", "--p", "2", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("check failed: transfer after restriction")
    assert err.count("\n") == 1


def test_cli_failed_mackey_validation_in_compare_is_check_failure(monkeypatch, capsys):
    # the norm pipeline builds Mackey functors; a failed validation there
    # reaches main as a MackeyError, a ValueError that is still exit 2
    def failing(m):
        raise mackey.MackeyError("planted validation failure")

    monkeypatch.setattr(mackey, "validate_mackey", failing)
    assert main(["polywitt", "compare", "--p", "2", "--d", "2", "--r", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "check failed: planted validation failure\n"


@pytest.mark.parametrize("name, layer", [
    ("MackeyError", mackey), ("SaturationError", drw),
    ("CapExceeded", polywitt), ("DEFAULT_CAP", polywitt)])
def test_shared_names_are_the_root_objects(name, layer):
    # each name has one home, the package root; the layers re-export it
    assert getattr(layer, name) is getattr(wittnorm, name)


def test_cli_failed_internal_invariant_is_check_failure(monkeypatch, capsys):
    # a norm over one element more than the group: the rotation's power is
    # not the identity, so the norm image leaves the fixed lattice and an
    # internal invariant of the Tate pipeline fails, reported in one line
    fixed_mod_norm = polywitt.fixed_mod_norm
    monkeypatch.setattr(polywitt, "fixed_mod_norm",
                        lambda action, order: fixed_mod_norm(action, order + 1))
    assert main(["polywitt", "compare", "--p", "2", "--d", "2", "--r", "2"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "check failed: norm image must lie in the fixed lattice\n"


@pytest.mark.parametrize("verb", ["build", "boxperm", "q", "witt-basechange"])
@pytest.mark.parametrize("kind", list(cli._MACKEY_KINDS))
@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_cli_mackey_derived_functors(verb, kind, p, n, capsys):
    assert main(["mackey", verb, "--kind", kind, "--p", str(p), "--n", str(n)]) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["kind"] == "cyclic-mackey-functor"
    assert doc["p"] == str(p) and doc["n"] == str(n)
    assert _int_leaves(doc) == []


@pytest.mark.parametrize("theory", ["orbit", "raw"])
def test_cli_trace_characteristic_zero(theory, capsys):
    assert main(["trace", "check", "--theory", theory, "--p", "0"]) == 0


def test_cli_trace_reports(capsys):
    assert main(["trace", "check", "--theory", "orbit", "--m", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(a["ok"] for a in doc["axioms"])
    assert main(["trace", "check", "--theory", "raw", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counterexample"] == ["1", "2"]
    # a rank cap of one leaves no room for a counterexample
    assert main(["trace", "check", "--theory", "raw", "--m", "2",
                 "--rank-cap", "1"]) == 2


def test_cli_run_exit_codes(capsys):
    assert main(["run", "nosuch"]) == 3
    capsys.readouterr()
    assert main(["run", "compare", "--p", "2..x"]) == 3
    assert capsys.readouterr() == ("", "error: bad range for --p: '2..x'\n")
    assert main(["run", "resolution", "--p", "2", "--r", "1..2"]) == 0
    out = capsys.readouterr().out
    assert "failed=0" in out
    # a grid filter that selects no instance checks nothing, so it is no pass
    assert main(["run", "compare", "--p", "2", "--d", "0", "--r", "1"]) == 3
    assert capsys.readouterr() == (
        "", "error: the grid filter --p 2 --d 0 --r 1 selects no instance of compare\n")
    assert main(["run", "witt", "--p", "7"]) == 3
    assert capsys.readouterr() == (
        "", "error: the grid filter --p 7 selects no instance of witt\n")


def test_cli_run_empty_grid(capsys, tmp_path):
    # an empty selection exits 3 and writes no report; one selected
    # instance in any of the suites is enough to run
    path = tmp_path / "report.json"
    assert main(["run", "compare", "--p", "7", "--json", str(path)]) == 3
    assert not path.exists()
    assert capsys.readouterr().out == ""
    assert main(["run", "compare", "mackey", "--p", "7", "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc[0]["records"] == []
    assert doc[0]["aggregate"]["total"] == "0"
    assert doc[1]["records"]


def test_cli_run_all_skipped_is_invalid(capsys, tmp_path):
    # a cap that skips every selected instance checks nothing either: exit
    # 3, one line naming the cap, no summary and no report
    path = tmp_path / "report.json"
    assert main(["run", "compare", "--cap", "0", "--json", str(path)]) == 3
    assert not path.exists()
    assert capsys.readouterr() == (
        "", "error: the cap --cap 0 skips every instance of compare\n")
    assert main(["run", "compare", "lift", "--cap", "0", "--json", "-"]) == 3
    assert capsys.readouterr() == (
        "", "error: the cap --cap 0 skips every instance of compare lift\n")
    # one instance under the cap is a run, its skips recorded as SKIP
    assert main(["run", "compare", "mackey", "--cap", "0", "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["aggregate"]["skipped"] == doc[0]["aggregate"]["total"] != "0"
    assert doc[1]["aggregate"]["skipped"] == "0"


@pytest.mark.parametrize("suites", [["trace"], ["trace", "resolution"]])
def test_cli_run_json_has_no_json_numbers(suites, capsys):
    # the report is the whole of stdout, the text summary goes to stderr;
    # one suite gives an object, several an array, and neither holds a
    # JSON number
    assert main(["run", *suites, "--timings", "--json", "-"]) == 0
    out, err = capsys.readouterr()
    assert err.startswith("PASS trace ")
    doc = json.loads(out)
    assert isinstance(doc, dict if len(suites) == 1 else list)
    assert "ms" in (doc if len(suites) == 1 else doc[0])["records"][0]
    assert _int_leaves(doc) == []


def test_cli_run_one_document_on_stdout(capsys):
    # a CSV report on stdout stands alone as well, and two documents
    # cannot share stdout
    assert main(["run", "trace", "--csv", "-"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("suite,key,ok,skipped,witness\n")
    assert err.startswith("PASS trace ")
    assert main(["run", "trace", "--json", "-", "--csv", "-"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --json - and --csv - cannot both write to stdout\n"


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


@pytest.mark.parametrize("verb", ["build", "check"])
@pytest.mark.parametrize("base", ["fp", "zpN"])
def test_cli_negative_weight_cap_is_config_error(verb, base, capsys):
    # a negative cap leaves no piece, so a build or check of it shows nothing
    argv = ["drw", verb, "--p", "2", "--r", "2", "--weight-cap", "-1", "--base", base]
    assert main(argv + ["--json", "-"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: weight cap must be at least 0, got -1\n"


@pytest.mark.parametrize("verb,ring,raw,named", [
    ("add", "z", "5", "5"),
    ("add", "z", "[5]", "[5]"),
    ("teich", "fpx", "[1,[2]]", "[2]"),
    ("add", "z", "[[null,0],[1,0]]", "null"),
    ("add", "z", "[[1.5,0],[1,0]]", "1.5"),
    ("add", "z", "[[true,0],[1,0]]", "true"),
    ("add", "z", '{"a":1}', '{"a": 1}'),
    ("add", "z", '[["1x","0"],["1","0"]]', '"1x"'),
    ("F", "z", "[[1],[0]]", "[1]"),
])
def test_cli_witt_rejects_malformed_input(verb, ring, raw, named, capsys):
    # only integers, decimal-integer strings and (for fpx) arrays of them
    assert main(["witt", verb, "--p", "2", "--r", "2", "--ring", ring, "--in", raw]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("theory", ["orbit", "raw", "polywitt"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cli_trace_rank_cap_below_one(theory, cap, capsys):
    assert main(["trace", "check", "--theory", theory, "--rank-cap", cap]) == 3
    assert "--rank-cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv,nvars,cap", [
    (["--weight-cap", "4"], 1, 4),
    (["--vars", "2", "--weight-cap", "3"], 2, 3),
])
def test_cli_drw_build_lists_each_operator(argv, nvars, cap, capsys):
    assert main(["drw", "build", "--p", "2", "--r", "2"] + argv) == 0
    doc = json.loads(capsys.readouterr().out)
    tower = drw.build_drw(2, 2, nvars, cap)
    listed = {}
    for entry in doc["operators"]:
        src = entry["from"]
        at = (src["level"], src["degree"], tuple(src["weight"]))
        listed.setdefault(at, []).append((entry["op"], entry["matrix"]))
    assert len(doc["pieces"]) == sum(1 for pc in tower.pieces.values() if pc.symbols)
    for (s, deg, w), piece in tower.pieces.items():
        if not piece.symbols:
            continue
        # d, v, f, r in that order, each one whose target is a piece
        down, up = tuple(c / 2 for c in w), tuple(c * 2 for c in w)
        targets = [("d", (s, deg + 1, w)), ("v", (s + 1, deg, down)),
                   ("f", (s - 1, deg, up)), ("r", (s - 1, deg, w))]
        want = [(op, json.loads(dumps_value(tower.operator_hom(op, piece.key).matrix.to_rows())))
                for op, tgt in targets if tgt in tower.pieces]
        at = json.loads(dumps_value((s, deg, w)))
        assert listed.pop((at[0], at[1], tuple(at[2])), []) == want
    assert listed == {}


def test_cli_drw_build_bytes_pinned(capsys):
    # one variable: the degree-2 pieces are zero and their labels are made
    # on first read; two variables: the degree-2 pieces are derived.  The
    # build documents list degree-2 labels and stay the same byte for byte;
    # their operator matrices are in the coordinates of the reduced Howell
    # rows, so they depend on the lattices alone.  p=3 r=3 cap 8 is the
    # benchmark's tower, and the check runs the product moves and every
    # operator hom of a two-variable tower
    pinned = [
        (["build", "--p", "2", "--r", "3", "--weight-cap", "6"],
         "52a88071f47ef320f167dbb7e48754a5fb28ed305c9a5cae92263a96bbe9a044"),
        (["build", "--p", "2", "--r", "2", "--vars", "2", "--weight-cap", "4"],
         "3d1a65c264987fc45181f42dabbfccc520986047671d3ae4c9c9086048f9714f"),
        (["build", "--p", "3", "--r", "3", "--weight-cap", "8"],
         "7119625f242cd0f9ed54c7e1c6362d9871f8c6601d3a8129b45031f2109b46c0"),
        (["check", "--p", "2", "--r", "2", "--vars", "2", "--weight-cap", "4"],
         "81833502851889c5e7a705c3182814d7e472a66e6c605a7d672dd2a35a57a1b1"),
        # two variables and three levels: the degree-2 pieces hold the
        # products of degree-1 Leibniz relations with the atoms
        (["build", "--p", "2", "--r", "3", "--vars", "2", "--weight-cap", "3"],
         "1d7e80164e17050e5f89f25b1aa768ecba07a1c29529e42328bfc4faeb3b69aa"),
        (["check", "--p", "2", "--r", "3", "--vars", "2", "--weight-cap", "3"],
         "c1f856deed7fd49b7ba0c7d84142d95a4c8e58685a51c9c7c2b0e33b548c7051"),
        # the most fractional weights per cap: its first saturation round
        # is mostly products of seeded rows by lifts
        (["build", "--p", "2", "--r", "3", "--weight-cap", "16"],
         "8e669a35461231afe52c1180aedbf61b07e0de95753caddbf5c51b4196e63029"),
    ]
    for argv, digest in pinned:
        assert main(["drw"] + argv + ["--json", "-"]) == 0
        out = capsys.readouterr().out.encode()
        assert argv[0] == "check" or b'"degree": "2"' in out
        assert hashlib.sha256(out).hexdigest() == digest, argv


def test_cli_drw_build_bytes_do_not_hang_on_insertion_order(monkeypatch, capsys):
    # the same lattices reached through reversed moves and reversed batches
    # store other rows on these two towers; the documents read the reduced
    # Howell form, so they keep every byte
    argvs = [["drw", "build", "--p", "2", "--r", r, "--vars", "2", "--weight-cap", cap,
              "--json", "-"] for r, cap in (("2", "4"), ("3", "3"))]
    plain = []
    for argv in argvs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    moves, insert_batch = drw.TruncatedFVComplex._moves, drw.LatticeModQ.insert_batch
    monkeypatch.setattr(drw.TruncatedFVComplex, "_moves",
                        lambda self, key: moves(self, key)[::-1])
    monkeypatch.setattr(drw.LatticeModQ, "insert_batch",
                        lambda self, rows: insert_batch(self, list(rows)[::-1]))
    for argv, want in zip(argvs, plain):
        assert main(argv) == 0
        assert capsys.readouterr().out == want, argv


# the piece each low-cap tower fails the Langer-Zink count at first, with
# its moduli and the count's: (p, r, cap) -> (weight, moduli, count)
LOW_CAP_WITNESSES = {
    (2, 3, 1): ("Fraction(1, 1)", "(2, 8)", "(8,)"),
    (3, 3, 1): ("Fraction(2, 3)", "(3, 9)", "(9,)"),
    (3, 3, 2): ("Fraction(1, 1)", "(3, 27)", "(27,)"),
    (5, 3, 1): ("Fraction(2, 5)", "(5, 25)", "(25,)"),
    (5, 3, 2): ("Fraction(3, 5)", "(5, 25)", "(25,)"),
    (5, 3, 3): ("Fraction(4, 5)", "(5, 25)", "(25,)"),
    (5, 3, 4): ("Fraction(1, 1)", "(5, 125)", "(125,)"),
    (3, 4, 2): ("Fraction(1, 1)", "(3, 27)", "(27,)"),
    (7, 3, 2): ("Fraction(3, 7)", "(7, 49)", "(49,)"),
    (2, 4, 1): ("Fraction(1, 1)", "(2, 8)", "(8,)"),
}


@pytest.mark.parametrize("p,r,cap", list(LOW_CAP_WITNESSES))
def test_cli_drw_low_cap_fails_the_langer_zink_count(p, r, cap, capsys):
    # a cap too low for the relations of a level-3 piece leaves it too
    # large; the document would list a wrong group, so none is written.
    # Both verbs run the count on the tower they build.
    weight, moduli, count = LOW_CAP_WITNESSES[(p, r, cap)]
    for verb in ("build", "check") if (p, r, cap) == (2, 3, 1) else ("build",):
        argv = ["drw", verb, "--p", str(p), "--r", str(r), "--weight-cap", str(cap)]
        assert main(argv + ["--json", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"check failed: piece at level 3 degree 1 weight ({weight},)"
                       f" has moduli {moduli}; the Langer-Zink count is {count}\n")


def test_cli_hom_that_does_not_descend_is_check_failure(monkeypatch, capsys):
    # a relation at level 2 that F does not carry into level 1: F[x] = [x^2]
    # stays nonzero there, so the F hom out of that piece does not descend.
    # The count check is stubbed, so the descent is what fails.
    seeds = drw.TruncatedFVComplex._local_seeds

    def with_wrong_seed(self, piece):
        out = seeds(self, piece)
        if piece.key == (2, 0, (self.D,)):
            out.append({piece.index[(0, (1,), ())]: 1})
        return out

    monkeypatch.setattr(drw.TruncatedFVComplex, "_local_seeds", with_wrong_seed)
    monkeypatch.setattr(drw, "langer_zink_mismatch", lambda tower: None)
    assert main(["drw", "build", "--p", "2", "--r", "3", "--weight-cap", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("check failed: f out of level 2, degree 0, weight (Fraction(1, 1),):"
                   " matrix does not descend to the quotients\n")


def test_cli_polywitt_bytes_pinned(capsys):
    # the Tate pipeline, its seeded unimodular conjugates and the norm
    # pipeline, byte for byte
    pinned = [
        (["run", "lift"],
         "4b4fa2c407a36291af7f22102f98479706cd291ddf3f4dacdae5a0ae77c2e136"),
        (["polywitt", "compare", "--p", "2", "--d", "4", "--r", "3"],
         "05a6750ca2d042227aeea3c2df2183e57c36c9953150b2c96336bc2cdcd363c2"),
    ]
    for argv, digest in pinned:
        assert main(argv + ["--json", "-"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, argv


# sha256 of `mackey VERB --kind KIND --p P --n N [--orbits O] --json -`: every
# kind at (2, 2) and (3, 1), and two permutation functors whose orbits repeat
# or come in decreasing order, which fix the order of the orbit-sum bases
MACKEY_BYTES = {
    ("build", "constant", 2, 2):
        "70225b8259082de2cf7bd50d0a1ab8d18c389a2a06439f430c552434fde9d863",
    ("boxperm", "constant", 2, 2):
        "02744af4ba1a28ccc8fafe44b499b2930115f5ffe98e6bdde6b3a6832372c78a",
    ("q", "constant", 2, 2):
        "5c6e4df9f40d8960b3710a03ac07206593cad5bdf975d7f73df94204e77b8c12",
    ("witt-basechange", "constant", 2, 2):
        "3f1dff061e7de126ac93c99220248eeedfa770378c6f1fc24f10d45ee63807c5",
    ("build", "constant", 3, 1):
        "d798565e3abf4d25fd8f02635ea9bb7870487a56fb9a29831eb394ceea442419",
    ("boxperm", "constant", 3, 1):
        "958cc5f3bf865824601bd3bae1b51e84c5e9112b235dce9446127242ee07fc58",
    ("q", "constant", 3, 1):
        "d256ad3f2b910dd81ad4661161231a5614341f03902365fa79a49c35119f25ec",
    ("witt-basechange", "constant", 3, 1):
        "fc60d06dae5c845b34fb52658bdd9442bd8c1e8b1cd9369a3a0fb7237ea18eaa",
    ("build", "witt", 2, 2):
        "3f1dff061e7de126ac93c99220248eeedfa770378c6f1fc24f10d45ee63807c5",
    ("boxperm", "witt", 2, 2):
        "bd3c2460f4d74002cb998ede32c9da8cc583dfa6bd924230b069be45a847d2cb",
    ("q", "witt", 2, 2):
        "5c6e4df9f40d8960b3710a03ac07206593cad5bdf975d7f73df94204e77b8c12",
    ("witt-basechange", "witt", 2, 2):
        "3f1dff061e7de126ac93c99220248eeedfa770378c6f1fc24f10d45ee63807c5",
    ("build", "witt", 3, 1):
        "fc60d06dae5c845b34fb52658bdd9442bd8c1e8b1cd9369a3a0fb7237ea18eaa",
    ("boxperm", "witt", 3, 1):
        "0bb4312bbe01e1da1f24a4c5b8fd99936f88515d7dd5bfa898840594d0abf730",
    ("q", "witt", 3, 1):
        "d256ad3f2b910dd81ad4661161231a5614341f03902365fa79a49c35119f25ec",
    ("witt-basechange", "witt", 3, 1):
        "fc60d06dae5c845b34fb52658bdd9442bd8c1e8b1cd9369a3a0fb7237ea18eaa",
    ("build", "zero", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("boxperm", "zero", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("q", "zero", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("witt-basechange", "zero", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("build", "zero", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("boxperm", "zero", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("q", "zero", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("witt-basechange", "zero", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("build", "permutation", 2, 2):
        "02744af4ba1a28ccc8fafe44b499b2930115f5ffe98e6bdde6b3a6832372c78a",
    ("boxperm", "permutation", 2, 2):
        "d3cb738ecbd60821948c8f3dc5cba5c6fc44de08e4c7626c0387101ee545fbc6",
    ("q", "permutation", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("witt-basechange", "permutation", 2, 2):
        "bd3c2460f4d74002cb998ede32c9da8cc583dfa6bd924230b069be45a847d2cb",
    ("build", "permutation", 3, 1):
        "958cc5f3bf865824601bd3bae1b51e84c5e9112b235dce9446127242ee07fc58",
    ("boxperm", "permutation", 3, 1):
        "09eba8676deb0a89ce88f47d1131c37b7a8c008c6a68661fb2a06cd9d47186b9",
    ("q", "permutation", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("witt-basechange", "permutation", 3, 1):
        "0bb4312bbe01e1da1f24a4c5b8fd99936f88515d7dd5bfa898840594d0abf730",
    ("build", "fixed-regular", 2, 2):
        "02744af4ba1a28ccc8fafe44b499b2930115f5ffe98e6bdde6b3a6832372c78a",
    ("boxperm", "fixed-regular", 2, 2):
        "d3cb738ecbd60821948c8f3dc5cba5c6fc44de08e4c7626c0387101ee545fbc6",
    ("q", "fixed-regular", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("witt-basechange", "fixed-regular", 2, 2):
        "bd3c2460f4d74002cb998ede32c9da8cc583dfa6bd924230b069be45a847d2cb",
    ("build", "fixed-regular", 3, 1):
        "958cc5f3bf865824601bd3bae1b51e84c5e9112b235dce9446127242ee07fc58",
    ("boxperm", "fixed-regular", 3, 1):
        "09eba8676deb0a89ce88f47d1131c37b7a8c008c6a68661fb2a06cd9d47186b9",
    ("q", "fixed-regular", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("witt-basechange", "fixed-regular", 3, 1):
        "0bb4312bbe01e1da1f24a4c5b8fd99936f88515d7dd5bfa898840594d0abf730",
    ("build", "fixed-orbit", 2, 2):
        "02744af4ba1a28ccc8fafe44b499b2930115f5ffe98e6bdde6b3a6832372c78a",
    ("boxperm", "fixed-orbit", 2, 2):
        "d3cb738ecbd60821948c8f3dc5cba5c6fc44de08e4c7626c0387101ee545fbc6",
    ("q", "fixed-orbit", 2, 2):
        "b953e853913f6d8875e6aab4020a2076d8d0630cd61a32596607f25d27dc9421",
    ("witt-basechange", "fixed-orbit", 2, 2):
        "bd3c2460f4d74002cb998ede32c9da8cc583dfa6bd924230b069be45a847d2cb",
    ("build", "fixed-orbit", 3, 1):
        "958cc5f3bf865824601bd3bae1b51e84c5e9112b235dce9446127242ee07fc58",
    ("boxperm", "fixed-orbit", 3, 1):
        "09eba8676deb0a89ce88f47d1131c37b7a8c008c6a68661fb2a06cd9d47186b9",
    ("q", "fixed-orbit", 3, 1):
        "16b93569c99a93a9bc5ae2d1fc6c9a0d2f27fc7d46674ba41b3c21d3a953c74b",
    ("witt-basechange", "fixed-orbit", 3, 1):
        "0bb4312bbe01e1da1f24a4c5b8fd99936f88515d7dd5bfa898840594d0abf730",
    ("build", "permutation", 2, 3, "0,0,1,3"):
        "224c525d68f939388c042336ffbad479407e11dd882ac0942c5b6a1b8aa70df7",
    ("build", "permutation", 3, 2, "2,1,0"):
        "3f0952eb998fd68d42841e04675a27ca8972bbf33103a3d6c350aa69625c7612",
    ("boxperm", "permutation", 2, 3, "0,0,1,3"):
        "97168f95963c379757feb3413a8374d424d99be3e00b5e77292a1fde1638aeb1",
    ("boxperm", "permutation", 3, 2, "2,1,0"):
        "35920e309cb3a06dc2739b573c58b664472207557f91d49766d0ce4a454a7e34",
    ("q", "permutation", 2, 3, "0,0,1,3"):
        "f7672178b2c367d2205faf331a65a0675ecaccd90f7aa26e8996b723ff488007",
    ("q", "permutation", 3, 2, "2,1,0"):
        "c58d293398fec4a1176dde7fd7ea383af17f629d81ad2ab98345e809aedbf768",
    ("witt-basechange", "permutation", 2, 3, "0,0,1,3"):
        "35b78aad74229372e5d667c36a13cd4a10a59e400fd868dea66341d7c7c0d105",
    ("witt-basechange", "permutation", 3, 2, "2,1,0"):
        "99696e3505b08d6dd522128833fe7452f159f76eb3f884570d1c51234abb45ca",
}


def test_cli_mackey_bytes_pinned(capsys):
    for p, n in [(2, 2), (3, 1)]:
        for kind in cli._MACKEY_KINDS:
            for verb in ("build", "boxperm", "q", "witt-basechange"):
                assert (verb, kind, p, n) in MACKEY_BYTES
    changed = []
    for key, digest in MACKEY_BYTES.items():
        verb, kind, p, n, *orbits = key
        argv = ["mackey", verb, "--kind", kind, "--p", str(p), "--n", str(n)]
        argv += ["--orbits", orbits[0]] if orbits else []
        assert main(argv + ["--json", "-"]) == 0
        out = capsys.readouterr().out.encode()
        if hashlib.sha256(out).hexdigest() != digest:
            changed.append(key)
    assert changed == []


# run in a fresh interpreter: import the CLI, then run each argv through
# main and report its exit code, whether numpy is loaded and its output hash
_COLD_START = """
import contextlib, hashlib, io, json, sys
import wittnorm.cli
report = [["import", 0, "numpy" in sys.modules, ""]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = wittnorm.cli.main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    report.append([" ".join(argv[:2]), rc, "numpy" in sys.modules, digest])
print(json.dumps(report))
"""


def test_cold_start_loads_numpy_with_the_first_fpx_cover():
    # only the p-adic cover of W_r(F_p[x]) needs numpy: importing the CLI,
    # the polynomial-Witt pipelines, a tower build, the compare suite and F
    # over F_p[x] (a substitution in characteristic p) leave it unloaded,
    # and the first F_p[x] Witt sum loads it; every output is pinned
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argvs = [
        ["polywitt", "compare", "--p", "2", "--d", "2", "--r", "2", "--json", "-"],
        ["drw", "build", "--p", "2", "--r", "2", "--weight-cap", "2", "--json", "-"],
        ["run", "compare", "--json", "-"],
        ["witt", "F", "--p", "3", "--r", "3", "--ring", "fpx",
         "--in", "[[1,2],[0,1],[2,2,1]]", "--json", "-"],
        ["witt", "add", "--p", "2", "--r", "3", "--ring", "fpx",
         "--in", "[[[1,1],[0,1],[1]],[[0,1,1],[1],[1,0,1]]]", "--json", "-"],
    ]
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout) == [
        ["import", 0, False, ""],
        ["polywitt compare", 0, False,
         "3966969cead24298ef01e0f7d7c2c86894056b3b3ba58cfc009d272b59ca23a5"],
        ["drw build", 0, False,
         "94a381053e0600df882da04b9a3bd088abf973e7daed195e058588198c5f0dcf"],
        ["run compare", 0, False,
         "c05fcbb6a1e01ff7977c3a77099672a5ae690e0ac51fab9a2d08b9e6fabc53eb"],
        ["witt F", 0, False,
         "72da17e89dea4199927ebaa62ccd3468bdc58215187f69f53b32512e75428fb7"],
        ["witt add", 0, True,
         "208ef421af49a624292a1479d8fe838dc1f2eb6d3ba5bb0f06b2fea243cf862f"],
    ]


# run in a fresh interpreter: import a module, or import the CLI and run
# one command line through main, then report the wittnorm modules loaded
_LOADED = """
import contextlib, importlib, io, json, sys
what = sys.argv[1]
if what.startswith("wittnorm."):
    importlib.import_module(what)
else:
    import wittnorm.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert wittnorm.cli.main(what.split()) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("wittnorm."))))
"""

# what the CLI loads before it runs a verb: the parser reads SUITE_IDS from
# suites, which loads no layer, and DEFAULT_CAP and the exceptions main
# maps to exit codes come from the package root
_CLI_LAYERS = ["cli", "serialize", "suites"]
_LATTICE = ["abgroups", "intlinalg"]

ENTRY_POINT_LAYERS = {
    "wittnorm.cli": _CLI_LAYERS,
    "wittnorm.suites": ["serialize", "suites"],
    "wittnorm.drw": ["abgroups", "drw", "intlinalg"],
    "wittnorm.witt": ["multipoly", "rings", "witt"],
    "run compare": _CLI_LAYERS + _LATTICE + ["mackey", "polywitt"],
    "drw build --p 2 --r 2 --weight-cap 2": _CLI_LAYERS + _LATTICE + ["drw"],
    "drw check --p 2 --r 2 --weight-cap 2": _CLI_LAYERS + _LATTICE + ["drw"],
    "witt add --p 3 --r 2 --in [[1,2],[0,1]]": _CLI_LAYERS + ["multipoly", "rings", "witt"],
    "mackey build --kind witt": _CLI_LAYERS + _LATTICE + ["mackey"],
    "polywitt compare --p 2 --d 2 --r 2": _CLI_LAYERS + _LATTICE + ["mackey", "polywitt"],
    "trace check --theory orbit": _CLI_LAYERS + _LATTICE + ["mackey", "polywitt", "traces"],
}


@pytest.mark.parametrize("what", list(ENTRY_POINT_LAYERS))
def test_entry_point_loads_only_its_layers(what):
    # each verb and suite imports the layer it runs where it runs it, so a
    # fresh process compiles no module its work does not reach
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, what],
                          capture_output=True, text=True, env=env, check=True)
    want = sorted(f"wittnorm.{name}" for name in ENTRY_POINT_LAYERS[what])
    assert json.loads(proc.stdout) == want


def test_suite_ids_complete():
    assert set(SUITE_IDS) == {
        "witt", "cartier", "mackey", "resolution", "compare",
        "lift", "drw", "trace"}


def test_cli_validates_each_mackey_functor_once(monkeypatch, capsys):
    calls = []
    real = mackey.validate_mackey

    def counting(m):
        calls.append(m)
        real(m)

    for mod in (mackey, cli):
        monkeypatch.setattr(mod, "validate_mackey", counting, raising=False)
    assert main(["mackey", "validate", "--kind", "fixed-regular", "--p", "3", "--n", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "mackey-validation", "ok": True}
    assert len(calls) == 1
    # the norm pipeline validates one functor, the base change to the Witt
    # functor, which is the Smith path's up to a permutation of summands
    calls.clear()
    assert main(["polywitt", "compare", "--p", "2", "--d", "4", "--r", "3"]) == 0
    capsys.readouterr()
    [norm_w] = calls
    rotation = polywitt.tensor_power_action(polywitt.FreeLift(4), mackey.CyclicGroupSpec(2, 2))
    fast, smith, f = orbit_summand_map(rotation)
    assert norm_w == fast and smith == mackey.base_change_to_witt(polywitt.norm_over_Z(polywitt.FreeLift(4), 2, 3))
    assert f.is_isomorphism() and norm_w != smith


def test_cli_non_permutation_fixed_points_are_invalid(monkeypatch, capsys):
    # the generator acting by -1 on Z permutes no basis: exit 3, one line
    def sign_module(p, n):
        z = FgAbGroup([0])
        return mackey.GModule(mackey.CyclicGroupSpec(p, n), z, GroupHom.scalar(z, -1))

    monkeypatch.setattr(mackey, "regular_gmodule", sign_module)
    assert main(["mackey", "build", "--kind", "fixed-regular", "--p", "2", "--n", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: fixed points need a generator that permutes") and err.count("\n") == 1


def test_cli_inexact_division_is_check_failure(monkeypatch, capsys):
    def inexact(self, a, i):
        raise ArithmeticError("inexact division in Witt recursion")

    monkeypatch.setattr(rings.PadicPolyCover, "div_pow_p", inexact)
    assert main(["witt", "mul", "--p", "2", "--r", "2", "--ring", "fpx",
                 "--in", "[[[1,1],[1]],[[0,1],[1]]]"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "check failed: inexact division in Witt recursion\n"


# the shared flags each subcommand no longer registers, with a value
_UNREAD_FLAGS = {
    "witt": [["--seed", "1"], ["--cap", "4"], ["--timings"]],
    "mackey": [["--seed", "1"], ["--cap", "4"], ["--timings"]],
    "polywitt": [["--seed", "1"]],
    "drw": [["--cap", "4"], ["--timings"]],
    "trace": [["--cap", "4"], ["--timings"]],
}

_SMALL_INVOCATIONS = {
    "witt": ["witt", "add", "--p", "2", "--r", "2", "--in", "[[1,0],[1,0]]"],
    "mackey": ["mackey", "build", "--p", "2", "--n", "1"],
    "polywitt": ["polywitt", "compare", "--p", "2", "--d", "1", "--r", "2"],
    "drw": ["drw", "check", "--p", "2", "--r", "1", "--weight-cap", "2"],
    "trace": ["trace", "check", "--theory", "polywitt", "--p", "2", "--r", "3"],
}


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, flag, id=f"{command}{flag[0]}")
    for command, flags in _UNREAD_FLAGS.items() for flag in flags])
def test_cli_unread_flag_is_invalid(command, flag, capsys):
    assert main(_SMALL_INVOCATIONS[command] + flag) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: wittnorm ")
    assert "Traceback" not in err


_WITT_VERBS = ("add", "mul", "F", "V", "R", "teich")


def _small(valid, lo, hi):
    # a valid value half of the time, else any value in lo..hi
    return st.sampled_from(valid) | st.integers(lo, hi)


@st.composite
def _invocations(draw):
    """A small CLI invocation, invalid values included, and whether it
    must exit 3: it carries a flag its subcommand does not read, or a
    negative weight cap."""
    command = draw(st.sampled_from(sorted(_UNREAD_FLAGS)))
    rejected = False
    p, r = draw(_small((2, 3), -1, 4)), draw(_small((1, 2), -1, 2))
    if command == "witt":
        verb = draw(st.sampled_from(_WITT_VERBS))
        ring = draw(st.sampled_from(list(cli._RINGS)))
        comp = st.integers(-3, 3)
        if ring == "fpx":
            comp |= st.lists(st.integers(-3, 3), max_size=2)
        vec = st.lists(comp, min_size=max(r, 0), max_size=max(r, 0))
        payload = draw({"teich": comp, "add": st.tuples(vec, vec),
                        "mul": st.tuples(vec, vec)}.get(verb, vec))
        argv = ["witt", verb, "--p", str(p), "--r", str(r), "--ring", ring,
                "--in", json.dumps(payload)]
    elif command == "mackey":
        argv = ["mackey", draw(st.sampled_from(("build", "validate", "resolve", "boxperm",
                                                "q", "witt-basechange"))),
                "--kind", draw(st.sampled_from(list(cli._MACKEY_KINDS))),
                "--p", str(p), "--n", str(draw(st.integers(-1, 2))), "--r", str(r)]
    elif command == "polywitt":
        argv = ["polywitt", "compare", "--p", str(p), "--d", str(draw(st.integers(-1, 3))),
                "--r", str(r)]
    elif command == "drw":
        verb = draw(st.sampled_from(("build", "check")))
        cap = draw(st.integers(-1, 3))
        rejected = cap < 0
        argv = ["drw", verb, "--p", str(p), "--r", str(r), "--weight-cap", str(cap),
                "--base", draw(st.sampled_from(("fp", "zpN")))]
    else:
        argv = ["trace", "check", "--theory", draw(st.sampled_from(("orbit", "raw", "polywitt"))),
                "--p", str(p), "--r", str(r), "--m", str(draw(st.integers(-1, 3)))]
    if draw(st.integers(0, 3)):
        return argv, rejected
    return argv + draw(st.sampled_from(_UNREAD_FLAGS[command])), True


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_invocations())
def test_cli_sweep_exits_cleanly(invocation):
    argv, rejected = invocation
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if rejected:
        assert code == 3
    assert code in (0, 2, 3)
    if code != 3:
        assert _int_leaves(json.loads(out.getvalue())) == []
