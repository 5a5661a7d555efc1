import argparse
import hashlib
import json
import os
from collections import Counter

import pytest

from framedvertex.cli import build_parser, main
from framedvertex.curvefun import PhiTower
from framedvertex.engine import run_to_budget
from framedvertex.errors import (ArityMismatch, DegreeCapExceeded,
                                 DivisionByZero, InsufficientTruncation,
                                 MissingDependency, SymmetryViolation,
                                 UnstableDependency)
from framedvertex.kernels import (KernelWorkspace, kernel_I_via_involution,
                                  kernel_II_symmetrized)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_chi1_writes_seed_cells(tmp_path, capsys):
    code, out, _ = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "brackets.json").read_text())
    assert obj["cells"] == ["0,3", "1,1"]
    assert obj["entries"]["1|0"] == "(f^2+f+1)/24"
    assert "cell g=0 n=3" in out


def test_compute_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["compute", "--chi-max", "2", "--cache", str(a)], capsys)[0] == 0
    assert run(["compute", "--chi-max", "2", "--cache", str(b)], capsys)[0] == 0
    assert (a / "brackets.json").read_bytes() == (b / "brackets.json").read_bytes()
    # recompute over the warm cache leaves the file identical
    before = (a / "brackets.json").read_bytes()
    assert run(["compute", "--chi-max", "2", "--cache", str(a)], capsys)[0] == 0
    assert (a / "brackets.json").read_bytes() == before


def test_compute_chi3_cells(tmp_path, capsys):
    code, _, _ = run(["compute", "--chi-max", "3",
                      "--cache", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "brackets.json").read_text())
    assert obj["cells"] == ["0,3", "0,4", "0,5", "1,1", "1,2", "1,3", "2,1"]


def test_compute_with_rational_framing(tmp_path, capsys):
    code, out, _ = run(["compute", "--chi-max", "1", "--framing", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    spec = json.loads((tmp_path / "brackets.at_2_1.json").read_text())
    assert spec["entries"]["1|0"] == "7/24"
    assert spec["entries"]["1|1"] == "-1/4"


def test_verify_oracle(tmp_path, capsys):
    code, out, _ = run(["verify", "--suite", "oracle", "--chi-max", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert (tmp_path / "report_oracle.json").exists()


def test_verify_cutjoin_chi2(tmp_path, capsys):
    code, out, _ = run(["verify", "--suite", "cutjoin", "--chi-max", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report_cutjoin.json").read_text())
    cells = {(row["g"], row["n"]) for row in report["cutjoin"]}
    assert cells == {(0, 4), (1, 2)}
    assert all(row["passed"] for row in report["cutjoin"])


def test_verify_kernels(tmp_path, capsys):
    code, out, _ = run(["verify", "--suite", "kernels", "--chi-max", "2",
                        "--seed", "7", "--cache", str(tmp_path)], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_symmetry(tmp_path, capsys):
    code, out, _ = run(["verify", "--suite", "symmetry", "--chi-max", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    assert "FAIL" not in out
    # one row per cell above the seeds, (0, 4) and (1, 2), each derived
    # again from the cells below it
    rows = [json.loads(line.split(" ", 2)[2]) for line in out.splitlines()]
    assert [row["check"] for row in rows] == ["rederived"] * 2


@pytest.mark.parametrize("suite, want", [
    ("cutjoin", [(0, 4), (1, 2)]),
    ("symmetry", [("rederived", 0, 4), ("rederived", 1, 2)]),
    ("oracle", [(0, 3), (0, 4), ("one-point anchor",)]),
])
def test_verify_suites_honour_chi_max(tmp_path, capsys, suite, want):
    # the cache holds every cell through (3, 1), left by an export
    assert run(["export", "--cell", "3,1", "--chi-max", "1",
                "--cache", str(tmp_path)], capsys)[0] == 0
    code, out, _ = run(["verify", "--suite", suite, "--chi-max", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    rows = [json.loads(line.split(" ", 2)[2]) for line in out.splitlines()]
    keys = [tuple(row[k] for k in ("check", "g", "n") if k in row)
            for row in rows]
    assert keys == want


def test_export_one_point_cell(tmp_path, capsys):
    code, out, _ = run(["export", "--cell", "1,1", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    rows = json.loads(out)
    values = {row["b"]: row["value"] for row in rows}
    assert values == {"0": "(f^2+f+1)/24", "1": "(-f^2-f)/24"}


def test_export_cell_specialized(tmp_path, capsys):
    code, out, _ = run(["export", "--cell", "1,1", "--chi-max", "1",
                        "--at-f", "2", "--output", "csv",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,b,value"
    assert set(lines[1:]) == {"1,0,7/24", "1,1,-1/4"}


def test_export_pair_kernel_top_coefficient(tmp_path, capsys):
    code, out, _ = run(["export", "--kernel", "0,0", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0
    rows = {row["exponent"]: row["value"] for row in json.loads(out)}
    assert rows[4] == "(-f^2)/(2*f^3+6*f^2+6*f+2)"


def test_export_point_kernel(tmp_path, capsys):
    code, out, _ = run(["export", "--kernel2", "0", "--chi-max", "1",
                        "--output", "csv", "--cache", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "exponent_t,exponent_ti,value"
    assert len(lines) > 3


def test_pole_at_framing_is_config_error(tmp_path, capsys):
    code, _, err = run(["export", "--kernel", "0,0", "--chi-max", "1",
                        "--at-f", "-1", "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "vanishes" in err


def test_bad_usage_exits_2(tmp_path, capsys):
    code, _, err = run(["export", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    code, _, err = run(["compute", "--chi-max", "0",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--chi-max", "notanumber", "--cache", str(tmp_path)])
    assert exc.value.code == 2


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi_max": 2, "cache": str(tmp_path / "fromcfg")}))
    code, _, _ = run(["compute", "--config", str(cfg)], capsys)
    assert code == 0
    assert (tmp_path / "fromcfg" / "brackets.json").exists()
    obj = json.loads((tmp_path / "fromcfg" / "brackets.json").read_text())
    assert "0,4" in obj["cells"]
    # explicit flag beats the config value
    code, _, _ = run(["compute", "--config", str(cfg), "--chi-max", "1",
                      "--cache", str(tmp_path / "flagwins")], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "flagwins" / "brackets.json").read_text())
    assert obj["cells"] == ["0,3", "1,1"]


def test_env_cache_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMEDVERTEX_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run(["compute", "--chi-max", "1"], capsys)
    assert code == 0
    assert (tmp_path / "envcache" / "brackets.json").exists()


def test_config_file_loses_to_flag_equal_to_default(tmp_path, capsys):
    # --chi-max 3 is also the parser default; the flag must still win
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi_max": 2}))
    code, _, _ = run(["compute", "--chi-max", "3", "--config", str(cfg),
                      "--cache", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "brackets.json").read_text())
    assert "2,1" in obj["cells"]


def test_config_file_values_get_option_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi_max": "2"}))
    code, _, _ = run(["compute", "--config", str(cfg),
                      "--cache", str(tmp_path)], capsys)
    assert code == 0
    obj = json.loads((tmp_path / "brackets.json").read_text())
    assert obj["cells"] == ["0,3", "0,4", "1,1", "1,2"]
    cfg.write_text(json.dumps({"chi_max": "two"}))
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--config", str(cfg), "--cache", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([["chi_max", 2]]))
    code, _, err = run(["compute", "--config", str(cfg),
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "JSON object" in err
    assert not (tmp_path / "brackets.json").exists()


def test_deeply_nested_config_file_is_config_error(tmp_path, capsys):
    # too deep for the JSON reader, which raises RecursionError
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100000)
    code, _, err = run(["compute", "--config", str(cfg),
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "cannot read config file" in err
    assert not (tmp_path / "brackets.json").exists()


def test_failed_write_keeps_previous_table(tmp_path, capsys, monkeypatch):
    assert run(["compute", "--chi-max", "1",
                "--cache", str(tmp_path)], capsys)[0] == 0
    before = (tmp_path / "brackets.json").read_bytes()

    def fail(src, dst):
        raise OSError("injected failure")

    monkeypatch.setattr(os, "replace", fail)
    code, _, err = run(["compute", "--chi-max", "2",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "injected failure" in err
    assert (tmp_path / "brackets.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["brackets.json"]


def test_cache_naming_a_file_is_config_error(tmp_path, capsys):
    target = tmp_path / "not-a-dir"
    target.write_text("")
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(target)], capsys)
    assert code == 2
    assert err.startswith("error: ")


def table_text(cells, entries):
    return json.dumps({"format": "framedvertex-brackets", "version": 1,
                       "cells": cells, "entries": entries})


# the entries of the seed cells (0, 3) and (1, 1)
SEEDS = {"0|0,0,0": "1", "1|0": "(f^2+f+1)/24", "1|1": "(-f^2-f)/24"}


@pytest.mark.parametrize("cache_text, reason", [
    ("[]", "unrecognized"),
    (table_text(["1,1"], {"1|0": "1/0"}), "zero denominator"),
    # a dense parse of f^1000000 would allocate a million coefficients
    (table_text(["1,1"], {"1|0": "f^1000000"}), "above 4096"),
    # every table value lies in Z[f, 1/f, 1/(f+1)] up to a scalar
    (table_text(["1,1"], {"1|0": "1/(f^2+1)"}), "prime to f(f+1)"),
    (table_text(["0,3", "1,1"], {"2|4": "1"}), "outside the listed cells"),
    (table_text(["0,3", "1,1"], {"0|1,0,0": "1"}), "non-decreasing"),
    (table_text(["0,3", "1,1"], {"1|-1": "1"}), "non-negative"),
    (table_text(["0,3", "1,1"], {"1|2": "1"}),
     "entry 1|2 sums past the support bound 1"),
    (table_text(["0,2", "0,3", "1,1"], {}), "(0, 2) is not stable"),
    # every cell is computed from the seeds, so wrong seeds make a wrong
    # table that the suites pass
    (table_text(["0,3", "1,1"], {}),
     "seed cell (0, 3) does not hold the seed values"),
    (table_text(["1,1"], {"1|0": "(f^2+f+1)/24", "1|1": "1"}),
     "seed cell (1, 1) does not hold the seed values"),
    # a listed cell without entries: the recursion would read it as zero
    (table_text(["0,3", "1,1", "0,4"], SEEDS), "cell (0, 4) holds no entry"),
    (table_text(["0,3", "1,1", "0,5"], SEEDS), "cell (0, 5) holds no entry"),
    # a table never stores zero, so compute would write it back
    (table_text(["0,3", "1,1"], {"0|0,0,0": "0"}), "entry 0|0,0,0 is zero"),
    # a file cut off mid-write
    (table_text(["0,3", "1,1"], {"0|0,0,0": "1", "1|1": "1/24"})[:60],
     "Expecting value"),
    # too deep for the JSON reader, which raises RecursionError
    ("[" * 100000, "maximum recursion depth"),
    # in bound, but a second spelling of the seed entry's key 1|0, whose
    # value would replace the true one
    (table_text(["0,3", "1,1"], {"0|0,0,0": "1", "1|0": "(f^2+f+1)/24",
                                 "1|00": "5"}),
     "entry key '1|00' is not the canonical '1|0'"),
    (table_text(["0,3", "1,1"], {"0|0,0,0": "1", "1|0": "(f^2+f+1)/24"})
     .replace('"1|0": "(f^2+f+1)/24"',
              '"1|0": "(f^2+f+1)/24", "1|0": "5"'),
     "key '1|0' appears twice"),
    # keys and cells that do not parse are named in the message
    (table_text(["0,3", "1,1"], {"10": "1"}), "bad entry key '10'"),
    (table_text(["0,3", "1,1"], {"1|a": "1"}), "bad entry key '1|a'"),
    (table_text(["0,3", "1,1"], {"1|0,": "1"}), "bad entry key '1|0,'"),
    (table_text(["0,3", "1"], {}), "bad cell '1'"),
    (table_text(["0,3", "0,x"], {}), "bad cell '0,x'"),
    # a value has one spelling, the one compute writes: a lenient reader
    # takes f*f and ff for 2*f and 01 for 1, and the same values written
    # back make a table that a later compute blames on the program
    (table_text(["0,3", "1,1", "0,4"], {**SEEDS, "0|0,0,0,1": "f*f"}),
     "not the canonical"),
    (table_text(["0,3", "1,1", "0,4"], {**SEEDS, "0|0,0,0,1": "ff"}),
     "not the canonical"),
    (table_text(["0,3", "1,1", "0,4"], {**SEEDS, "0|0,0,0,1": "01"}),
     "not the canonical"),
    (table_text(["0,3", "1,1"], {**SEEDS, "1|0": "(f^2+f+1)/(24)"}),
     "not the canonical"),
], ids=["list", "zero-denominator", "degree-bound", "foreign-denominator",
        "unlisted-cell", "unsorted-index", "negative-index", "past-support",
        "unstable-cell", "seed-cell-empty", "seed-cell-wrong-value",
        "nonseed-cell-empty-0-4", "nonseed-cell-empty-0-5",
        "zero-entry", "cut-mid-file", "deep-nesting",
        "second-spelling", "repeated-key", "key-without-bar",
        "key-index-not-int", "key-trailing-comma", "cell-without-comma",
        "cell-not-int", "value-f-times-f", "value-ff", "value-leading-zero",
        "seed-value-parenthesized-scalar"])
def test_malformed_cache_file_is_config_error(tmp_path, capsys, cache_text,
                                              reason):
    (tmp_path / "brackets.json").write_text(cache_text)
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "unreadable cache file" in err
    assert reason in err
    assert (tmp_path / "brackets.json").read_text() == cache_text


def test_cache_without_seed_cells_gets_the_seeds(tmp_path, capsys):
    # a well-formed file that lists no cell: the seeds are filled in, so
    # the table is the one computed on an empty cache, not all zero
    (tmp_path / "brackets.json").write_text(table_text([], {}))
    code, _, err = run(["compute", "--chi-max", "4",
                        "--cache", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256((tmp_path / "brackets.json").read_bytes()) \
        .hexdigest() == ("4b7dc5b486d53c73a206b00487a097da"
                         "6ea84d74c7af88e3ee16c670cabe2e3b")


def test_bad_cache_value_names_its_entry(tmp_path, capsys):
    cache_text = table_text(["1,1"], {"1|0": "1/(f^2+1)"})
    (tmp_path / "brackets.json").write_text(cache_text)
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "bad value for 1|0: " in err
    assert "prime to f(f+1)" in err


def test_long_bad_cache_value_is_quoted_short(tmp_path, capsys):
    # 4685 characters, not in the spelling compute writes: the message
    # names the entry and quotes a bounded prefix of the value
    value = "+".join("f^%d" % k for k in range(1, 800))
    assert len(value) == 4685
    (tmp_path / "brackets.json").write_text(
        table_text(["0,3", "1,1"], {**SEEDS, "1|1": value}))
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert len(err.encode()) < 400
    assert "bad value for 1|1: " in err
    assert "not the canonical" in err


def test_kernels_suite_checks_the_swapped_pair_order(tmp_path, capsys,
                                                     monkeypatch):
    import framedvertex.cli as cli
    real = cli.kernel_I

    def lopsided(a, b, eta, curve):
        poly = real(a, b, eta, curve)
        return poly if a <= b else poly + poly

    monkeypatch.setattr(cli, "kernel_I", lopsided)
    code, out, _ = run(["verify", "--suite", "kernels", "--chi-max", "3",
                        "--seed", "3", "--cache", str(tmp_path)], capsys)
    assert code == 1
    rows = []
    for line in out.splitlines():
        status, suite, body = line.split(" ", 2)
        row = json.loads(body)
        if row["kernel"] != "point":
            rows.append(row)
            # each row compares with kernel_I(b, a), lopsided when b > a
            assert (status == "PASS") == (row["a"] >= row["b"]), line
    assert [r["kernel"] for r in rows].count("pair") == 6
    assert {(r["a"], r["b"]) for r in rows
            if r["kernel"] == "pair-symmetry-sample"} == {(0, 2), (2, 0)}


def test_tampered_entry_fails_cutjoin(tmp_path, capsys):
    assert run(["compute", "--chi-max", "3",
                "--cache", str(tmp_path)], capsys)[0] == 0
    path = tmp_path / "brackets.json"
    obj = json.loads(path.read_text())
    # a well-formed value, taken from a neighbouring entry of cell (2, 1)
    assert obj["entries"]["2|2"] != obj["entries"]["2|1"]
    obj["entries"]["2|2"] = obj["entries"]["2|1"]
    path.write_text(json.dumps(obj))
    code, out, err = run(["verify", "--suite", "cutjoin", "--chi-max", "3",
                          "--cache", str(tmp_path)], capsys)
    assert code == 1
    failed = [json.loads(line.split(" ", 2)[2])
              for line in out.splitlines() if line.startswith("FAIL")]
    assert [(row["g"], row["n"]) for row in failed] == [(2, 1)]
    assert "first failure in suite 'cutjoin'" in err


def test_tampered_entry_fails_symmetry(tmp_path, capsys):
    assert run(["compute", "--chi-max", "5",
                "--cache", str(tmp_path)], capsys)[0] == 0
    path = tmp_path / "brackets.json"
    obj = json.loads(path.read_text())
    # doubled: canonical and in bound, so the loader takes it
    assert obj["entries"]["1|0,2"] == "(-f^2-f)/24"
    obj["entries"]["1|0,2"] = "(-f^2-f)/12"
    path.write_text(json.dumps(obj))
    code, out, err = run(["verify", "--suite", "symmetry", "--chi-max", "5",
                          "--cache", str(tmp_path)], capsys)
    assert code == 1
    rows = [(line.split(" ", 1)[0], json.loads(line.split(" ", 2)[2]))
            for line in out.splitlines()]
    assert len(rows) == 12
    # (1, 2) and (2, 1), which reads it, differ from the stored cells; the
    # steps of (1, 3), (1, 4), (2, 2), (1, 5) and (2, 3) read it on
    # different slots and fail their own symmetry check
    assert [(row["g"], row["n"]) for status, row in rows
            if status == "FAIL"] == [(1, 2), (1, 3), (2, 1), (1, 4), (2, 2),
                                     (1, 5), (2, 3)]
    assert "first failure in suite 'symmetry'" in err


@pytest.mark.parametrize("a, b, chi_max", [(1, 1, 1), (4, 4, 4), (5, 5, 5)])
def test_export_pair_kernel_sized_by_request(tmp_path, capsys, a, b, chi_max):
    # the workspace of --chi-max alone is too small for each of these
    code, out, err = run(["export", "--kernel", "%d,%d" % (a, b),
                          "--chi-max", str(chi_max),
                          "--cache", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    ws = KernelWorkspace(a + b)
    want = kernel_I_via_involution(a, b, ws.curve, PhiTower())
    assert {row["exponent"]: row["value"] for row in json.loads(out)} == {
        e: c.as_text() for (e,), c in want.terms()}


def test_export_point_kernel_sized_by_request(tmp_path, capsys):
    code, out, err = run(["export", "--kernel2", "7", "--chi-max", "2",
                          "--cache", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    ws = KernelWorkspace(7)
    want = kernel_II_symmetrized(7, ws.curve, ws.tower)
    assert {(row["exponent_t"], row["exponent_ti"]): row["value"]
            for row in json.loads(out)} == {
        e: c.as_text() for e, c in want.terms()}


@pytest.mark.parametrize("argv, reason", [
    (["--kernel", "0,-1"], "--kernel indices"),
    (["--kernel=-1,2"], "--kernel indices"),
    (["--kernel2", "-1"], "--kernel2 must"),
    # an empty value is a bad value, not an absent option
    (["--cell", ""], "bad --cell ''"),
    (["--kernel", ""], "bad --kernel ''"),
    (["--kernel2", "0", "--at-f", ""], "bad --at-f value ''"),
])
def test_export_negative_kernel_index_is_config_error(tmp_path, capsys, argv,
                                                      reason):
    code, out, err = run(["export"] + argv + ["--cache", str(tmp_path)],
                         capsys)
    assert (code, out) == (2, "")
    assert reason in err


@pytest.mark.parametrize("chi_max", [None, "2"])
def test_export_cell_computes_the_cells_below_it(tmp_path, capsys, chi_max):
    argv = ["export", "--cell", "3,1", "--cache", str(tmp_path)]
    if chi_max is not None:
        argv += ["--chi-max", chi_max]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    want = run_to_budget(4, extra_cells=[(3, 1)]).cell_entries(3, 1)
    assert {row["b"]: row["value"] for row in json.loads(out)} == {
        str(key[0]): value.as_text() for key, value in want.items()}


@pytest.mark.parametrize("argv, reason", [
    (["compute", "--truncation-margin", "4"], "unrecognized arguments"),
    (["verify", "--truncation-margin", "4"], "unrecognized arguments"),
    (["export", "--kernel", "0,0", "--truncation-margin", "4"],
     "unrecognized arguments"),
    (["compute", "--output", "csv"], "unrecognized arguments"),
    (["verify", "--output", "csv"], "unrecognized arguments"),
    (["export", "--kernel", "0,0", "--seed", "1"], "unrecognized arguments"),
])
def test_inert_options_are_usage_errors(tmp_path, capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cache", str(tmp_path)])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "brackets.json").exists()


def test_truncation_margin_config_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation_margin": 4}))
    code, _, err = run(["compute", "--config", str(cfg), "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown config key 'truncation_margin'" in err
    assert not (tmp_path / "brackets.json").exists()


def test_each_subcommand_accepts_only_the_options_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = {name: sorted(opt for action in parser._actions
                            for opt in action.option_strings
                            if opt not in ("-h", "--help"))
               for name, parser in subparsers.choices.items()}
    common = ["--cache", "--chi-max", "--config"]
    assert options == {
        "compute": sorted(common + ["--framing", "--seed"]),
        "verify": sorted(common + ["--seed", "--suite"]),
        "export": sorted(common + ["--at-f", "--cell", "--kernel",
                                   "--kernel2", "--out", "--output"]),
    }


@pytest.mark.parametrize("error", [MissingDependency, DegreeCapExceeded,
                                   InsufficientTruncation, DivisionByZero,
                                   ArityMismatch, UnstableDependency])
def test_program_faults_exit_3(tmp_path, capsys, monkeypatch, error):
    import framedvertex.cli as cli

    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "run_to_budget", fail)
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 3
    assert err == "internal invariant violation: injected\n"


def test_kernels_suite_fails_on_corrupted_compositions_through_s(
        tmp_path, capsys, monkeypatch):
    # a fresh curve, so its memo of compositions starts empty and the
    # corrupted ones leave with it; every power of s(t(v)) doubled
    # doubles phi(s(t(v))), which only the point form reads
    import framedvertex.curve as curve_module
    monkeypatch.setattr(curve_module, "_CACHE", {})
    real = curve_module.CurveSeries.powers

    class Doubled:
        def __init__(self, table):
            self.lead = table.lead
            self.table = table

        def row(self, k, m):
            return [w * 2 for w in self.table.row(k, m)]

    def corrupted(curve, inner):
        table = real(curve, inner)
        return Doubled(table) if inner == "s_t_of_v" else table

    monkeypatch.setattr(curve_module.CurveSeries, "powers", corrupted)
    code, out, _ = run(["verify", "--suite", "kernels", "--chi-max", "3",
                        "--seed", "3", "--cache", str(tmp_path)], capsys)
    assert code == 1
    rows = [(line.split(" ", 2)[0], json.loads(line.split(" ", 2)[2]))
            for line in out.splitlines()]
    points = [status for status, row in rows if row["kernel"] == "point"]
    assert points and set(points) == {"FAIL"}
    assert {status for status, row in rows if row["kernel"] != "point"} \
        == {"PASS"}


def test_symmetry_violation_from_cache_file_is_config_error(tmp_path,
                                                            capsys):
    # a chi <= 4 cache with 1|0,2 doubled: canonical and in bound, so the
    # loader takes it, but the step of (1, 5) reads it on different slots
    assert run(["compute", "--chi-max", "4",
                "--cache", str(tmp_path)], capsys)[0] == 0
    path = tmp_path / "brackets.json"
    obj = json.loads(path.read_text())
    obj["entries"]["1|0,2"] = "(-f^2-f)/12"
    text = json.dumps(obj)
    path.write_text(text)
    for command in ("compute", "verify"):
        code, out, err = run([command, "--chi-max", "5",
                              "--cache", str(tmp_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: cache file %s " % path)
        assert "cell (1,5): asymmetric extraction" in err
        assert path.read_text() == text


@pytest.mark.parametrize("stored", ["none", "seeds"])
def test_symmetry_violation_on_a_fresh_cache_exits_3(tmp_path, capsys,
                                                     monkeypatch, stored):
    # a cache file of the seed cells alone holds nothing the loader did
    # not check, so a step that fails its symmetry check is the program's
    import framedvertex.engine as engine
    if stored == "seeds":
        assert run(["compute", "--chi-max", "1",
                    "--cache", str(tmp_path)], capsys)[0] == 0
    real = engine.recursion_step

    def step(g, n, table, workspace):
        if (g, n) == (1, 2):
            raise SymmetryViolation("cell (1,2): injected")
        return real(g, n, table, workspace)

    monkeypatch.setattr(engine, "recursion_step", step)
    code, _, err = run(["compute", "--chi-max", "3",
                        "--cache", str(tmp_path)], capsys)
    assert code == 3
    assert err == "internal invariant violation: cell (1,2): injected\n"


def test_cold_symmetry_suite_builds_each_kernel_once(tmp_path, capsys,
                                                     monkeypatch):
    # the cells computed on the cold cache and the suite's re-derivation
    # share one workspace
    import framedvertex.kernels as kernels
    built = Counter()
    for name in ("kernel_I", "kernel_II"):
        def spy(*args, real=getattr(kernels, name), name=name):
            built[name, args[:-2]] += 1
            return real(*args)
        monkeypatch.setattr(kernels, name, spy)
    code, out, _ = run(["verify", "--suite", "symmetry", "--chi-max", "5",
                        "--cache", str(tmp_path)], capsys)
    assert code == 0 and len(out.splitlines()) == 12
    assert {name for name, _ in built} == {"kernel_I", "kernel_II"}
    assert set(built.values()) == {1}


def test_verify_on_a_full_table_builds_no_curve(tmp_path, capsys,
                                                monkeypatch):
    import framedvertex.curve as curve_module
    assert run(["compute", "--chi-max", "3",
                "--cache", str(tmp_path)], capsys)[0] == 0
    monkeypatch.setattr(curve_module, "_CACHE", {})
    for suite in ("cutjoin", "oracle"):
        assert run(["verify", "--suite", suite, "--chi-max", "3",
                    "--cache", str(tmp_path)], capsys)[0] == 0
    assert curve_module._CACHE == {}
