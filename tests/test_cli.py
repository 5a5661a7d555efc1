import json
import os

import pytest

from framedvertex.cli import main


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


@pytest.mark.parametrize("cache_text, reason", [
    ("[]", "unrecognized"),
    (table_text(["1,1"], {"1|0": "1/0"}), "zero denominator"),
    # a dense parse of f^1000000 would allocate a million coefficients
    (table_text(["1,1"], {"1|0": "f^1000000"}), "above 4096"),
    (table_text(["0,3", "1,1"], {"2|4": "1"}), "outside the listed cells"),
    (table_text(["0,3", "1,1"], {"0|1,0,0": "1"}), "non-decreasing"),
    (table_text(["0,3", "1,1"], {"1|-1": "1"}), "non-negative"),
    (table_text(["0,2", "0,3", "1,1"], {}), "(0, 2) is not stable"),
], ids=["list", "zero-denominator", "degree-bound", "unlisted-cell",
        "unsorted-index", "negative-index", "unstable-cell"])
def test_malformed_cache_file_is_config_error(tmp_path, capsys, cache_text,
                                              reason):
    (tmp_path / "brackets.json").write_text(cache_text)
    code, _, err = run(["compute", "--chi-max", "1",
                        "--cache", str(tmp_path)], capsys)
    assert code == 2
    assert "unreadable cache file" in err
    assert reason in err
    assert (tmp_path / "brackets.json").read_text() == cache_text
