"""Command-line behavior: exit codes, result files, tables, golden dumps."""

import json
import pathlib
import subprocess
import sys

import pytest

from pcsm import cli
from pcsm.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _write_yaml(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def quiet_cfg(tmp_path):
    """A small attack-free scenario that finishes in well under a second."""
    return _write_yaml(
        tmp_path / "quiet.yaml",
        "stack: pcsm\n"
        "duration: 400.0\n"
        "senders: 2\n",
    )


@pytest.fixture
def burst_cfg(tmp_path):
    return _write_yaml(
        tmp_path / "smallburst.yaml",
        "stack: pcsm\n"
        "duration: 500.0\n"
        "senders: 2\n"
        "attack:\n"
        "  kind: burst_injection\n",
    )


def test_run_writes_per_seed_records_and_summary(quiet_cfg, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["run", quiet_cfg, "--seed", "3", "--seed-count", "2",
               "--out", str(out)])
    assert rc == 0

    runs = (out / "quiet.runs.jsonl").read_text().splitlines()
    assert [json.loads(line)["seed"] for line in runs] == [3, 4]
    summary = json.loads((out / "quiet.summary.json").read_text())
    assert summary["runs"] == 2
    assert summary["seeds"] == [3, 4]
    assert summary["conservation_ok"] is True

    shown = capsys.readouterr().out
    assert "mean PDR" in shown
    assert "seed" in shown


def test_run_single_seed_reports_zero_spread(quiet_cfg, tmp_path):
    out = tmp_path / "one"
    assert main(["run", quiet_cfg, "--seed-count", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "quiet.summary.json").read_text())
    assert summary["pdr"]["stdev"] == 0.0
    assert summary["pdr"]["min"] == summary["pdr"]["max"]


def test_run_trace_emits_frame_and_trust_rows(burst_cfg, tmp_path):
    out = tmp_path / "traced"
    rc = main(["run", burst_cfg, "--seed-count", "1", "--out", str(out),
               "--trace"])
    assert rc == 0
    rows = [json.loads(line)
            for line in (out / "smallburst.trace.jsonl").read_text().splitlines()]
    kinds = {row["type"] for row in rows}
    assert kinds == {"frame", "trust"}
    frame = next(row for row in rows if row["type"] == "frame")
    assert set(frame) == {"type", "seed", "time", "source", "origin",
                          "kind", "disposition", "prefiltered"}


def test_run_results_are_byte_stable_across_invocations(quiet_cfg, tmp_path):
    """Same config and seeds must rebuild identical result bytes."""
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["run", quiet_cfg, "--seed-count", "2",
                     "--out", str(out)]) == 0
    assert (a / "quiet.runs.jsonl").read_bytes() == (b / "quiet.runs.jsonl").read_bytes()
    assert (a / "quiet.summary.json").read_bytes() == (b / "quiet.summary.json").read_bytes()


def test_invalid_trust_threshold_exits_2_with_field_name(tmp_path, capsys):
    bad = _write_yaml(
        tmp_path / "bad.yaml",
        "stack: pcsm\nduration: 100.0\ntrust:\n  theta: 1.5\n",
    )
    rc = main(["run", bad, "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "trust.theta" in err


def test_config_that_plans_too_many_arrivals_exits_2_before_any_run(tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(cli, "legit_traffic", None)  # a run would call it and fail
    bad = _write_yaml(tmp_path / "huge.yaml", "stack: pcsm\nduration: 1.0e+12\n")
    rc = main(["run", bad, "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: duration: plans about 2.67e+11")


@pytest.mark.parametrize(
    "raw,diagnostic",
    [(b"stack: pcsm\nname: \xc3\x28\n", "config error: (file): not valid YAML"),
     # a UTF-16 byte order mark: the reader decodes it, to text that is no mapping
     (b"\xff\xfe\x00bad", "config error: config: expected a mapping")],
    ids=["bad-utf8", "utf16-text"],
)
def test_undecodable_config_exits_2(tmp_path, capsys, raw, diagnostic):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(raw)
    rc = main(["run", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(diagnostic)


@pytest.mark.parametrize("name", ['"../escaped"', '"a\\0b"', '"a\\\\b"'],
                         ids=["parent-dir", "nul", "backslash"])
def test_config_name_that_would_leave_out_exits_2(tmp_path, capsys, name):
    cfg = _write_yaml(tmp_path / "named.yaml",
                      f"name: {name}\nstack: pcsm\nduration: 60.0\nsenders: 2\n")
    rc = main(["run", cfg, "--out", str(tmp_path / "work" / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: name: must not contain")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / "named.yaml"]


def test_missing_config_file_exits_3(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.yaml"), "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "io error" in capsys.readouterr().err


def test_out_path_colliding_with_file_exits_3(quiet_cfg, tmp_path, capsys):
    clash = tmp_path / "occupied"
    clash.write_text("already a file\n")
    rc = main(["run", quiet_cfg, "--out", str(clash)])
    assert rc == 3
    assert "io error" in capsys.readouterr().err


def test_matrix_tabulates_and_warns_about_missing_stacks(tmp_path, capsys):
    cfg_dir = tmp_path / "grid"
    cfg_dir.mkdir()
    _write_yaml(cfg_dir / "a.yaml", "stack: vanilla\nduration: 300.0\nsenders: 2\n")
    _write_yaml(cfg_dir / "b.yaml", "stack: pcsm\nduration: 300.0\nsenders: 2\n")
    out = tmp_path / "mx"
    rc = main(["matrix", str(cfg_dir), "--seed-count", "1", "--out", str(out)])
    assert rc == 0

    captured = capsys.readouterr()
    assert "scenario=none stack=csm" in captured.err
    assert "scenario=none stack=secupan" in captured.err
    table = (out / "matrix.txt").read_text()
    assert table.rstrip("\n") in captured.out
    lines = (out / "matrix.jsonl").read_text().splitlines()
    assert [json.loads(x)["stack"] for x in lines] == ["vanilla", "pcsm"]


def test_matrix_keeps_first_config_on_duplicate_cell(tmp_path, capsys):
    cfg_dir = tmp_path / "dup"
    cfg_dir.mkdir()
    _write_yaml(cfg_dir / "first.yaml", "stack: pcsm\nduration: 300.0\nsenders: 2\n")
    _write_yaml(cfg_dir / "second.yaml", "stack: pcsm\nduration: 300.0\nsenders: 2\n")
    out = tmp_path / "mx"
    assert main(["matrix", str(cfg_dir), "--seed-count", "1",
                 "--out", str(out)]) == 0
    assert "defined more than once" in capsys.readouterr().err
    lines = (out / "matrix.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["name"] == "first"


def test_matrix_on_empty_directory_exits_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    rc = main(["matrix", str(empty), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_sensitivity_rejects_attack_free_config(quiet_cfg, tmp_path, capsys):
    rc = main(["sensitivity", quiet_cfg, "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "attack.kind" in capsys.readouterr().err


def test_sensitivity_sweeps_the_full_grid(burst_cfg, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sensitivity", burst_cfg, "--seed-count", "1", "--out", str(out)])
    assert rc == 0

    rows = [json.loads(line)
            for line in (out / "sensitivity.jsonl").read_text().splitlines()]
    assert len(rows) == 12
    grid = {(r["forgetting_factor"], r["threshold"]) for r in rows}
    assert grid == {(f, t) for f in (0.7, 0.8, 0.9, 0.95) for t in (0.2, 0.3, 0.4)}
    labels = [r["label"] for r in rows if r["label"]]
    assert sorted(labels) == ["aggressive", "conservative", "default"]

    table = (out / "sensitivity.txt").read_text()
    assert table.rstrip("\n") in capsys.readouterr().out
    assert "false_blocks_per_100" in table


def test_analytic_prints_model_numbers(capsys):
    assert main(["analytic"]) == 0
    shown = capsys.readouterr().out
    assert "contention_ratio      0.013333" in shown
    assert "availability_primary  0.986667" in shown
    assert "occupancy_standard    1.000000" in shown
    assert "availability_standard 0.000000" in shown
    assert "blacklist_steps       10" in shown


def test_analytic_honors_rate_flags(capsys):
    rc = main(["analytic", "--legit-rate", "0.1", "--attack-rate", "0.3",
               "--slots", "2", "--timeout", "10"])
    assert rc == 0
    shown = capsys.readouterr().out
    assert "contention_ratio      0.020000" in shown
    assert "availability_primary  0.980000" in shown


def test_vectors_stdout_matches_frozen_chain_fixture(capsys):
    assert main(["vectors"]) == 0
    doc = json.loads(capsys.readouterr().out)
    frozen = json.loads((FIXTURES / "hash_chain_vectors.json").read_text())
    assert doc["signature_chains"] == frozen


def test_vectors_frame_headers_match_goldens(capsys):
    main(["vectors"])
    doc = json.loads(capsys.readouterr().out)
    encoded = {v["name"]: v["encoded"] for v in doc["frame_headers"]}
    assert encoded["frag1_base"] == "c0c80007"
    assert encoded["fragn_base"] == "e0c800070c"
    assert encoded["frag1_extended"] == "c0c80007" + "80" + "01020304" + "1122334455667788"
    assert encoded["fragn_extended"] == "e0c80007" + "18" + "ff" + "1122334455667788"


def test_vectors_file_output_is_stable(tmp_path, capsys):
    first = tmp_path / "v1.json"
    second = tmp_path / "nested" / "v2.json"
    assert main(["vectors", "--out", str(first)]) == 0
    assert main(["vectors", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    assert main(["vectors"]) == 0
    assert capsys.readouterr().out == first.read_text()


def test_module_entry_point_runs():
    """The installed package must be executable as a module."""
    proc = subprocess.run(
        [sys.executable, "-m", "pcsm.cli", "analytic"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "blacklist_steps" in proc.stdout


@pytest.mark.parametrize("command", ["run", "matrix", "sensitivity"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_seed_count_below_one_is_a_usage_error(command, count, burst_cfg, tmp_path, capsys):
    target = str(pathlib.Path(burst_cfg).parent) if command == "matrix" else burst_cfg
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exit_info:
        main([command, target, "--seed-count", count, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--seed-count" in err and "must be >= 1" in err
    assert not out.exists()
