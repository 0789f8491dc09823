"""Tests of the benchmark itself, at tiny size (a few seconds in all)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference               # noqa: E402
import run as bench            # noqa: E402
import workloads               # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _structure(op):
    """What sets an op's cost, but for its step count: kind, size and
    jump count."""
    params = op.config["parameters"] if op.config else {}
    return (op.kind, op.n, op.suite or "", len(params.get("jumps", [])),
            params.get("system", params.get("circuit", "")))


def _off_grid_ops(ops):
    return {op.op_id for op in ops if op.config
            and not workloads.whole_steps(op.config["parameters"])}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_generates_identical_configs(tmp_path, workload):
    first = workloads.generate(workload, 11, tmp_path / "a")
    again = workloads.generate(workload, 11, tmp_path / "b")
    other = workloads.generate(workload, 12, tmp_path / "c")
    assert [_structure(op) for op in first] \
        == [_structure(op) for op in again]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    # the seed moves values and order, never the cost structure
    assert sorted(map(_structure, first)) == sorted(map(_structure, other))
    if workload != "checks-suite":
        assert _files(tmp_path / "a") != _files(tmp_path / "c")
    nominal = {"linear-flows": workloads.LINEAR_STEPS,
               "nonlinear-flows": workloads.NONLINEAR_STEPS,
               "gkls-large-n": workloads.LARGE_N_STEPS,
               "free-horizons": workloads.FREE_STEPS}.get(workload)
    for op in first + other:
        if op.config:
            params = op.config["parameters"]
            steps = params["t_end"] / params["dt"]
            assert abs(steps / nominal - 1) \
                <= float(workloads.HORIZON_SLACK) + 1e-12


def test_free_horizons_are_drawn_without_regard_to_dt(tmp_path):
    """Over a few seeds some t_end is no whole number of dt steps, the
    draws a program that rounds the step count gets wrong."""
    ops = [workloads.generate("free-horizons", seed, tmp_path / str(seed))
           for seed in range(1, 6)]
    off_grid = sum(len(_off_grid_ops(seed_ops)) for seed_ops in ops)
    assert 0 < off_grid < sum(map(len, ops))


@pytest.mark.parametrize("workload", GATED + ["gkls-large-n"])
def test_timing_workloads_take_whole_steps(tmp_path, workload):
    assert "free-horizons" not in GATED
    for seed in range(1, 6):
        ops = workloads.generate(workload, seed, tmp_path / str(seed))
        assert not _off_grid_ops(ops)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    from dissipgeo import integrators
    rk4_path = integrators.rk4_path
    final, result = bench.run(workload, 3, 1, trace, tmp_path, tiny=True)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in final["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert all(np.isfinite(m["value"]) for m in final["metrics"].values())
    assert final["attempted"] >= 1
    # exactly the ops whose t_end is no whole number of steps fail, as
    # the program rounds t_end / dt to a step count
    ops = workloads.generate(workload, 3, tmp_path / "again", tiny=True)
    off_grid = _off_grid_ops(ops)
    assert {f["op"] for f in result["failures"]} == off_grid
    assert final["failed"] == len(result["failures"])
    assert final["correct"] == (not off_grid)
    if workload != "free-horizons":
        assert final["correct"]
    for f in result["failures"]:
        assert [c.split(":")[0] for c in f["causes"]] \
            in (["ended early"], ["ended late"])
    assert result["environment"]["seed"] == 3
    assert integrators.rk4_path is rk4_path      # tracing was undone
    if trace:
        assert (tmp_path / "spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", ["linear-flows", "nonlinear-flows"])
def test_perturbed_final_csv_row_counts_as_failed(tmp_path, monkeypatch,
                                                  workload):
    from dissipgeo import cli
    write_csv = cli.write_csv

    def perturbed(path, header, rows):
        rows = np.array(rows, dtype=float)
        rows[-1, 1:] += 1e-3
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", perturbed)
    final, result = bench.run(workload, 5, 1, 1, tmp_path, tiny=True)
    assert not final["correct"]
    assert final["failed"] == final["attempted"] > 0
    assert result["failed_ops"] == 1.0
    ops = workloads.generate(workload, 5, tmp_path / "again", tiny=True)
    off_grid = _off_grid_ops(ops)
    for f in result["failures"]:
        expected = "ended" if f["op"] in off_grid else "reference miss"
        assert all(c.startswith(expected) for c in f["causes"])


def test_missing_invariant_counts_as_failed(tmp_path):
    names = reference.SUITES["mechanics"]["invariants"]
    report = [{"name": name, "passed": True, "residual": 0.0}
              for name in names]
    (tmp_path / "checks_report.json").write_text(json.dumps(report))
    assert reference.check_suite("mechanics", tmp_path) == []
    (tmp_path / "checks_report.json").write_text(json.dumps(report[1:]))
    assert reference.check_suite("mechanics", tmp_path) \
        == [f"invariant {names[0]} missing from the report"]


def test_tail_keeps_ten_samples_above():
    assert bench.tail(list(range(30, 0, -1))) == (20, 100.0 * 20 / 30)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "linear-flows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
