"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q

The smoke runs call the benchmark's main() in-process on workloads cut to
two blocks per call and one set-up, so they check behaviour, not speed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the program's src/ on sys.path

import hostspeed
import layers
from concat_ira import bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# The metrics the benchmark is specified to report, listed independently of
# BENCHMARK.json so that dropping one from both places still fails.
END_TO_END = {"blocks_per_s": "blocks/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "spa.busy_s", "spa.us_per_codeword_iter", "spa.calls", "spa.rows_per_call",
    "spa.codeword_iters", "spa.converged_frac", "concat.encode_s", "concat.self_s",
    "concat.outer_iters", "concat.block_ms_p50", "concat.block_ms_p90",
    "interleave.apply_calls", "interleave.apply_s", "interleave.escalate_s",
    "interleave.design_t", "interleave.repairs", "interleave.perm_io_s", "ira.encode_s",
    "ira.build_s", "channel.busy_s", "channel.calls", "stopping.histogram_s",
    "gf2.alist_io_s", "bench.harness_s", "bench.pool_efficiency", "bench.call_fixed_s",
    "bench.trace_overhead", "bench.unattributed_frac",
}
SMOKE_ARGS = ["--seed", "5", "--seconds", "0"]


def test_spec_declares_the_specified_metrics():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    small = dataclasses.replace(run.WORKLOADS[workload], blocks=2, setups=1)
    monkeypatch.setitem(run.WORKLOADS, workload, small)
    assert run.main(["--workload", workload, "--trace", str(trace), *SMOKE_ARGS]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and line.split()[3] == unit for line in lines)
    assert any(line.startswith("failed_frac = 0.0 ratio") for line in lines)
    assert lines[0].startswith("host ")
    host = json.loads(lines[0][len("host "):])
    assert {"cores", "affinity", "cpu_model", "python", "numpy", "limits"} <= set(host)


@pytest.mark.parametrize("workload", ["concat-waterfall", "single-longiter"])
def test_traced_and_untraced_rows_are_identical(workload, tmp_path):
    wl = run.WORKLOADS[workload]
    base = run.set_up(wl, tmp_path)
    config = run.curve_config(base, 2, run.repeat_seed(5, 0), 1)
    _, plain = run.run_row(config)
    original = bench.run_curve
    tracer = layers.Tracer()
    with tracer.installed():
        _, traced = run.run_row(config)
    assert bench.run_curve is original
    assert traced == plain
    per_call = layers.curve_layers(tracer.take())
    assert per_call["spa.calls"] > 0 and per_call["channel.calls"] > 0
    assert 0.0 <= per_call["bench.harness_s"] <= per_call["wall_s"]


def test_row_check_rejects_a_row_that_differs_from_the_reference():
    config = run.curve_config(
        bench.SimConfig(system="concat", ebno_db=(3.0,), output="unused.csv"),
        2, 1000, 1,
    )
    good = "3,2,6,1,0.00018310546875,0.5,6.5,5.5,1000"
    assert run.row_problems(good, config, 2, {}) == []
    assert run.row_problems(good, config, 2, {"1000": good}) == []
    assert run.row_problems(good, config, 2, {"1000": good.replace(",6,1,", ",7,1,")})
    assert run.row_problems(good.replace(",6,1,", ",7,1,"), config, 2, {})  # ber disagrees
    assert run.row_problems(good, config, 3, {})  # wrong block count
    assert run.row_problems(good.replace(",6,1,", ",x,1,"), config, 2, {})  # unparsable


def test_host_speed_sample_runs_whole_units():
    speed = hostspeed.HostSpeed()
    assert speed.sample(0.0) > 0.0 and speed.units == 1
    speed.sample(0.05)
    assert speed.units > 1 and speed.seconds >= 0.05
    assert speed.factor() > 0.0


def test_exits_nonzero_without_the_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "concat-waterfall", "--trace", "0",
         *SMOKE_ARGS],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
