"""Self-test of the benchmark's checks, and a smoke run of every workload.

    python3 -m pytest perfbench/tests

The checks must turn a result that is off by one ulp, or a broken cache
counter identity, into a failed op; a short run of every workload must
print every metric BENCHMARK.json names, with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402


def one_ulp_up(x):
    return np.nextafter(x, np.inf)


@pytest.fixture(scope="module")
def evict():
    wl = workloads.GemmEvictHetero()
    wl.setup_program(0)
    wl.prepare(0, None)
    c, stats = wl.op()
    assert wl.check((c, stats)).ok
    return wl, c, stats


def test_gemm_result_one_ulp_off_fails(evict):
    wl, c, stats = evict
    bad = c.copy()
    bad[5, 7] = one_ulp_up(bad[5, 7])
    res = wl.check((bad, stats))
    assert not res.ok and "1 element" in res.reason


def test_gemm_broken_counter_identity_fails(evict):
    wl, c, stats = evict
    stats.cache.l1_hits += 1
    try:
        res = wl.check((c, stats))
    finally:
        stats.cache.l1_hits -= 1
    assert not res.ok and "identity" in res.reason


def test_cli_checks(tmp_path):
    wl = workloads.GemmCli()
    wl.setup_program(0)
    wl.prepare(0, tmp_path)
    wl.before_op()
    assert wl.check(wl.op()).ok

    out = Path(wl.paths["out"])
    good = out.read_bytes()
    c = np.frombuffer(good[16:], dtype="<f8").copy()
    c[100] = one_ulp_up(c[100])
    out.write_bytes(good[:16] + c.tobytes())
    assert not wl.check(0).ok
    out.write_bytes(good)

    report = Path(wl.paths["report"])
    rep = json.loads(report.read_text())
    rep["cache"]["host_fetches"] -= 1
    report.write_text(json.dumps(rep))
    res = wl.check(0)
    assert not res.ok and "identity" in res.reason
    assert not wl.check(2).ok


def test_ann_loss_one_ulp_off_fails():
    wl = workloads.AnnXorTrain()
    wl.setup_program(0)
    wl.prepare(0, None)
    wl.before_op()
    loss = wl.op()
    assert wl.check(loss).ok
    wl.before_op()
    res = wl.check(one_ulp_up(wl.op()))
    assert not res.ok and "dense gives" in res.reason


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert "model changed" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "gemm-cli-t16", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
