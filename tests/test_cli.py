import csv
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tilerun import cli
from tilerun.devices import homogeneous_machine, save_machine
from tilerun.matio import load_matrix
from tilerun.tiles import reference_gemm


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def gen(tmp_path, name, rows, cols, seed=0, dist="int"):
    path = tmp_path / name
    assert run_cli("gen", "--rows", rows, "--cols", cols, "--seed", seed,
                   "--dist", dist, "--out", path) == 0
    return path


def test_gen_deterministic_byte_for_byte(tmp_path):
    p1 = gen(tmp_path, "a1.txt", 6, 5, seed=7)
    p2 = gen(tmp_path, "a2.txt", 6, 5, seed=7)
    assert p1.read_bytes() == p2.read_bytes()
    p3 = gen(tmp_path, "a3.txt", 6, 5, seed=8)
    assert p1.read_bytes() != p3.read_bytes()


def test_gen_int_distribution_in_range(tmp_path):
    p = gen(tmp_path, "a.txt", 20, 20, dist="int")
    m = load_matrix(p)
    assert np.array_equal(m, np.round(m))
    assert m.min() >= -4 and m.max() <= 4


def test_gen_single_value_and_binary(tmp_path):
    p = tmp_path / "one.bin"
    assert run_cli("gen", "--rows", 1, "--cols", 1, "--out", p) == 0
    assert load_matrix(p).shape == (1, 1)


def test_gen_rejects_bad_dims(tmp_path):
    assert run_cli("gen", "--rows", 0, "--cols", 3,
                   "--out", tmp_path / "x.txt") == cli.EXIT_CONFIG


def test_gemm_end_to_end(tmp_path):
    pa = gen(tmp_path, "a.txt", 10, 7, seed=1)
    pb = gen(tmp_path, "b.txt", 7, 9, seed=2)
    out = tmp_path / "c.bin"
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    devcfg = tmp_path / "devices.json"
    save_machine(devcfg, homogeneous_machine(2))
    code = run_cli("gemm", "--a", pa, "--b", pb, "--out", out,
                   "--tile-size", 3, "--devices", devcfg, "--mode", "sim",
                   "--report", report, "--csv", csv_path)
    assert code == 0
    c = load_matrix(out)
    assert np.array_equal(c, reference_gemm(load_matrix(pa), load_matrix(pb)))
    doc = json.loads(report.read_text())
    assert doc["schema_version"] == 1
    assert doc["cache"]["host_fetches"] > 0
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 3  # 2 devices + total


def test_gemm_no_coherence_flag(tmp_path):
    pa = gen(tmp_path, "a.txt", 8, 8, seed=3)
    pb = gen(tmp_path, "b.txt", 8, 8, seed=4)
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("gemm", "--a", pa, "--b", pb, "--tile-size", 2,
                   "--report", r1) == 0
    assert run_cli("gemm", "--a", pa, "--b", pb, "--tile-size", 2,
                   "--report", r2, "--no-coherence") == 0
    g = 4
    with_cc = json.loads(r1.read_text())["cache"]["host_fetches"]
    without = json.loads(r2.read_text())["cache"]["host_fetches"]
    assert with_cc == 2 * g * g
    assert without == 2 * g**3


def test_gemm_threaded_mode_and_steal_off(tmp_path):
    pa = gen(tmp_path, "a.txt", 9, 9, seed=5)
    pb = gen(tmp_path, "b.txt", 9, 9, seed=6)
    out = tmp_path / "c.txt"
    devcfg = tmp_path / "devices.json"
    save_machine(devcfg, homogeneous_machine(3))
    assert run_cli("gemm", "--a", pa, "--b", pb, "--out", out, "--tile-size", 4,
                   "--devices", devcfg, "--mode", "threaded", "--steal", "off") == 0
    assert np.array_equal(load_matrix(out),
                          reference_gemm(load_matrix(pa), load_matrix(pb)))


def test_gemm_missing_input_is_io_error(tmp_path):
    assert run_cli("gemm", "--a", tmp_path / "nope.txt",
                   "--b", tmp_path / "nope2.txt") == cli.EXIT_IO


@pytest.mark.parametrize("config", [
    '{"devices": [{"id": 0, "capacity_tiles": 1}]}',
    '{"devices": [{"id": 0, "capacity_tiles": 3.5}]}',
    '{"devices": [{"id": 0.0}]}',
    '{"devices": [{"id": 0}], "transfer_latency": "0"}',
    '{"devices": [{"id": 0}], "dtype": "bogus"}',
    '{"devices": [{"id": 0, "flops_per_unit": NaN}]}',
    '{"devices": [{"id": 0, "host_bandwidth": NaN}]}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, NaN], [1, 0]]}}',
    '{"devices": [{"id": 0}], "transfer_latency": NaN}',
    '{"devices": [{"id": 0, "flops_per_unit": Infinity}]}',
    '{"devices": [{"id": 0, "host_bandwidth": Infinity}]}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, Infinity], [1, 0]]}}',
    '{"devices": [{"id": 0}], "transfer_latency": Infinity}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1.7], [1.7, 0]], "peer_bandwidth": [[0, 1], [1, 0]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, true], [true, 0]], "peer_bandwidth": [[0, 1], [1, 0]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1e400], [1e400, 0]], "peer_bandwidth": [[0, 1], [1, 0]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], "proximity": '
    '{"hops": [[0, 100000000000000000000], [100000000000000000000, 0]], '
    '"peer_bandwidth": [[0, 1], [1, 0]]}}',
], ids=["capacity-below-3", "capacity-float", "id-float", "latency-str", "dtype-bogus",
        "flops-nan", "bandwidth-nan", "peer-bandwidth-nan", "latency-nan",
        "flops-inf", "bandwidth-inf", "peer-bandwidth-inf", "latency-inf",
        "hops-float", "hops-bool", "hops-inf", "hops-beyond-int64"])
def test_gemm_bad_device_config_is_config_error(tmp_path, capsys, config):
    pa = gen(tmp_path, "a.txt", 4, 4)
    pb = gen(tmp_path, "b.txt", 4, 4)
    capsys.readouterr()
    bad = tmp_path / "devices.json"
    bad.write_text(config)
    assert run_cli("gemm", "--a", pa, "--b", pb,
                   "--devices", bad) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("token", ["0x10", "1e", "--1"])
def test_gemm_malformed_matrix_value_is_config_error(tmp_path, capsys, token):
    pa = tmp_path / "a.txt"
    pa.write_text(f"2 2\n1 2\n3 {token}\n")
    pb = gen(tmp_path, "b.txt", 2, 2)
    capsys.readouterr()
    assert run_cli("gemm", "--a", pa, "--b", pb) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_ann_dense_backend_xor(tmp_path):
    loss_csv = tmp_path / "loss.csv"
    report = tmp_path / "ann.json"
    code = run_cli("ann", "--layers", "2,8,1", "--data", "xor", "--steps", 50,
                   "--lr", 0.5, "--seed", 0, "--backend", "dense",
                   "--loss-csv", loss_csv, "--report", report)
    assert code == 0
    rows = list(csv.DictReader(loss_csv.read_text().splitlines()))
    assert len(rows) == 50
    losses = [float(r["loss"]) for r in rows]
    assert losses[-1] < losses[0]
    doc = strict_json(report.read_text())
    assert doc["final_loss"] == losses[-1]


def test_ann_backends_agree_via_cli(tmp_path):
    out = {}
    for backend in ("dense", "tiled"):
        loss_csv = tmp_path / f"{backend}.csv"
        assert run_cli("ann", "--layers", "3,5,2", "--data", "random",
                       "--batch", 6, "--steps", 10, "--lr", 0.1, "--seed", 1,
                       "--backend", backend, "--tile-size", 2,
                       "--loss-csv", loss_csv) == 0
        out[backend] = loss_csv.read_text()
    assert out["dense"] == out["tiled"]


def strict_json(text):
    """Parse JSON as strict readers do: ``NaN`` and ``Infinity`` are errors."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("backend", ["dense", "tiled"])
def test_ann_report_of_a_diverged_run_is_strict_json(tmp_path, backend):
    report, loss_csv = tmp_path / "ann.json", tmp_path / "loss.csv"
    assert run_cli("ann", "--layers", "2,8,1", "--lr", 1e200, "--steps", 5,
                   "--backend", backend, "--activation", "identity", "--tile-size", 2,
                   "--report", report, "--loss-csv", loss_csv) == cli.EXIT_OK
    last = list(csv.DictReader(loss_csv.read_text().splitlines()))[-1]
    assert not np.isfinite(float(last["loss"]))  # the run diverged
    doc = strict_json(report.read_text())
    assert doc["final_loss"] is None  # no finite loss
    assert doc["steps"] == 5 and doc["lr"] == 1e200


def test_ann_bad_layers_is_config_error():
    assert run_cli("ann", "--layers", "5", "--steps", 1) == cli.EXIT_CONFIG


def test_ann_negative_steps_is_config_error(tmp_path, capsys):
    report = tmp_path / "ann.json"
    assert run_cli("ann", "--layers", "2,4,1", "--data", "xor", "--steps", -3,
                   "--backend", "dense", "--report", report) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not report.exists()
    # no steps is a valid run: the report says so
    assert run_cli("ann", "--layers", "2,4,1", "--data", "xor", "--steps", 0,
                   "--backend", "dense", "--report", report) == cli.EXIT_OK
    assert json.loads(report.read_text())["steps"] == 0


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
def test_ann_non_finite_lr_is_config_error(tmp_path, capsys, lr):
    report = tmp_path / "ann.json"
    assert run_cli("ann", "--layers", "2,4,1", "--data", "xor", "--steps", 2,
                   f"--lr={lr}", "--backend", "dense", "--report", report) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not report.exists()


def test_sweep_csv_shape_and_speedup_baseline(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--sizes", "8,16", "--device-counts", "1,2",
                   "--tile-size", 4, "--out", out) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4  # 2 sizes x 2 device counts
    for r in rows:
        if r["devices"] == "1":
            assert float(r["speedup"]) == 1.0
        assert int(r["host_fetches"]) > 0


def test_sweep_no_coherence_counts(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--sizes", "16", "--device-counts", "1,2",
                   "--tile-size", 4, "--no-coherence", "--out", out) == 0
    for r in csv.DictReader(out.read_text().splitlines()):
        g = 16 // 4
        assert int(r["host_fetches"]) == 2 * g**3


def test_sweep_failing_cell_keeps_partial_results(tmp_path, monkeypatch):
    real_run = cli.run
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) > 2:
            raise ValueError("injected failure")
        return real_run(*args, **kwargs)

    monkeypatch.setattr(cli, "run", flaky)
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--sizes", "8,16", "--device-counts", "1,2",
                   "--tile-size", 4, "--out", out)
    assert code != 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2  # the cells finished before the failure survive


def test_console_entrypoint_installed(tmp_path):
    # The suite runs from the source tree, so the check is on the declared
    # entry point, which is what pip turns into the `tilerun` executable.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"tilerun": "tilerun.cli:main"}

    ep = importlib.metadata.EntryPoint(name="tilerun", value=scripts["tilerun"],
                                       group="console_scripts")
    assert ep.load() is cli.main

    # The same call the generated wrapper makes: sys.exit(main()).
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)

    def console(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *map(str, argv)],
                              env=env, capture_output=True, text=True)

    out = tmp_path / "a.txt"
    done = console("gen", "--rows", 3, "--cols", 2, "--out", out)
    assert done.returncode == 0, done.stderr
    assert load_matrix(out).shape == (3, 2)
    bad = console("gen", "--rows", 0, "--cols", 2, "--out", tmp_path / "b.txt")
    assert bad.returncode == cli.EXIT_CONFIG, bad.stderr

    # Where the package is installed, its metadata and PATH must agree.
    try:
        dist = importlib.metadata.distribution("tilerun")
    except importlib.metadata.PackageNotFoundError:
        return
    installed = {e.name: e.value for e in dist.entry_points
                 if e.group == "console_scripts"}
    assert installed == scripts
    assert shutil.which("tilerun") is not None
