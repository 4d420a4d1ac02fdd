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
from tilerun.devices import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine, save_machine
from tilerun.matio import load_matrix
from tilerun.scheduler import run
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


def test_gen_float_distribution_in_range(tmp_path):
    p = gen(tmp_path, "a.txt", 20, 20, dist="float")
    m = load_matrix(p)
    assert m.min() >= -4 and m.max() < 4
    assert not np.array_equal(m, np.round(m))


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
    assert doc["schema_version"] == 2
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
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, true], [true, 0]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, "4"], ["4", 0]]}}',
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
    '{"devices": [{"id": 0, "capacity_tile": 3}]}',
    '{"devices": [{"id": 0}], "transfer_latncy": 5}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, 1], [1, 0]], "hop": 1}}',
    '{"devices": [{"id": 0}], "dtype": "float64"}',
    '{"devices": [{"id": -1}]}',
    '{"devices": [{"id": 0, "slots": 0}]}',
    '{"devices": [{"id": 0, "kind": "host-worker", "subtile_factor": 0}]}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1, 1], [1, 0, 1]], "peer_bandwidth": [[0, 1, 1], [1, 0, 1]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}}',
    '{"devices": [{"id": 0}, {"id": 1}], '
    '"proximity": {"hops": [[0, -1], [-1, 0]], "peer_bandwidth": [[0, 1], [1, 0]]}}',
], ids=["capacity-below-3", "capacity-float", "id-float", "latency-str", "dtype-bogus",
        "flops-nan", "bandwidth-nan", "peer-bandwidth-nan", "latency-nan",
        "flops-inf", "bandwidth-inf", "peer-bandwidth-inf", "peer-bandwidth-bool",
        "peer-bandwidth-str", "latency-inf",
        "hops-float", "hops-bool", "hops-inf", "hops-beyond-int64",
        "device-key-typo", "top-level-key-typo", "proximity-key-typo", "dtype-float64",
        "id-negative", "slots-zero", "subtile-zero", "hops-not-square", "shapes-differ",
        "hops-negative"])
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


@pytest.mark.parametrize("name, content", [
    ("a.txt", b"4\n1 2 3 4\n"),
    ("a.txt", b""),
    ("a.bin", b"\x02\x00\x00"),
], ids=["text-one-field", "text-empty", "binary-truncated"])
def test_gemm_malformed_matrix_header_is_config_error(tmp_path, capsys, name, content):
    pa = tmp_path / name
    pa.write_bytes(content)
    pb = gen(tmp_path, "b.txt", 2, 2)
    capsys.readouterr()
    assert run_cli("gemm", "--a", pa, "--b", pb) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "header" in err[0], err


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


def test_ann_xor_with_the_wrong_layer_shape_is_config_error(capsys):
    assert run_cli("ann", "--data", "xor", "--layers", "3,4,1", "--steps", 1,
                   "--backend", "dense") == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: xor data needs --layers starting with 2 and ending with 1"]


def test_ann_relu_runs_on_both_backends(tmp_path):
    out = {}
    for backend in ("dense", "tiled"):
        loss_csv = tmp_path / f"{backend}.csv"
        assert run_cli("ann", "--layers", "3,5,2", "--activation", "relu", "--steps", 10,
                       "--lr", 0.05, "--backend", backend, "--tile-size", 2,
                       "--loss-csv", loss_csv) == cli.EXIT_OK
        out[backend] = loss_csv.read_text()
    losses = [float(r["loss"]) for r in csv.DictReader(out["dense"].splitlines())]
    assert len(losses) == 10 and np.isfinite(losses).all()
    assert out["dense"] == out["tiled"]


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


def test_sweep_adds_the_one_device_baseline(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--sizes", "8", "--device-counts", "2",
                   "--tile-size", 4, "--out", out) == cli.EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["devices"] for r in rows] == ["1", "2"]
    assert float(rows[0]["speedup"]) == 1.0


@pytest.mark.parametrize("flag", ["--sizes", "--device-counts"])
def test_sweep_empty_list_is_config_error(tmp_path, capsys, flag):
    out = tmp_path / "sweep.csv"
    argv = {"--sizes": "8", "--device-counts": "1,2", flag: ""}
    assert run_cli("sweep", *[x for kv in argv.items() for x in kv],
                   "--tile-size", 4, "--out", out) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        "error: sweep needs --sizes and --device-counts"]
    assert not out.exists()


def test_sweep_no_coherence_counts(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--sizes", "16", "--device-counts", "1,2",
                   "--tile-size", 4, "--no-coherence", "--out", out) == 0
    for r in csv.DictReader(out.read_text().splitlines()):
        g = 16 // 4
        assert int(r["host_fetches"]) == 2 * g**3


def test_sweep_template_carries_transfer_latency(tmp_path):
    # every cell's machine takes the template's first device and its latency
    makespans = {}
    for latency in (0.0, 50.0):
        template = homogeneous_machine(1, flops_per_unit=1000.0, host_bandwidth=256.0,
                                       transfer_latency=latency)
        devcfg, out = tmp_path / "template.json", tmp_path / "sweep.csv"
        save_machine(devcfg, template)
        assert run_cli("sweep", "--sizes", 16, "--device-counts", "1,2", "--tile-size", 4,
                       "--seed", 3, "--devices", devcfg, "--out", out) == 0
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.0, 1.0, size=(16, 16)), rng.uniform(0.0, 1.0, size=(16, 16))
        for r in csv.DictReader(out.read_text().splitlines()):
            n = int(r["devices"])
            _, want = run(homogeneous_machine(n, flops_per_unit=1000.0, host_bandwidth=256.0,
                                              transfer_latency=latency), a, b, tile_size=4)
            assert r["makespan"] == f"{want.makespan:.9g}"
            makespans[latency, n] = float(r["makespan"])
    for n in (1, 2):
        assert makespans[50.0, n] > makespans[0.0, n]


def test_sweep_template_carries_peer_bandwidth(tmp_path):
    # every cell's machine takes the template's peer bandwidth: a slow peer
    # link makes the 2-device cell slower, and each cell matches the
    # homogeneous machine built with that bandwidth
    makespans = {}
    for bw in (1.0, 32768.0):
        template = homogeneous_machine(2, flops_per_unit=1000.0, host_bandwidth=256.0,
                                       peer_bandwidth=bw, capacity_tiles=8)
        devcfg, out = tmp_path / "template.json", tmp_path / "sweep.csv"
        save_machine(devcfg, template)
        assert run_cli("sweep", "--sizes", 32, "--device-counts", "1,2", "--tile-size", 4,
                       "--devices", devcfg, "--out", out) == 0
        rng = np.random.default_rng(0)
        a, b = rng.uniform(0.0, 1.0, size=(32, 32)), rng.uniform(0.0, 1.0, size=(32, 32))
        for r in csv.DictReader(out.read_text().splitlines()):
            n = int(r["devices"])
            _, want = run(homogeneous_machine(n, flops_per_unit=1000.0, host_bandwidth=256.0,
                                              peer_bandwidth=bw, capacity_tiles=8),
                          a, b, tile_size=4)
            assert r["makespan"] == f"{want.makespan:.9g}"
            makespans[bw, n] = float(r["makespan"])
            if n == 2:
                assert int(r["bytes_peer"]) > 0
    assert makespans[1.0, 1] == makespans[32768.0, 1]
    assert makespans[1.0, 2] > makespans[32768.0, 2]


@pytest.mark.parametrize("config", [
    '{"devices": [{"id": 0}, {"id": 1}, {"id": 2}], "proximity": {"hops": '
    '[[0, 1, 1], [1, 0, 1], [1, 1, 0]], "peer_bandwidth": [[0, 4, 4], [4, 0, 8], [4, 8, 0]]}}',
    '{"devices": [{"id": 0, "kind": "host-worker"}, {"id": 1}]}',
    # a cell is n copies of device 0, which would drop device 1's flops
    '{"devices": [{"id": 0, "flops_per_unit": 1000, "host_bandwidth": 256}, '
    '{"id": 1, "flops_per_unit": 4000, "host_bandwidth": 256}]}',
], ids=["unequal-peer-bandwidth", "host-worker-first", "unequal-flops"])
def test_sweep_template_not_uniform_accelerators_is_config_error(tmp_path, capsys, config):
    devcfg, out = tmp_path / "template.json", tmp_path / "sweep.csv"
    devcfg.write_text(config)
    assert run_cli("sweep", "--sizes", 8, "--device-counts", "1,2", "--tile-size", 4,
                   "--devices", devcfg, "--out", out) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep --devices"), err
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    {"kind": "host-worker", "flops_per_unit": 200.0, "host_bandwidth": 1.0},
    {"capacity_tiles": 6, "flops_per_unit": 500.0, "host_bandwidth": 64.0, "slots": 2,
     "subtile_factor": 2},
], ids=["host-workers", "subtile-factor-2"])
def test_sweep_cell_is_n_copies_of_the_template_device(tmp_path, spec):
    # a template without proximity gets a one-hop interconnect at its host bandwidth
    devcfg, out = tmp_path / "template.json", tmp_path / "sweep.csv"
    devcfg.write_text(json.dumps({"devices": [{"id": i, **spec} for i in range(2)],
                                  "transfer_latency": 0.25}))
    assert run_cli("sweep", "--sizes", 16, "--device-counts", "1,3", "--tile-size", 4,
                   "--devices", devcfg, "--out", out) == 0
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.0, 1.0, size=(16, 16)), rng.uniform(0.0, 1.0, size=(16, 16))
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["devices"] for r in rows] == ["1", "3"]
    for r in rows:
        n = int(r["devices"])
        machine = Machine([DeviceSpec(i, **spec) for i in range(n)],
                          ProximityMatrix.uniform(n, bandwidth=spec["host_bandwidth"]),
                          transfer_latency=0.25)
        _, want = run(machine, a, b, tile_size=4)
        assert r["makespan"] == f"{want.makespan:.9g}"
        for k in ("l1_hits", "l2_hits", "host_fetches", "bytes_host", "bytes_peer",
                  "evictions"):
            assert int(r[k]) == getattr(want.cache, k), k
        assert int(r["steals"]) == len(want.steal_events)


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
