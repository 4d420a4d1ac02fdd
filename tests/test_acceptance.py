"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Everything here drives the public API (or the CLI) end to end; expected
values come from counting arguments, the dense reference product, or
finite differences -- never from the code path under test.
"""

import csv
import functools
import threading
import time
from collections import Counter

import numpy as np
import pytest

from tilerun import cli
from tilerun.ann import (
    DenseBackend,
    Network,
    TiledBackend,
    bench_pass,
    finite_difference_gradients,
    loss_gradients,
    random_regression,
    train_step,
    xor_dataset,
)
from tilerun.devices import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.msqueue import MichaelScottQueue
from tilerun.scheduler import run
from tilerun.tiles import reference_gemm


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {title}")
                raise
            print(f"\n[PASS] criterion {number}: {title}")

        return wrapper

    return deco


def int_matrix(rng, rows, cols):
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float64)


@pytest.mark.wallclock
@criterion(1, "runtime output matches the dense reference on 50 randomized cases")
def test_c1_correctness_vs_oracle():
    rng = np.random.default_rng(20240601)
    t0 = time.perf_counter()
    # dimension budget per tile size keeps the grid volume tractable while
    # still reaching dims of 512
    dim_hi = {1: 24, 7: 256, 16: 512, 64: 512}
    cases = [(512, 512, 512, 64, 4, "sim", "int"),
             (512, 384, 512, 16, 2, "sim", "float"),
             (256, 256, 256, 64, 3, "threaded", "int")]
    while len(cases) < 50:
        t = int(rng.choice([1, 7, 16, 64]))
        hi = dim_hi[t]
        m, k, n = (int(rng.integers(1, hi + 1)) for _ in range(3))
        devices = int(rng.choice([1, 2, 4]))
        mode = "threaded" if len(cases) % 10 == 3 and max(m, k, n) <= 128 else "sim"
        kind = "int" if len(cases) % 2 else "float"
        cases.append((m, k, n, t, devices, mode, kind))
    assert len(cases) == 50
    for m, k, n, t, ndev, mode, kind in cases:
        if kind == "int":
            a, b = int_matrix(rng, m, k), int_matrix(rng, k, n)
        else:
            a = rng.uniform(0.0, 1.0, size=(m, k))
            b = rng.uniform(0.0, 1.0, size=(k, n))
        ref = reference_gemm(a, b)
        c, stats = run(homogeneous_machine(ndev), a, b, tile_size=t, mode=mode)
        label = f"{m}x{k}x{n} T={t} dev={ndev} {mode} {kind}"
        if kind == "int":
            assert np.array_equal(c, ref), f"bitwise mismatch: {label}"
        else:
            denom = np.maximum(np.abs(ref), 1e-300)
            rel = float(np.max(np.abs(c - ref) / denom))
            assert rel <= 1e-12, f"relative error {rel} too big: {label}"
        assert sum(stats.tasks_by_device.values()) == stats.total_tasks
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s, budget is 120s"


@criterion(2, "coherence removes redundant host traffic: 2g^2 vs 2g^3 host fetches")
def test_c2_data_reuse_exact_counts():
    g, tile = 16, 4
    size = g * tile
    rng = np.random.default_rng(2)
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    ref = reference_gemm(a, b)
    machine = homogeneous_machine(2)

    c, stats = run(machine, a, b, tile_size=tile, mode="sim", coherence=True)
    assert np.array_equal(c, ref)
    assert stats.cache.host_fetches == 2 * g * g == 512
    assert stats.cache.evictions == 0

    c, stats = run(machine, a, b, tile_size=tile, mode="sim", coherence=False)
    assert np.array_equal(c, ref)
    assert stats.cache.host_fetches == 2 * g**3 == 8192
    # a 16x reduction in host traffic, exactly
    assert 8192 == 16 * 512


@criterion(3, "near-linear simulated speedup and throughput-proportional sharing")
def test_c3_linear_speedup_and_sharing():
    tile = 8
    size = 32 * tile  # 32x32 task grid
    rng = np.random.default_rng(3)
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)

    makespans = {}
    for n in (1, 4):
        _, stats = run(homogeneous_machine(n), a, b, tile_size=tile, mode="sim")
        makespans[n] = stats.makespan
    ratio = makespans[1] / makespans[4]
    assert ratio >= 3.6, f"speedup {ratio:.3f} below 3.6"

    flops = [250.0, 500.0, 750.0, 1000.0]  # 1:2:3:4
    devs = [DeviceSpec(i, flops_per_unit=f, host_bandwidth=8192.0)
            for i, f in enumerate(flops)]
    machine = Machine(devs, ProximityMatrix.uniform(4, bandwidth=32768.0))
    _, stats = run(machine, a, b, tile_size=tile, mode="sim")
    total = stats.total_tasks
    for i, f in enumerate(flops):
        expected = total * f / sum(flops)
        got = stats.devices[i].tasks_completed
        assert abs(got - expected) <= 0.10 * expected, (
            f"device {i}: {got} tasks, expected {expected:.0f} +-10%"
        )


@criterion(4, "speedup grows with size then plateaus within 5% of its max")
def test_c4_speedup_curve_shape(tmp_path):
    devcfg = tmp_path / "template.json"
    devcfg.write_text(
        '{"devices": [{"id": 0, "flops_per_unit": 1000.0, "host_bandwidth": 256.0}]}'
    )
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--sizes", "32,64,128,256,320", "--device-counts", "1,4",
        "--tile-size", "16", "--devices", str(devcfg), "--out", str(out),
    ])
    assert code == 0
    speedups = []
    for row in csv.DictReader(out.read_text().splitlines()):
        if row["devices"] == "4":
            speedups.append(float(row["speedup"]))
    assert len(speedups) == 5
    peak_at = int(np.argmax(speedups))
    for i in range(peak_at):
        assert speedups[i] <= speedups[i + 1] + 1e-12, (
            f"speedup dips before saturation: {speedups}"
        )
    peak = speedups[peak_at]
    for s in speedups[peak_at:]:
        assert s >= 0.95 * peak, f"post-saturation point {s} below 95% of {peak}"


@pytest.mark.wallclock
@criterion(5, "queue keeps conservation and per-producer FIFO over 1e6 ops")
def test_c5_queue_contract():
    n_producers = n_consumers = 4
    per_producer = 125_000  # 500k enqueues + 500k dequeues = 1e6 operations
    q = MichaelScottQueue()
    producers_done = threading.Event()
    consumed = [[] for _ in range(n_consumers)]

    def producer(pid):
        for seq in range(per_producer):
            q.enqueue((pid, seq))

    def consumer(cid):
        out = consumed[cid]
        while True:
            v = q.dequeue()
            if v is None:
                if producers_done.is_set() and q.is_empty():
                    return
                continue
            out.append(v)

    threads = [threading.Thread(target=producer, args=(p,)) for p in range(n_producers)]
    threads += [threading.Thread(target=consumer, args=(c,)) for c in range(n_consumers)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads[:n_producers]:
        t.join()
    producers_done.set()
    for t in threads[n_producers:]:
        t.join()
    elapsed = time.perf_counter() - t0

    everything = Counter()
    for out in consumed:
        everything.update(out)
        last = {}
        for pid, seq in out:  # consumer views preserve per-producer order
            assert last.get(pid, -1) < seq, f"producer {pid} order violated"
            last[pid] = seq
    assert all(v == 1 for v in everything.values()), "duplicate delivery"
    expected = Counter(
        (p, s) for p in range(n_producers) for s in range(per_producer)
    )
    assert everything == expected, "element conservation violated"
    assert q.is_empty()
    assert elapsed < 30.0, f"stress took {elapsed:.1f}s, budget is 30s"


@criterion(6, "100 randomized threaded runs execute every task exactly once")
@pytest.mark.usefixtures("directory_invariants")
def test_c6_exactly_once_scheduling():
    rng = np.random.default_rng(6)
    for trial in range(100):
        tile = int(rng.integers(3, 6))
        grid = int(rng.integers(2, 5))
        size = tile * grid
        ndev = int(rng.integers(2, 5))
        a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
        # the directory_invariants fixture re-checks the directory after
        # every mutation; the completion bitmap raises on any double execution
        c, stats = run(homogeneous_machine(ndev), a, b, tile_size=tile,
                       mode="threaded", steal=True)
        assert np.array_equal(c, reference_gemm(a, b)), f"trial {trial}"
        assert sum(stats.tasks_by_device.values()) == stats.total_tasks
        for did, ds in stats.devices.items():
            assert ds.steals_performed == sum(ev.thief == did for ev in stats.steal_events)
            assert ds.steals_suffered == sum(ev.victim == did for ev in stats.steal_events)


@criterion(7, "gradients check out and the tiled backend reproduces training")
def test_c7_ann_gradients_and_backend_equivalence():
    # finite-difference gradient check: 3 weight layers, 5 seeds
    backend = DenseBackend()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = Network.from_sizes([5, 7, 6, 3], rng, activation="sigmoid")
        x, target = random_regression(rng, 4, 5, 3)
        _, analytic = loss_gradients(net, x, target, backend)
        numeric = finite_difference_gradients(net, x, target, h=1e-5)
        for (a_w, a_b), (n_w, n_b) in zip(analytic, numeric):
            rel = np.abs(a_w - n_w) / np.maximum(np.abs(a_w) + np.abs(n_w), 1e-6)
            assert rel.max() <= 1e-4, f"seed {seed}: dW error {rel.max()}"
            rel_b = np.abs(a_b - n_b) / np.maximum(np.abs(a_b) + np.abs(n_b), 1e-6)
            assert rel_b.max() <= 1e-4, f"seed {seed}: db error {rel_b.max()}"

    # tiled loss trajectory tracks the dense one step for step
    x, target = xor_dataset()
    nets = []
    for _ in range(2):
        rng = np.random.default_rng(0)
        nets.append(Network.from_sizes([2, 8, 1], rng, activation="sigmoid"))
    dense = DenseBackend()
    tiled = TiledBackend(homogeneous_machine(2), tile_size=2)
    for step in range(200):
        ld = train_step(nets[0], x, target, 0.5, dense)
        lt = train_step(nets[1], x, target, 0.5, tiled)
        assert abs(ld - lt) <= 1e-10, f"step {step}: dense {ld} vs tiled {lt}"

    # simulated pass time improves with more devices (the measurable stand-in
    # for hardware speedups)
    rng = np.random.default_rng(7)
    net = Network.from_sizes([48, 48, 48], rng)
    xb, tb = random_regression(rng, 48, 48, 48)
    times = {}
    for n in (1, 4):
        times[n] = bench_pass(net, xb, tb, TiledBackend(homogeneous_machine(n),
                                                        tile_size=8), repeats=10)
    assert times[4] < times[1]


@criterion(8, "capacity 3 per device still yields exact results, with evictions")
@pytest.mark.usefixtures("directory_invariants")
def test_c8_constrained_capacity():
    rng = np.random.default_rng(8)
    size, tile = 40, 5  # 8x8x8 grid of tasks and k-steps
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    machine = homogeneous_machine(2, capacity_tiles=3)
    for mode in ("sim", "threaded"):
        c, stats = run(machine, a, b, tile_size=tile, mode=mode)
        assert np.array_equal(c, reference_gemm(a, b)), mode
        assert stats.cache.evictions > 0
        assert stats.cache.input_requests == 2 * stats.total_tasks * stats.k_steps
