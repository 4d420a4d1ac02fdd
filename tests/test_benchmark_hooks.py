"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps tilerun
functions and methods by name.

Building its tracer looks up every wrapped name without installing a
wrapper, so deleting or renaming one of them fails tier-1 here, not only
the benchmark's own smoke run.
"""

import importlib
from pathlib import Path

import numpy as np

import tilerun.scheduler
import tilerun.tiles
from tilerun import DeviceSpec, Machine, ProximityMatrix, Runtime, homogeneous_machine
from tilerun.scheduler import Operand

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = layers.build_tracer(layers.Probes(), 1)
    assert {"tiles.accumulate_product", "tiles.reassemble", "scheduler.Completion.all_done",
            "coherence.CacheDirectory.release_input",
            "scheduler.Runtime.multiply"} <= set(tracer.names)
    # built, not installed: tilerun still runs its own functions
    assert tilerun.scheduler.accumulate_product is tilerun.tiles.accumulate_product
    assert not hasattr(tilerun.scheduler.Runtime.multiply, "__wrapped__")


def test_benchmark_probe_counts_resident_keys_over_every_device(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    rng = np.random.default_rng(0)
    a, b = (rng.integers(-4, 5, (12, 12)).astype(float) for _ in range(2))
    hetero = Machine([DeviceSpec(0), DeviceSpec(1, kind="host-worker")],
                     ProximityMatrix.uniform(2, bandwidth=1e6))
    for machine, coherence in ((hetero, True), (homogeneous_machine(2), False)):
        rt = Runtime(machine, tile_size=4, coherence=coherence)
        _, stats = rt.multiply(a, b)
        probes = layers.Probes()
        probes.on_multiply((rt,), None)  # asks every device, host worker included
        if coherence:
            # no capacity bound: the accelerator keeps each input tile it
            # admitted (one per host fetch) and drops its output tiles
            assert stats.devices[1].tasks_completed > 0
            assert probes.resident_keys == stats.cache_per_device[0].host_fetches > 0
        else:
            assert probes.resident_keys == 0


def test_benchmark_plan_probe_counts_flops_of_straight_and_transposed_operands(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    m, k, n = 6, 5, 7
    a, b = np.ones((m, k)), np.ones((k, n))
    for transposed in (False, True):
        # tiled as read, whichever way the matrix is stored
        a_op = Operand(a, "A", transposed)
        b_op = Operand(b, "B", transposed)
        probes = layers.Probes()
        probes.on_plan((), tilerun.scheduler.plan(a_op, b_op, 4))
        assert probes.flops == 2 * m * k * n


def test_benchmark_plan_probe_sees_every_product_of_a_session(monkeypatch):
    # A session binds one plan template per shape, but it still calls
    # tilerun.scheduler.plan once per product, so the tracer that wraps it
    # counts every product's flops.
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    probes, plans = layers.Probes(), []
    real_plan = tilerun.scheduler.plan

    def counted(*args):
        p = real_plan(*args)
        plans.append(p)
        probes.on_plan(args, p)
        return p

    monkeypatch.setattr(tilerun.scheduler, "plan", counted)
    m, k, n = 6, 5, 7
    rt = Runtime(homogeneous_machine(2), tile_size=4)
    for _ in range(3):
        rt.multiply(np.ones((m, k)), np.ones((k, n)))
    assert len(plans) == 3 and len(rt.templates) == 1
    assert probes.flops == 3 * 2 * m * k * n
