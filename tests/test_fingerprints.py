"""Model fingerprints of the benchmark's simulated workloads.

A refactor that keeps the model keeps, for each canonical workload, the
simulated makespan, every cache counter, the per-device task counts, the
steal count and the output bits.  The configurations mirror
``perfbench/workloads.py`` but are built here, so tier-1 does not depend
on the benchmark's code.

A declared model change re-pins the values here first.  They then lead
``perfbench/fingerprints.json`` (seed 0), and the benchmark prints
"model changed" lines, until the next change to the benchmark re-records
that file with ``python3 perfbench/run.py --record-fingerprints``.  Today
they hold the model with separate fetch and writeback clocks and one task
of fetch lead per device; the output bits are unchanged.
"""

import numpy as np
import pytest

from tilerun import (
    DenseBackend,
    DeviceSpec,
    Machine,
    Network,
    ProximityMatrix,
    TiledBackend,
    homogeneous_machine,
    reference_gemm,
    run,
    train_step,
    xor_dataset,
)


def uniform_pair(seed, n):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(n, n)), rng.uniform(size=(n, n))


def evict_hetero_machine():
    devices = [DeviceSpec(i, capacity_tiles=52, flops_per_unit=f, host_bandwidth=512.0)
               for i, f in enumerate((250.0, 500.0, 750.0))]
    devices.append(DeviceSpec(3, kind="host-worker", flops_per_unit=200.0, subtile_factor=2))
    hops = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    bandwidth = [[0.0 if h == 0 else 4096.0 if h == 1 else 1024.0 for h in row]
                 for row in hops]
    return Machine(devices, ProximityMatrix(hops, bandwidth))


GEMM_CASES = {
    "gemm-cli-t16": dict(
        machine=lambda: homogeneous_machine(4), n=256, tile=16,
        makespan=8389.357999999984,
        cache=dict(l1_hits=6720, l2_hits=960, host_fetches=512,
                   bytes_host=1048576, bytes_peer=1966080, evictions=0,
                   writebacks=256, bytes_writeback=524288),
        tasks_by_device={0: 64, 1: 64, 2: 64, 3: 64}, steals=0,
    ),
    "gemm-evict-hetero": dict(
        machine=evict_hetero_machine, n=96, tile=4,
        makespan=1278.701999999916,
        cache=dict(l1_hits=10104, l2_hits=1155, host_fetches=16389,
                   bytes_host=1587840, bytes_peer=147840, evictions=13407,
                   writebacks=493, bytes_writeback=63104),
        tasks_by_device={0: 104, 1: 194, 2: 195, 3: 83}, steals=3,
    ),
}


@pytest.mark.parametrize("name", sorted(GEMM_CASES))
def test_gemm_workload_fingerprint(name):
    case = GEMM_CASES[name]
    a, b = uniform_pair(0, case["n"])
    c, stats = run(case["machine"](), a, b, tile_size=case["tile"], mode="sim")
    assert c.tobytes() == reference_gemm(a, b).tobytes()
    assert stats.makespan == case["makespan"]
    assert stats.cache.as_dict() == case["cache"]
    assert stats.tasks_by_device == case["tasks_by_device"]
    assert len(stats.steal_events) == case["steals"]


def test_ann_xor_session_fingerprint():
    sizes, lr, steps = [2, 8, 1], 0.5, 1000
    x, target = xor_dataset()
    dense_net = Network.from_sizes(sizes, np.random.default_rng(0), activation="sigmoid")
    tiled_net = Network.from_sizes(sizes, np.random.default_rng(0), activation="sigmoid")
    dense = DenseBackend()
    backend = TiledBackend(homogeneous_machine(2), tile_size=2)
    want = [train_step(dense_net, x, target, lr, dense) for _ in range(steps)]
    got = [train_step(tiled_net, x, target, lr, backend) for _ in range(steps)]
    assert np.array(got).tobytes() == np.array(want).tobytes()

    assert backend.sim_time() == 308.51757812500796
    assert backend.runtime.directory.stats().as_dict() == dict(
        l1_hits=48000, l2_hits=20000, host_fetches=28000,
        bytes_host=800000, bytes_peer=544000, evictions=0,
        writebacks=28000, bytes_writeback=800000,
    )
    tasks = {0: 0, 1: 0}
    for s in backend.call_stats:
        for d, n in s.tasks_by_device.items():
            tasks[d] += n
    assert tasks == {0: 14000, 1: 14000}
    assert sum(len(s.steal_events) for s in backend.call_stats) == 6000
