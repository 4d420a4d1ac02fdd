"""The paper's workload on the model: one training pass on unequal devices.

The paper integrates out-of-core tiled GEMM with ANN training and claims
near-linear speedup on inhomogeneous GPUs.  Here one ``loss_gradients``
pass of a ``[128, 256, 256, 16]`` network on a batch of 128 runs at tile
16 on the first n = 1..4 devices of a machine whose device i has flops
``1000·(i+1)`` (so Σ flops grows 1 : 3 : 6 : 10), host bandwidth 256 and
one-hop peers at 32768, with caches unbounded or at 24 tiles.  The
simulated pass times and, at 4 devices, each product's task split are
pinned exactly, in the style of ``tests/test_fingerprints.py``: a model
change re-pins them and lists the values before and after.

The pins read speedups of 1, 2.87, 5.43 and 8.59 unbounded, and 1, 2.57,
3.86 and 5.21 at 24 tiles, where the fast devices' shares level out.
"""

import numpy as np
import pytest

from tilerun import DeviceSpec, Machine, Network, ProximityMatrix, TiledBackend, loss_gradients
from tilerun.ann import random_regression


def unequal_machine(n, capacity_tiles):
    devices = [DeviceSpec(i, capacity_tiles=capacity_tiles, flops_per_unit=1000.0 * (i + 1),
                          host_bandwidth=256.0) for i in range(n)]
    return Machine(devices, ProximityMatrix.uniform(n, 32768.0))


def training_pass(n, capacity_tiles):
    """A fresh session's backend after one pass on the first ``n`` devices."""
    rng = np.random.default_rng(0)
    net = Network.from_sizes([128, 256, 256, 16], rng)
    x, target = random_regression(rng, 128, 128, 16)
    backend = TiledBackend(unequal_machine(n, capacity_tiles), tile_size=16)
    loss_gradients(net, x, target, backend)
    return backend


PASS_TIMES = {
    None: [79012.09600000083, 27507.51050000239, 14563.708999999308, 9193.88099999947],
    24: [121094.27200000039, 47178.953500000054, 31404.991999999984, 23252.125500000027],
}

# per product of the pass, in call order: the tasks each of the 4 devices ran
SHARES_AT_4 = {
    None: [(16, 29, 41, 42), (17, 28, 40, 43), (2, 2, 2, 2), (1, 5, 3, 7), (15, 22, 35, 56),
           (28, 52, 76, 100), (13, 26, 38, 51), (15, 26, 38, 49), (6, 13, 19, 26)],
    24: [(31, 32, 33, 32), (32, 32, 32, 32), (2, 2, 2, 2), (4, 4, 4, 4), (18, 27, 36, 47),
         (64, 64, 64, 64), (32, 32, 32, 32), (32, 32, 32, 32), (16, 16, 16, 16)],
}


@pytest.mark.parametrize("capacity_tiles", [None, 24], ids=["unbounded", "capacity-24"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_training_pass_time_on_unequal_devices(n, capacity_tiles):
    backend = training_pass(n, capacity_tiles)
    assert backend.sim_time() == PASS_TIMES[capacity_tiles][n - 1]
    if n == 4:
        assert [s.tasks_by_device for s in backend.call_stats] == [
            dict(enumerate(shares)) for shares in SHARES_AT_4[capacity_tiles]]
