import numpy as np
import pytest

from tilerun.devices import (
    HOST,
    ConfigError,
    DeviceSpec,
    Machine,
    ProximityMatrix,
    compute_cost,
    homogeneous_machine,
    load_machine,
    save_machine,
    transfer_cost,
)


def make_machine(n=2, **kw):
    return homogeneous_machine(n, **kw)


def test_compute_cost_hand_value():
    dev = DeviceSpec(0, flops_per_unit=1000.0)
    assert compute_cost(dev, (10, 10), (10, 10)) == 2.0


def test_compute_cost_scales_inversely_with_throughput():
    slow = DeviceSpec(0, flops_per_unit=500.0)
    fast = DeviceSpec(1, flops_per_unit=1000.0)
    assert compute_cost(slow, (8, 4), (4, 6)) == 2 * compute_cost(fast, (8, 4), (4, 6))


def test_compute_cost_unit_tile():
    dev = DeviceSpec(0, flops_per_unit=8.0)
    assert compute_cost(dev, (1, 1), (1, 1)) == 2.0 / 8.0


def test_transfer_cost_same_endpoint_is_free():
    m = make_machine(2)
    assert transfer_cost(m, 0, 0, 12345) == 0.0
    assert transfer_cost(m, HOST, HOST, 10) == 0.0


def test_transfer_cost_host_link():
    m = make_machine(1, host_bandwidth=100.0)
    assert transfer_cost(m, HOST, 0, 800) == 8.0
    assert transfer_cost(m, 0, HOST, 800) == 8.0


def test_peer_link_cheaper_than_host_when_faster():
    m = make_machine(2, host_bandwidth=100.0, peer_bandwidth=400.0)
    peer = transfer_cost(m, 1, 0, 800)
    host = transfer_cost(m, HOST, 0, 800)
    assert peer == 2.0
    assert host == 8.0
    assert peer < host


def test_transfer_cost_rejects_unknown_device():
    m = make_machine(2)
    with pytest.raises(ConfigError):
        transfer_cost(m, HOST, 7, 10)
    with pytest.raises(ConfigError):
        transfer_cost(m, 7, 3, 10)


def test_transfer_latency_added_per_transfer():
    m = homogeneous_machine(2, host_bandwidth=100.0, transfer_latency=0.5)
    assert transfer_cost(m, HOST, 0, 100) == 1.5


def test_host_worker_transfers_are_free():
    devs = [
        DeviceSpec(0, flops_per_unit=10.0, host_bandwidth=10.0),
        DeviceSpec(1, kind="host-worker", flops_per_unit=5.0, host_bandwidth=1.0),
    ]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=100.0))
    assert transfer_cost(m, HOST, 1, 1000) == 0.0
    assert transfer_cost(m, 1, HOST, 1000) == 0.0
    assert transfer_cost(m, HOST, 0, 1000) == 100.0


def test_cost_homogeneity():
    # scaling all bandwidths by c scales transfer times by 1/c, same for flops
    rng = np.random.default_rng(0)
    for _ in range(10):
        bw = float(rng.uniform(10, 1000))
        fl = float(rng.uniform(10, 1000))
        nbytes = int(rng.integers(1, 10**6))
        c = float(rng.uniform(0.1, 50))
        m1 = homogeneous_machine(2, host_bandwidth=bw, peer_bandwidth=2 * bw,
                                 flops_per_unit=fl)
        m2 = homogeneous_machine(2, host_bandwidth=c * bw, peer_bandwidth=2 * c * bw,
                                 flops_per_unit=c * fl)
        assert transfer_cost(m1, HOST, 0, nbytes) == pytest.approx(
            c * transfer_cost(m2, HOST, 0, nbytes))
        assert transfer_cost(m1, 0, 1, nbytes) == pytest.approx(
            c * transfer_cost(m2, 0, 1, nbytes))
        assert compute_cost(m1.device(0), (8, 8), (8, 8)) == pytest.approx(
            c * compute_cost(m2.device(0), (8, 8), (8, 8)))


@pytest.mark.parametrize("bad", [
    pytest.param({"flops_per_unit": 0.0}, id="flops-zero"),
    pytest.param({"host_bandwidth": -1.0}, id="bandwidth-negative"),
    pytest.param({"capacity_tiles": 2}, id="capacity-below-3"),  # A+B+C minimum is 3
    pytest.param({"kind": "host-worker", "capacity_tiles": 8}, id="host-worker-capacity"),
    pytest.param({"kind": "quantum"}, id="kind-unknown"),
    pytest.param({"device_id": 0.0}, id="id-float"),
    pytest.param({"device_id": True}, id="id-bool"),
    pytest.param({"slots": 2.0}, id="slots-float"),
    pytest.param({"capacity_tiles": 3.5}, id="capacity-float"),
    pytest.param({"capacity_tiles": True}, id="capacity-bool"),
    pytest.param({"subtile_factor": "2"}, id="subtile-str"),
    pytest.param({"flops_per_unit": float("nan")}, id="flops-nan"),
    pytest.param({"host_bandwidth": float("nan")}, id="bandwidth-nan"),
    pytest.param({"flops_per_unit": float("inf")}, id="flops-inf"),
    pytest.param({"host_bandwidth": float("inf")}, id="bandwidth-inf"),
])
def test_device_spec_validation(bad):
    with pytest.raises(ConfigError):
        DeviceSpec(**{"device_id": 0, **bad})
    DeviceSpec(0, capacity_tiles=3)  # minimum accepted
    DeviceSpec(np.int64(0), capacity_tiles=np.int32(3), slots=np.int16(2),
               subtile_factor=np.uint8(2))  # numpy integers are integers


def test_proximity_validation():
    with pytest.raises(ConfigError):
        ProximityMatrix(np.array([[0, 1], [2, 0]]), np.ones((2, 2)))  # asymmetric
    with pytest.raises(ConfigError):
        ProximityMatrix(np.array([[1]]), np.ones((1, 1)))  # nonzero diagonal
    with pytest.raises(ConfigError):
        ProximityMatrix(np.zeros((2, 2), dtype=int) , np.zeros((2, 2)))  # bw <= 0
    with pytest.raises(ConfigError):
        ProximityMatrix(np.array([[0, 1], [1, 0]]), np.array([[0, np.nan], [1, 0]]))
    with pytest.raises(ConfigError):
        ProximityMatrix(np.array([[0, 1], [1, 0]]), np.array([[0, np.inf], [np.inf, 0]]))
    # hop counts follow DeviceSpec's integer rule: no truncation, no bools
    for hops in ([[0, 1.7], [1.7, 0]], [[0, 1.0], [1.0, 0]], [[0, True], [True, 0]],
                 np.array([[0, 2.5], [2.5, 0]]), np.array([[False, True], [True, False]])):
        with pytest.raises(ConfigError):
            ProximityMatrix(hops, np.ones((2, 2)))
    prox = ProximityMatrix(np.array([[0, 2], [2, 0]], dtype=np.int32), np.ones((2, 2)))
    assert prox.hops.dtype == np.int64 and prox.hops.tolist() == [[0, 2], [2, 0]]


def test_machine_validation():
    with pytest.raises(ConfigError):
        Machine([], ProximityMatrix.uniform(0))
    with pytest.raises(ConfigError):
        Machine([DeviceSpec(1)], ProximityMatrix.uniform(1))  # ids must start at 0
    with pytest.raises(ConfigError):
        Machine([DeviceSpec(0)], ProximityMatrix.uniform(2))  # size mismatch
    with pytest.raises(ConfigError):
        Machine([DeviceSpec(0)], ProximityMatrix.uniform(1), transfer_latency=float("nan"))
    with pytest.raises(ConfigError):
        Machine([DeviceSpec(0)], ProximityMatrix.uniform(1), transfer_latency=float("inf"))


def test_machine_config_roundtrip(tmp_path):
    m = homogeneous_machine(3, flops_per_unit=123.0, host_bandwidth=456.0,
                            peer_bandwidth=789.0, capacity_tiles=10, slots=2)
    path = tmp_path / "devices.json"
    save_machine(path, m)
    loaded = load_machine(path)
    assert loaded.n_devices == 3
    for d, e in zip(loaded.devices, m.devices):
        assert d == e
    assert np.array_equal(loaded.proximity.hops, m.proximity.hops)
    assert np.array_equal(loaded.proximity.peer_bandwidth, m.proximity.peer_bandwidth)
    assert loaded.element_bytes == 8


def test_machine_config_f32_mode(tmp_path):
    m = homogeneous_machine(1, dtype=np.float32)
    assert m.element_bytes == 4
    path = tmp_path / "devices.json"
    save_machine(path, m)
    assert load_machine(path).element_bytes == 4


def test_malformed_config_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"devices": [{"kind": "accelerator"}]}')
    with pytest.raises(ConfigError):
        load_machine(path)
