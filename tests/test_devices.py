import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tilerun.scheduler import run


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
    with pytest.raises(ConfigError):
        transfer_cost(m, -1, 0, 100.0)  # not the last device
    for bad in (-1, 2, True, 1.0, "1", None):
        with pytest.raises(ConfigError):
            m.device(bad)
    assert m.device(np.int64(1)) is m.devices[1]


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
    pytest.param({"flops_per_unit": True}, id="flops-bool"),
    pytest.param({"host_bandwidth": True}, id="bandwidth-bool"),
])
def test_device_spec_validation(bad):
    with pytest.raises(ConfigError):
        DeviceSpec(**{"device_id": 0, **bad})
    DeviceSpec(0, capacity_tiles=3)  # minimum accepted
    DeviceSpec(np.int64(0), capacity_tiles=np.int32(3), slots=np.int16(2),
               subtile_factor=np.uint8(2))  # numpy integers are integers


@pytest.mark.parametrize("bad, message", [
    ({"device_id": -1}, "device_id must be >= 0"),
    ({"slots": 0}, "slots must be >= 1"),
    ({"subtile_factor": 0}, "subtile_factor must be >= 1"),
], ids=["id-negative", "slots-zero", "subtile-zero"])
def test_device_spec_rejects_integers_below_their_range(bad, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        DeviceSpec(**{"device_id": 0, **bad})


@pytest.mark.parametrize("hops, bandwidth, message", [
    (np.zeros((2, 3), dtype=int), np.ones((2, 3)), r"hops must be square, got shape \(2, 3\)"),
    (np.zeros((2, 2), dtype=int), np.ones((3, 3)), "peer_bandwidth shape must match hops"),
    ([[0, -1], [-1, 0]], np.ones((2, 2)), "hop counts must be non-negative"),
], ids=["hops-not-square", "shapes-differ", "hops-negative"])
def test_proximity_rejects_bad_shapes_and_negative_hops(hops, bandwidth, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ProximityMatrix(hops, bandwidth)


def test_cost_functions_reject_bad_arguments():
    machine = make_machine(2)
    with pytest.raises(ValueError, match=r"^inner dimensions differ: \(4, 3\) x \(2, 4\)$"):
        compute_cost(machine.device(0), (4, 3), (2, 4))
    with pytest.raises(ValueError, match="^nbytes must be >= 0$"):
        transfer_cost(machine, HOST, 0, -1)
    assert transfer_cost(machine, HOST, 0, 0) == machine.transfer_latency  # 0 bytes is fine


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


def test_proximity_equals_only_a_proximity_matrix():
    prox = ProximityMatrix(np.zeros((1, 1), dtype=int), np.ones((1, 1)))
    assert prox == ProximityMatrix(np.zeros((1, 1), dtype=int), np.ones((1, 1)))
    assert prox.__eq__(1) is NotImplemented
    assert not prox == 1


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
    with pytest.raises(ConfigError):
        Machine([DeviceSpec(0)], ProximityMatrix.uniform(1), transfer_latency=True)
    # peer bandwidths are numbers, as hops are integers: no bools, no strings
    for bw in ([[0, True], [True, 0]], [[0, "4"], ["4", 0]]):
        with pytest.raises(ConfigError):
            Machine.from_dict({"devices": [{"id": 0}, {"id": 1}],
                               "proximity": {"hops": [[0, 1], [1, 0]], "peer_bandwidth": bw}})


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


def test_machines_compare_by_value(tmp_path):
    m = homogeneous_machine(2)
    assert m == homogeneous_machine(2)
    path = tmp_path / "devices.json"
    save_machine(path, m)
    assert load_machine(path) == m
    hops = m.proximity.hops.copy()
    hops[0, 1] = hops[1, 0] = 2
    other = Machine(m.devices, ProximityMatrix(hops, m.proximity.peer_bandwidth))
    assert other != m


def test_numpy_scalars_are_stored_as_python_numbers(tmp_path):
    m = homogeneous_machine(2, host_bandwidth=np.float64(512.0),
                            flops_per_unit=np.float32(1000.0), slots=np.int64(4),
                            transfer_latency=np.float64(0.5))
    _, stats = run(m, np.ones((16, 16)), np.ones((16, 16)), tile_size=4)
    assert type(stats.makespan) is float
    path = tmp_path / "devices.json"
    save_machine(path, m)
    loaded = load_machine(path)
    assert loaded.devices == m.devices
    assert loaded.transfer_latency == m.transfer_latency


def _number(lo, hi):
    """A finite number in [lo, hi], perhaps as a numpy scalar."""
    return st.tuples(st.sampled_from([float, np.float64, np.float32]),
                     st.floats(lo, hi)).map(lambda t: t[0](t[1]))


@st.composite
def machines(draw):
    """1-4 devices of both kinds, bounded or not, on unequal hops and
    bandwidths."""
    n = draw(st.integers(1, 4))
    devices = []
    for i in range(n):
        kind = draw(st.sampled_from(["accelerator", "host-worker"]))
        capacity = None if kind == "host-worker" else draw(st.none() | st.integers(3, 64))
        devices.append(DeviceSpec(
            draw(st.sampled_from([int, np.int64]))(i), kind=kind, capacity_tiles=capacity,
            flops_per_unit=draw(_number(1e-3, 1e9)), host_bandwidth=draw(_number(1e-3, 1e9)),
            slots=draw(st.integers(1, 8)), subtile_factor=draw(st.integers(1, 4))))
    hops = np.zeros((n, n), dtype=int)
    bw = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i < j:
                hops[i, j] = hops[j, i] = draw(st.integers(1, 4))
            if i != j:
                bw[i, j] = draw(st.floats(1e-3, 1e9))
    return Machine(devices, ProximityMatrix(hops, bw), transfer_latency=draw(_number(0.0, 1e3)))


@settings(max_examples=100, deadline=None)
@given(m=machines())
def test_machine_config_roundtrip_any_machine(m):
    loaded = Machine.from_dict(json.loads(json.dumps(m.to_dict())))
    assert loaded.devices == m.devices
    assert np.array_equal(loaded.proximity.hops, m.proximity.hops)
    assert np.array_equal(loaded.proximity.peer_bandwidth, m.proximity.peer_bandwidth)
    assert loaded.transfer_latency == m.transfer_latency


def test_malformed_config_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"devices": [{"kind": "accelerator"}]}')
    with pytest.raises(ConfigError):
        load_machine(path)
