import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun.ann import (
    DenseBackend,
    Layer,
    Network,
    TiledBackend,
    activate,
    activation_grad,
    backward_layer,
    bench_pass,
    finite_difference_gradients,
    forward_layer,
    loss_gradients,
    mse,
    random_regression,
    train_step,
    xor_dataset,
)
from tilerun.coherence import CacheDirectory
from tilerun.devices import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.scheduler import Operand, plan


def tiled_backend(n_devices=2, tile_size=4, **kw):
    return TiledBackend(homogeneous_machine(n_devices), tile_size=tile_size, **kw)


# -- forward ------------------------------------------------------------------


def test_forward_identity_weights_pass_through():
    layer = Layer(np.eye(3), np.zeros(3), activation="identity")
    x = np.arange(6, dtype=float).reshape(2, 3)
    y, a = forward_layer(layer, x, DenseBackend())
    assert np.array_equal(y, x)
    assert np.array_equal(a, x)


def test_forward_hand_computed_with_bias():
    layer = Layer(np.eye(2), np.array([1.0, 1.0]), activation="identity")
    y, a = forward_layer(layer, np.array([[1.0, 2.0]]), DenseBackend())
    assert np.array_equal(y, [[2.0, 3.0]])


def test_forward_tiled_equals_dense_bitwise():
    rng = np.random.default_rng(0)
    layer = Layer(rng.standard_normal((9, 7)), rng.standard_normal(7),
                  activation="sigmoid")
    x = rng.standard_normal((5, 9))
    yd, ad = forward_layer(layer, x, DenseBackend())
    yt, at = forward_layer(layer, x, tiled_backend())
    assert np.array_equal(yd, yt)
    assert np.array_equal(ad, at)


def test_forward_rejects_shape_mismatch():
    layer = Layer(np.eye(3))
    with pytest.raises(ValueError):
        forward_layer(layer, np.zeros((2, 4)), DenseBackend())


# -- backward -----------------------------------------------------------------


def test_backward_zero_gradient_gives_zeros():
    rng = np.random.default_rng(1)
    layer = Layer(rng.standard_normal((4, 3)), rng.standard_normal(3))
    x = rng.standard_normal((6, 4))
    d_w, d_b, d_x = backward_layer(layer, x, np.zeros((6, 3)), DenseBackend())
    assert not d_w.any() and not d_b.any() and not d_x.any()


def test_backward_scalar_chain_rule():
    layer = Layer(np.array([[3.0]]), None, activation="identity")
    d_w, d_b, d_x = backward_layer(layer, np.array([[2.0]]), np.array([[5.0]]),
                                   DenseBackend())
    assert np.array_equal(d_w, [[10.0]])
    assert np.array_equal(d_x, [[15.0]])
    assert d_b is None


def test_backward_tiled_equals_dense_bitwise():
    rng = np.random.default_rng(2)
    layer = Layer(rng.standard_normal((8, 5)), rng.standard_normal(5))
    x = rng.standard_normal((6, 8))
    d_y = rng.standard_normal((6, 5))
    dense = backward_layer(layer, x, d_y, DenseBackend())
    tiled = backward_layer(layer, x, d_y, tiled_backend(3, 3))
    for d, t in zip(dense[:2], tiled[:2]):
        assert np.array_equal(d, t)
    assert np.array_equal(dense[2], tiled[2])


def test_gradients_match_finite_differences():
    backend = DenseBackend()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = Network.from_sizes([5, 7, 6, 3], rng, activation="sigmoid")
        x, target = random_regression(rng, 4, 5, 3)
        _, analytic = loss_gradients(net, x, target, backend)
        numeric = finite_difference_gradients(net, x, target, h=1e-5)
        for (a_w, a_b), (n_w, n_b) in zip(analytic, numeric):
            rel = np.abs(a_w - n_w) / np.maximum(np.abs(a_w) + np.abs(n_w), 1e-6)
            assert rel.max() <= 1e-4
            rel_b = np.abs(a_b - n_b) / np.maximum(np.abs(a_b) + np.abs(n_b), 1e-6)
            assert rel_b.max() <= 1e-4


def test_relu_gradients_match_finite_differences():
    # relu is piecewise linear, so away from its kink a central difference
    # is exact up to rounding
    for seed in range(3):
        rng = np.random.default_rng(seed)
        net = Network.from_sizes([3, 5, 2], rng, activation="relu")
        x, target = random_regression(rng, 4, 3, 2)
        _, analytic = loss_gradients(net, x, target, tiled_backend(2, 2))
        numeric = finite_difference_gradients(net, x, target, h=1e-5)
        assert any((a_w != 0).any() for a_w, _ in analytic)
        for (a_w, a_b), (n_w, n_b) in zip(analytic, numeric):
            assert np.allclose(a_w, n_w, rtol=0.0, atol=1e-9)
            assert np.allclose(a_b, n_b, rtol=0.0, atol=1e-9)


# -- training -----------------------------------------------------------------


def test_train_step_lr_zero_keeps_parameters():
    rng = np.random.default_rng(3)
    net = Network.from_sizes([3, 4, 2], rng)
    x, target = random_regression(rng, 5, 3, 2)
    before = [(l.weights.copy(), l.bias.copy()) for l in net.layers]
    train_step(net, x, target, 0.0, DenseBackend())
    for layer, (w, b) in zip(net.layers, before):
        assert np.array_equal(layer.weights, w)
        assert np.array_equal(layer.bias, b)


def test_train_step_descends_for_small_lr():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = Network.from_sizes([4, 6, 2], rng, activation="sigmoid")
        x, target = random_regression(rng, 8, 4, 2)
        backend = DenseBackend()
        loss_before = train_step(net, x, target, 1e-4, backend)
        loss_after = mse(net.predict(x, backend), target)
        assert loss_after < loss_before


def test_xor_training_converges():
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = DenseBackend()
    loss = None
    for _ in range(2000):
        loss = train_step(net, x, target, 0.5, backend)
    assert loss < 0.05


def test_tiled_training_trajectory_is_bitwise_equal():
    x, target = xor_dataset()
    nets = []
    for _ in range(2):
        rng = np.random.default_rng(0)
        nets.append(Network.from_sizes([2, 8, 1], rng, activation="sigmoid"))
    dense, tiled = DenseBackend(), tiled_backend(2, 2)
    for step in range(50):
        ld = train_step(nets[0], x, target, 0.5, dense)
        lt = train_step(nets[1], x, target, 0.5, tiled)
        assert ld == lt, f"loss diverged at step {step}"
    for l0, l1 in zip(nets[0].layers, nets[1].layers):
        assert np.array_equal(l0.weights, l1.weights)
        assert np.array_equal(l0.bias, l1.bias)


def test_relu_training_trajectory_is_bitwise_equal():
    rng = np.random.default_rng(1)
    x, target = random_regression(rng, 6, 3, 2)
    nets = [Network.from_sizes([3, 5, 4, 2], np.random.default_rng(2), activation="relu")
            for _ in range(2)]
    dense, tiled = DenseBackend(), tiled_backend(3, 2)
    losses = [[train_step(net, x, target, 0.05, backend) for _ in range(30)]
              for net, backend in zip(nets, (dense, tiled))]
    assert losses[0] == losses[1]
    assert losses[0][-1] < losses[0][0]
    for l0, l1 in zip(nets[0].layers, nets[1].layers):
        assert np.array_equal(l0.weights, l1.weights)
        assert np.array_equal(l0.bias, l1.bias)


def logged_uids(monkeypatch, backend):
    """The ``(a_uid, b_uid)`` of every product the backend's session runs
    from now on, in call order."""
    rt = backend.runtime
    multiply, uids = rt.multiply, []

    def logged(a, b, **kw):
        uids.append((kw["a_uid"], kw["b_uid"]))
        return multiply(a, b, **kw)

    monkeypatch.setattr(rt, "multiply", logged)
    return uids


def test_updated_weights_get_a_new_uid(monkeypatch):
    # The backend names the weights for their first product and keeps the
    # name while they live; train_step retires them, and the updated
    # weights array is named afresh by the next product that reads it.
    rng = np.random.default_rng(4)
    net = Network.from_sizes([3, 3], rng)
    x, target = random_regression(rng, 4, 3, 3)
    backend = tiled_backend(1, 2)
    uids = logged_uids(monkeypatch, backend)
    net.predict(x, backend)  # X·W
    net.predict(x, backend)  # X·W
    train_step(net, x, target, 0.1, backend)  # X·W, Xᵀ·dY, dY·Wᵀ
    net.predict(x, backend)  # X·W'
    assert uids[0][1] == uids[1][1] == uids[2][1] == uids[4][1]
    assert uids[0][0] != uids[1][0]  # predict retires its input, so it is named again
    assert uids[5][1] not in {uid for pair in uids[:5] for uid in pair}
    assert {k.matrix for k in backend.runtime.directory.residents(0)} == {uids[5][1]}


def test_weights_of_distinct_layers_never_share_a_uid():
    # Two 4x4 layers at tile 2: each product reads its input's 4 tiles and
    # its weights' 4 tiles, 16 requests in all, and a first read of a tile
    # is a host fetch.  Named alike, the second layer's weights would be
    # counted as hits on tiles never fetched.
    rng = np.random.default_rng(7)
    w0, w1, x = (rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(3))
    backend = TiledBackend(homogeneous_machine(1), tile_size=2)
    Network([Layer(w0), Layer(w1)]).predict(x, backend)
    stats = backend.runtime.directory.stats()
    assert (stats.host_fetches, stats.l1_hits) == (2 * (4 + 4), 2 * 16 - 2 * (4 + 4))
    # two networks on one backend, the first named in an earlier session
    # too: the second fetches its own weights, as in a session of its own
    def net(seed):
        return Network.from_sizes([4, 4, 4], np.random.default_rng(seed))

    earlier, shared, alone = (TiledBackend(homogeneous_machine(1), tile_size=2)
                              for _ in range(3))
    first = net(0)
    first.predict(x, earlier)
    first.predict(x, shared)
    before = shared.runtime.directory.stats()
    net(1).predict(x, shared)
    net(1).predict(x, alone)
    assert shared.runtime.directory.stats() - before == alone.runtime.directory.stats()


def test_weights_replaced_by_hand_are_fetched_not_hit():
    # A 4x4 layer at tile 2: a product reads its input's 4 tiles and the
    # weights' 4 tiles, 8 requests each.  Weights replaced by hand are a
    # new array, so the second predict fetches each of its 8 tiles once
    # and hits the other 8 requests.
    rng = np.random.default_rng(7)
    w0, w1, x = (rng.uniform(-1.0, 1.0, (4, 4)) for _ in range(3))
    net = Network([Layer(w0)])
    backend = TiledBackend(homogeneous_machine(1), tile_size=2)
    net.predict(x, backend)
    before = backend.runtime.directory.stats()
    net.layers[0].weights = w1
    net.predict(x, backend)
    stats = backend.runtime.directory.stats() - before
    assert (stats.host_fetches, stats.l1_hits) == (8, 8)


def test_the_backend_keeps_no_retired_array_alive(monkeypatch):
    # The backend holds each array it names until it is retired: after a
    # step, the pre-update weights, the layer inputs and the gradients are
    # all dead, and only the caller's data is still alive.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2)
    old_weights = [weakref.ref(layer.weights) for layer in net.layers]
    rt = backend.runtime
    multiply, operands = rt.multiply, []

    def logged(a, b, **kw):
        operands.extend((weakref.ref(a), weakref.ref(b)))
        return multiply(a, b, **kw)

    monkeypatch.setattr(rt, "multiply", logged)
    train_step(net, x, target, 0.5, backend)
    assert len(operands) == 12
    assert all(ref() is None for ref in old_weights)
    assert all(ref() is None or ref() is x for ref in operands)


def test_backward_pass_reuses_forward_tiles():
    rng = np.random.default_rng(5)
    net = Network.from_sizes([8, 8, 4], rng)
    x, target = random_regression(rng, 8, 8, 4)
    backend = tiled_backend(1, 4)
    train_step(net, x, target, 0.1, backend)
    stats = backend.runtime.directory.stats()
    # the backward products read the forward pass's X and W tiles from cache
    assert stats.l1_hits > 0


def test_session_price_tables_and_peer_ranking_stay_bounded():
    # The price tables hold one entry per distinct price a device meets,
    # and the peer ranking is built once: a long XOR session meets nothing
    # new after its first steps, so neither grows with the session.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2)
    rt = backend.runtime

    def entries():
        return (sum(len(table) for tables in rt.prices.values() for table in tables)
                + sum(len(cache.peers) for cache in rt.directory._caches.values()))

    counts = {}
    for step in range(1, 1001):
        train_step(net, x, target, 0.5, backend)
        if step in (10, 1000):
            counts[step] = entries()
    assert counts[1000] == counts[10] > 0


def test_session_keeps_one_shared_result_per_source_and_size(monkeypatch):
    # The directory returns one shared AcquireResult per (source, bytes
    # moved) and keeps it for the session: a long XOR session meets every
    # pair in its first steps, so the kept results neither repeat a pair
    # nor grow with the session.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2)
    directory = backend.runtime.directory
    returned = {}  # id -> every result object the directory returned
    acquire = directory.acquire_input

    def recording(requester, requests):
        out = acquire(requester, requests)
        returned.update((id(res), res) for res in out)
        return out

    monkeypatch.setattr(directory, "acquire_input", recording)

    def kept():
        return sum(len(results) for results in directory._results.values())

    counts = {}
    for step in range(1, 501):
        train_step(net, x, target, 0.5, backend)
        if step in (10, 500):
            counts[step] = kept()
    pairs = {(res.source, res.nbytes_moved) for res in returned.values()}
    assert len(returned) == len(pairs) == counts[500] == counts[10]
    # an L1 hit on each device, and a peer copy or host fetch of either
    # tile size the session meets (2x2 and 2x1 float64 tiles)
    assert pairs == {(0, 0), (1, 0), (0, 16), (0, 32), (1, 16), (1, 32),
                     ("host", 16), ("host", 32)}


def test_session_keeps_one_template_per_product_shape():
    # A [2, 8, 1] step makes six products of six shapes; a session plans
    # each shape once and binds that template on every later step, so a
    # long session keeps the same six templates.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2)
    templates = backend.runtime.templates
    kept = {}
    for step in range(1, 501):
        train_step(net, x, target, 0.5, backend)
        if step in (10, 500):
            kept[step] = dict(templates)
    assert len(kept[10]) == len(kept[500]) == 6
    assert kept[10].keys() == kept[500].keys()
    assert all(kept[500][key] is template for key, template in kept[10].items())


def test_train_step_makes_uids_only_for_operands_its_products_read(monkeypatch):
    # A [2, 8, 1] step multiplies X0·W0, X1·W1, X1ᵀ·dY1, dY1·W1ᵀ, X0ᵀ·dY0
    # and dY0·W0ᵀ: two layer inputs, two weights and two gradients, six
    # uids.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2)
    rt = backend.runtime
    made, read = [], set()
    fresh_uid, multiply = rt.fresh_uid, rt.multiply

    def fresh_logged():
        made.append(fresh_uid())
        return made[-1]

    def multiply_logged(a, b, **kw):
        read.update((kw["a_uid"], kw["b_uid"]))
        return multiply(a, b, **kw)

    monkeypatch.setattr(rt, "fresh_uid", fresh_logged)
    monkeypatch.setattr(rt, "multiply", multiply_logged)
    train_step(net, x, target, 0.5, backend)
    assert len(backend.call_stats) == 6
    assert len(made) == len(set(made)) == 6
    assert read == set(made)


# -- bounded sessions --------------------------------------------------------


def resident_tiles(backend):
    rt = backend.runtime
    return [rt.directory.used_tiles(d.device_id) for d in rt.machine.devices]


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_a_long_training_session_keeps_no_tile_resident(mode):
    # Every uid a step reads dies with the step: its layer inputs and
    # gradients when loss_gradients returns, its weights when train_step
    # updates them.  So after each step no device holds a tile.
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    backend = tiled_backend(2, 2, mode=mode)
    for step in range(1000):
        train_step(net, x, target, 0.5, backend)
        assert resident_tiles(backend) == [0, 0], f"tiles left resident after step {step}"


def test_loss_gradients_keeps_only_the_weights_resident(monkeypatch):
    # without an update the weights stay live, and a repeated pass reads
    # them from cache; the pass's own inputs and gradients are retired
    rng = np.random.default_rng(5)
    net = Network.from_sizes([8, 8, 4], rng)
    x, target = random_regression(rng, 8, 8, 4)
    backend = tiled_backend(1, 4)
    uids = logged_uids(monkeypatch, backend)
    loss_gradients(net, x, target, backend)
    weight_uids = {b_uid for _, b_uid in uids[:len(net.layers)]}  # the forward products
    assert len(weight_uids) == len(net.layers)
    assert {k.matrix for k in backend.runtime.directory.residents(0)} == weight_uids
    hits = backend.runtime.directory.stats().l1_hits
    bench_pass(net, x, target, backend, repeats=1)
    assert backend.runtime.directory.stats().l1_hits > hits


def test_repeated_predicts_keep_only_the_weights_resident(monkeypatch):
    # predict retires its layer inputs before it returns, so a session of
    # predicts holds the weights' tiles and nothing else
    net = Network.from_sizes([2, 8, 1], np.random.default_rng(0), activation="sigmoid")
    x, _ = xor_dataset()
    backend = tiled_backend(2, 2)
    directory = backend.runtime.directory
    uids = logged_uids(monkeypatch, backend)
    counts = []
    for _ in range(3):
        net.predict(x, backend)
        weight_uids = {b_uid for _, b_uid in uids[-len(net.layers):]}
        assert len(weight_uids) == len(net.layers)
        assert {k.matrix for d in (0, 1) for k in directory.residents(d)} == weight_uids
        counts.append(resident_tiles(backend))
    assert counts[0] == counts[1] == counts[2]


@st.composite
def training_machines(draw):
    """2-4 devices, perhaps the last a host worker; each accelerator's
    capacity is bounded (3-8 tiles) or not; unequal speeds on a hop
    matrix of 1s and 2s, so hop ties are common."""
    n = draw(st.integers(2, 4))
    host_worker = draw(st.booleans())
    speed = st.floats(10.0, 5000.0)
    devs = [DeviceSpec(i, capacity_tiles=draw(st.none() | st.integers(3, 8)),
                       flops_per_unit=draw(speed), host_bandwidth=draw(speed))
            for i in range(n - host_worker)]
    if host_worker:
        devs.append(DeviceSpec(n - 1, kind="host-worker", flops_per_unit=draw(speed)))
    hops = np.zeros((n, n), dtype=int)
    bandwidth = np.zeros((n, n))
    for i, j in itertools.permutations(range(n), 2):
        if i < j:
            hops[i, j] = hops[j, i] = draw(st.integers(1, 2))
        bandwidth[i, j] = draw(speed)
    return Machine(devs, ProximityMatrix(hops, bandwidth),
                   transfer_latency=draw(st.floats(0.0, 2.0)))


training_sessions = dict(
    sizes=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    batch=st.integers(1, 5), tile=st.integers(1, 3), steps=st.integers(2, 4),
)


def train_session(machine, sizes, batch, tile, steps, mode="sim"):
    """``steps`` training steps of a fresh net; returns (losses, backend)."""
    rng = np.random.default_rng(0)
    net = Network.from_sizes(sizes, rng)
    x, target = random_regression(rng, batch, sizes[0], sizes[-1])
    backend = DenseBackend() if machine is None else TiledBackend(machine, tile, mode=mode)
    return [train_step(net, x, target, 0.1, backend) for _ in range(steps)], backend


def compare_with_no_op_retire(machine, sizes, batch, tile, steps):
    """Run a sim session as shipped and with retire made a no-op, assert
    that they differ in evictions alone, and return both sides' per-device
    evictions.

    A step retires every uid it read, after its last product, and no
    later product reads one.  So in a set that still held them they are
    older than every live tile and are never hit: LRU evicts them before
    any live tile, and the live tiles, every transfer and every clock are
    the same.  Only evictions may differ, and only downwards."""
    losses, kept = train_session(machine, sizes, batch, tile, steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CacheDirectory, "retire", lambda self, uids: None)
        no_op_losses, no_op = train_session(machine, sizes, batch, tile, steps)
    assert np.array(losses).tobytes() == np.array(no_op_losses).tobytes()
    assert kept.runtime.sim_now() == no_op.runtime.sim_now()
    assert [s.tasks_by_device for s in kept.call_stats] == \
        [s.tasks_by_device for s in no_op.call_stats]
    assert [s.steal_events for s in kept.call_stats] == [s.steal_events for s in no_op.call_stats]
    got, want = kept.runtime.directory.stats_per_device(), no_op.runtime.directory.stats_per_device()
    evictions = {d: (got[d].evictions, want[d].evictions) for d in got}
    for d in got:
        assert got[d].evictions <= want[d].evictions
        got[d].evictions = want[d].evictions
    assert got == want
    assert resident_tiles(kept) == [0] * machine.n_devices
    return evictions


@settings(max_examples=60, deadline=None)
@given(machine=training_machines(), **training_sessions)
def test_retiring_dead_tiles_moves_nothing_but_evictions(machine, sizes, batch, tile, steps):
    evictions = compare_with_no_op_retire(machine, sizes, batch, tile, steps)
    if all(d.capacity_tiles is None for d in machine.devices):
        assert all(got == want for got, want in evictions.values())


def test_retiring_spares_a_bounded_session_its_dead_tile_evictions():
    machine = homogeneous_machine(2, capacity_tiles=6)
    evictions = compare_with_no_op_retire(machine, [2, 8, 1], 4, 2, 20)
    assert all(got < want for got, want in evictions.values())


@settings(max_examples=10, deadline=None)
@given(machine=training_machines(), **training_sessions)
def test_threaded_sessions_that_retire_train_as_dense(machine, sizes, batch, tile, steps):
    # threaded interleavings are not deterministic, so only the losses
    # are compared, with the dense backend's
    losses, backend = train_session(machine, sizes, batch, tile, steps, mode="threaded")
    dense_losses, _ = train_session(None, sizes, batch, tile, steps)
    assert np.array(losses).tobytes() == np.array(dense_losses).tobytes()
    assert resident_tiles(backend) == [0] * machine.n_devices


# -- planning scale and benchmarking -------------------------------------------


def test_task_grid_tracks_batch_and_neurons():
    for batch, fan_in, fan_out, t in [(4, 6, 8, 2), (5, 3, 7, 3), (16, 16, 16, 4),
                                      (9, 2, 2, 8)]:
        x = np.zeros((batch, fan_in))
        w = np.zeros((fan_in, fan_out))
        p = plan(Operand(x, "X"), Operand(w, "W"), t)
        expected = -(-batch // t) * (-(-fan_out // t))
        assert p.total_tasks == expected


def test_bench_pass_defaults_to_ten_repeats():
    import inspect

    assert inspect.signature(bench_pass).parameters["repeats"].default == 10


def test_bench_pass_sim_time_improves_with_devices():
    rng = np.random.default_rng(6)
    net = Network.from_sizes([48, 48, 48], rng)
    x, target = random_regression(rng, 48, 48, 48)
    times = {}
    for n in (1, 4):
        backend = TiledBackend(homogeneous_machine(n), tile_size=8)
        times[n] = bench_pass(net, x, target, backend, repeats=3)
    assert times[4] < times[1]


def test_bench_pass_zero_layer_net():
    net = Network([])
    x = np.zeros((4, 4))
    backend = tiled_backend(2, 2)
    elapsed = bench_pass(net, x, x, backend, repeats=2)
    assert elapsed == 0.0  # no products planned, simulated clocks never move
    assert backend.runtime.sim_now() == 0.0


def test_bench_pass_times_a_dense_backend_by_wall_clock():
    rng = np.random.default_rng(9)
    net = Network.from_sizes([4, 3, 2], rng)
    x, target = random_regression(rng, 5, 4, 2)
    backend = DenseBackend()
    assert backend.sim_time() is None
    assert bench_pass(net, x, target, backend, repeats=2) > 0.0


def test_backward_rejects_a_gradient_of_the_wrong_shape():
    layer = Layer(np.ones((3, 2)))
    with pytest.raises(ValueError, match="gradient shape"):
        backward_layer(layer, np.ones((4, 3)), np.ones((4, 3)), DenseBackend())


def test_unknown_activation_is_rejected_by_both_functions():
    y = np.zeros((1, 2))
    with pytest.raises(ValueError, match="unknown activation 'softplus'"):
        activate("softplus", y)
    with pytest.raises(ValueError, match="unknown activation 'softplus'"):
        activation_grad("softplus", y, y)


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        Layer(np.eye(2), activation="softplus")
