import numpy as np
import pytest

from tilerun.ann import (
    DenseBackend,
    Layer,
    Network,
    TiledBackend,
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
from tilerun.devices import homogeneous_machine
from tilerun.scheduler import Operand, plan
from tilerun.tiles import partition, reference_gemm


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
                  activation="sigmoid", tag="l0")
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
    layer = Layer(rng.standard_normal((8, 5)), rng.standard_normal(5), tag="l0")
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


def test_weight_version_bumps_on_update():
    rng = np.random.default_rng(4)
    net = Network.from_sizes([3, 3], rng)
    x, target = random_regression(rng, 4, 3, 3)
    uid_before = net.layers[0].weight_uid
    train_step(net, x, target, 0.1, DenseBackend())
    assert net.layers[0].weight_uid != uid_before


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
        return (sum(len(fetch) + len(compute) for fetch, compute in rt.prices.values())
                + sum(len(peers) for peers in rt.directory._peers.values()))

    counts = {}
    for step in range(1, 1001):
        train_step(net, x, target, 0.5, backend)
        if step in (10, 1000):
            counts[step] = entries()
    assert counts[1000] == counts[10] > 0


# -- planning scale and benchmarking -------------------------------------------


def test_task_grid_tracks_batch_and_neurons():
    for batch, fan_in, fan_out, t in [(4, 6, 8, 2), (5, 3, 7, 3), (16, 16, 16, 4),
                                      (9, 2, 2, 8)]:
        x = np.zeros((batch, fan_in))
        w = np.zeros((fan_in, fan_out))
        p = plan(Operand(partition(x, t), "X"), Operand(partition(w, t), "W"))
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


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        Layer(np.eye(2), activation="softplus")
