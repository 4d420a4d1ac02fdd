"""Fully-connected network whose passes run through the tiled runtime.

Forward:  Y = X @ W + b, A = act(Y).
Backward: dW = X^T @ dY, db = column-sum(dY), dX = dY @ W^T.

Every product goes through a pluggable GEMM backend.  The dense backend
is the fixed-order reference product; the tiled backend is a scheduler
session.  Both use the same per-element accumulation order, so a
training trajectory is bit-identical between them -- the whole point of
the module is proving that reduction drives the runtime correctly.

The network names no matrix: the tiled backend names each array it
multiplies, and a pass only retires the arrays that die with it.  A
transpose is a flag, so the backward pass reads the forward's tiles again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .devices import Machine
from .scheduler import Runtime
from .tiles import reference_gemm

ACTIVATIONS = ("identity", "sigmoid", "relu")


def activate(name: str, y: np.ndarray) -> np.ndarray:
    if name == "identity":
        return y
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-y))
    if name == "relu":
        return np.maximum(y, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def activation_grad(name: str, y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d act / d y, from the pre-activation y and the activation output a."""
    if name == "identity":
        return np.ones_like(y)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "relu":
        return (y > 0.0).astype(y.dtype)
    raise ValueError(f"unknown activation {name!r}")


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(((pred - target) ** 2).mean())


def mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


# -- GEMM backends ---------------------------------------------------------


class DenseBackend:
    """Single-threaded fixed-order products; the comparison baseline."""

    def multiply(self, a, b, transpose_a=False, transpose_b=False):
        a = a.T if transpose_a else a
        b = b.T if transpose_b else b
        return reference_gemm(a, b)

    def retire(self, arrays):
        pass

    def sim_time(self):
        return None


class TiledBackend:
    """Products through a persistent scheduler session.

    Tile residency and device clocks carry across calls, so consecutive
    products of one training step reuse each other's cached tiles.  The
    backend names each array it multiplies (a transposed read keeps the
    name) and holds it, so no other array takes its ``id``, until
    :meth:`retire` says it is dead.  An array edited in place keeps its name.
    """

    def __init__(self, machine: Machine, tile_size: int, mode: str = "sim"):
        self.runtime = Runtime(machine, tile_size, mode=mode)
        self.call_stats = []
        self._names = {}  # id(array) -> (array, uid)

    def _uid(self, array):
        entry = self._names.get(id(array))
        if entry is None:
            entry = self._names[id(array)] = (array, self.runtime.fresh_uid())
        return entry[1]

    def multiply(self, a, b, transpose_a=False, transpose_b=False):
        c, stats = self.runtime.multiply(a, b, transpose_a=transpose_a,
                                         transpose_b=transpose_b,
                                         a_uid=self._uid(a), b_uid=self._uid(b))
        self.call_stats.append(stats)
        return c

    def retire(self, arrays):
        """Forget ``arrays`` and drop their tiles; an unnamed array is ignored."""
        self.runtime.retire([self._names.pop(id(array))[1] for array in arrays
                             if id(array) in self._names])

    def sim_time(self):
        return self.runtime.sim_now() if self.runtime.mode == "sim" else None


# -- layers and networks -----------------------------------------------------


@dataclass
class Layer:
    weights: np.ndarray  # fan_in x fan_out
    bias: np.ndarray | None = None  # fan_out
    activation: str = "sigmoid"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weights.shape[1],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match fan_out "
                    f"{self.weights.shape[1]}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


def forward_layer(layer: Layer, x: np.ndarray, backend):
    """Returns (pre-activation, activation output)."""
    if x.shape[1] != layer.fan_in:
        raise ValueError(f"input width {x.shape[1]} != fan_in {layer.fan_in}")
    y = backend.multiply(x, layer.weights)
    if layer.bias is not None:
        y = y + layer.bias
    return y, activate(layer.activation, y)


def backward_layer(layer: Layer, x: np.ndarray, d_y: np.ndarray, backend):
    """Gradients for one layer given d loss / d pre-activation.

    Both products run through the backend; the transposes are flags, not
    copies.
    """
    if d_y.shape != (x.shape[0], layer.fan_out):
        raise ValueError(f"gradient shape {d_y.shape} inconsistent with layer")
    d_w = backend.multiply(x, d_y, transpose_a=True)
    d_x = backend.multiply(d_y, layer.weights, transpose_b=True)
    d_b = d_y.sum(axis=0) if layer.bias is not None else None
    return d_w, d_b, d_x


@dataclass
class Network:
    layers: list[Layer] = field(default_factory=list)

    @classmethod
    def from_sizes(cls, sizes: list[int], rng: np.random.Generator,
                   activation: str = "sigmoid") -> "Network":
        """Layer sizes like [2, 8, 1]; every layer uses ``activation``.

        Each layer draws its weights, then its bias, uniformly from
        [-1, 1)."""
        layers = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w = rng.uniform(-1.0, 1.0, size=(fan_in, fan_out))
            b = rng.uniform(-1.0, 1.0, size=fan_out)
            layers.append(Layer(w, b, activation))
        return cls(layers)

    def forward(self, x: np.ndarray, backend):
        """Full forward pass; returns (inputs, preacts, acts) per layer."""
        xs, ys, acts = [], [], []
        cur = x
        for layer in self.layers:
            xs.append(cur)
            y, a = forward_layer(layer, cur, backend)
            ys.append(y)
            acts.append(a)
            cur = a
        return xs, ys, acts

    def predict(self, x: np.ndarray, backend=None) -> np.ndarray:
        """The last activation; the layer inputs are retired."""
        backend = backend or DenseBackend()
        xs, _, acts = self.forward(x, backend)
        backend.retire(xs)
        return acts[-1] if acts else x


def loss_gradients(net: Network, x: np.ndarray, target: np.ndarray, backend):
    """One forward+backward pass, no update: (MSE loss, per-layer (dW, db)).

    No later product reads the pass's layer inputs or gradients, so they
    are retired before it returns."""
    xs, ys, acts = net.forward(x, backend)
    pred = acts[-1] if acts else x
    grads = [None] * len(net.layers)
    d_ys = []
    d_out = mse_grad(pred, target)
    for l in reversed(range(len(net.layers))):
        layer = net.layers[l]
        d_ys.append(d_out * activation_grad(layer.activation, ys[l], acts[l]))
        d_w, d_b, d_x = backward_layer(layer, xs[l], d_ys[-1], backend)
        grads[l] = (d_w, d_b)
        d_out = d_x
    backend.retire(xs + d_ys)
    return mse(pred, target), grads


def train_step(net: Network, x: np.ndarray, target: np.ndarray, lr: float,
               backend) -> float:
    """Forward, MSE loss, backward, SGD update.  Returns the loss."""
    loss, grads = loss_gradients(net, x, target, backend)
    backend.retire([layer.weights for layer in net.layers])  # read by no later product
    for layer, (d_w, d_b) in zip(net.layers, grads):
        layer.weights = layer.weights - lr * d_w
        if layer.bias is not None and d_b is not None:
            layer.bias = layer.bias - lr * d_b
    return loss


def bench_pass(net: Network, x: np.ndarray, target: np.ndarray, backend,
               repeats: int = 10) -> float:
    """Mean time for one forward+backward pass over ``repeats`` samples.

    Simulated time when the backend runs a sim-mode session, wall clock
    otherwise.  No parameter updates happen.
    """
    samples = []
    for _ in range(repeats):
        sim_before = backend.sim_time()
        t0 = time.perf_counter()
        loss_gradients(net, x, target, backend)
        wall = time.perf_counter() - t0
        sim_after = backend.sim_time()
        if sim_before is not None:
            samples.append(sim_after - sim_before)
        else:
            samples.append(wall)
    return float(np.mean(samples)) if samples else 0.0


# -- verification and data helpers ------------------------------------------


def finite_difference_gradients(net: Network, x: np.ndarray, target: np.ndarray,
                                h: float = 1e-5):
    """Central-difference loss gradients for every parameter.

    Independent of the backward pass: only repeated forward evaluations
    through the dense backend.  Returns one (dW, db) pair per layer, db
    None for a layer without a bias.
    """
    backend = DenseBackend()

    def loss_now() -> float:
        return mse(net.predict(x, backend), target)

    out = []
    for layer in net.layers:
        grads = []
        for param in (layer.weights, layer.bias):
            if param is None:
                grads.append(None)
                continue
            grad = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = loss_now()
                param[idx] = orig - h
                down = loss_now()
                param[idx] = orig
                grad[idx] = (up - down) / (2.0 * h)
            grads.append(grad)
        out.append(tuple(grads))
    return out


def xor_dataset():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    target = np.array([[0.0], [1.0], [1.0], [0.0]])
    return x, target


def random_regression(rng: np.random.Generator, batch: int, n_in: int, n_out: int):
    x = rng.uniform(-1.0, 1.0, size=(batch, n_in))
    target = rng.uniform(-1.0, 1.0, size=(batch, n_out))
    return x, target
