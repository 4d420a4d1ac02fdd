#!/usr/bin/env python3
# Training a network through the tiled runtime.
#
# Forward and backward passes are nothing but matrix products, so they
# run through the same scheduler, cache, and devices as any other GEMM.
# The dense backend and the multi-device tiled backend produce the SAME
# loss trajectory bit for bit, gradients agree with finite differences,
# and simulated pass time drops when devices are added.

import numpy as np

from tilerun import (
    DenseBackend,
    Network,
    TiledBackend,
    bench_pass,
    finite_difference_gradients,
    homogeneous_machine,
    train_step,
    xor_dataset,
)
from tilerun.ann import loss_gradients, random_regression

print("== XOR, 2-8-1 sigmoid net, lr 0.5: dense vs tiled (2 devices) ==")
x, target = xor_dataset()
nets = []
for _ in range(2):
    rng = np.random.default_rng(0)
    nets.append(Network.from_sizes([2, 8, 1], rng, activation="sigmoid"))
dense = DenseBackend()
tiled = TiledBackend(homogeneous_machine(2), tile_size=2)
max_gap = 0.0
for step in range(1, 2001):
    ld = train_step(nets[0], x, target, 0.5, dense)
    lt = train_step(nets[1], x, target, 0.5, tiled)
    max_gap = max(max_gap, abs(ld - lt))
    if step in (1, 10, 100, 500, 1000, 2000):
        print(f"  step {step:>4}: dense loss {ld:.6f}   tiled loss {lt:.6f}")
print(f"largest per-step trajectory gap over 2000 steps: {max_gap}")
print("predictions:", np.round(nets[1].predict(x), 3).ravel(), "for targets",
      target.ravel())

print()
print("== cache reuse inside one training step ==")
s = tiled.runtime.directory.stats()
print(f"over the whole run the backward passes turned "
      f"{s.l1_hits + s.l2_hits} of {s.input_requests} tile requests into cache hits")
resident = [tiled.runtime.directory.used_tiles(d) for d in range(2)]
print(f"tiles resident per device after 2000 steps: {resident} "
      f"(each step retires the activations, gradients and weights it read)")

print()
print("== gradient check against central finite differences ==")
rng = np.random.default_rng(3)
net = Network.from_sizes([5, 7, 6, 3], rng, activation="sigmoid")
xg, tg = random_regression(rng, 4, 5, 3)
_, analytic = loss_gradients(net, xg, tg, dense)
numeric = finite_difference_gradients(net, xg, tg, h=1e-5)
worst = 0.0
for (a_w, a_b), (n_w, n_b) in zip(analytic, numeric):
    worst = max(worst, np.max(np.abs(a_w - n_w) / np.maximum(np.abs(a_w) + np.abs(n_w), 1e-6)))
    worst = max(worst, np.max(np.abs(a_b - n_b) / np.maximum(np.abs(a_b) + np.abs(n_b), 1e-6)))
print(f"worst relative gradient error: {worst:.2e}")

print()
print("== simulated pass time vs device count (48-48-48 net, batch 48) ==")
rng = np.random.default_rng(7)
net = Network.from_sizes([48, 48, 48], rng)
xb, tb = random_regression(rng, 48, 48, 48)
for n in (1, 2, 4):
    backend = TiledBackend(homogeneous_machine(n), tile_size=8)
    t = bench_pass(net, xb, tb, backend, repeats=10)
    print(f"  {n} device(s): mean forward+backward = {t:.1f} simulated units")
