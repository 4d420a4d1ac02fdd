"""Exact oracles that share no code with the engine.

* LRU stack distances: on one device the request string follows from the
  shapes alone, and a request misses exactly when its LRU stack distance
  exceeds the set's room (Mattson, Gecsei, Slutz and Traiger, "Evaluation
  techniques for storage hierarchies", IBM Systems Journal 9(2), 1970).
* Rate scaling: multiplying every throughput and bandwidth by a power of
  two ``s`` and dividing the latency by ``s`` makes every price exactly
  ``1/s`` of the old one, so a session replays the same schedule with
  every time divided by ``s``, bit for bit.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun.devices import DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.scheduler import Runtime
from tilerun.tiles import TileKey


def int_matrix(rng, rows, cols):
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float64)


def n_tiles(n, t):
    return -(-n // t)


def request_string(m, k, n, t, ta, tb):
    """The keys one device requests for ``A @ B`` read as ``m x k`` and
    ``k x n`` tiles of ``t``: tasks in row-major order, then A(i, s) and
    B(s, j) for each contraction step, keyed by stored coordinates."""
    for i, j in itertools.product(range(n_tiles(m, t)), range(n_tiles(n, t))):
        for s in range(n_tiles(k, t)):
            yield TileKey("A", *((s, i) if ta else (i, s)))
            yield TileKey("B", *((j, s) if tb else (s, j)))


def stack_distances(keys):
    """Each request's LRU stack distance: its depth in the stack of keys
    ordered most recent first, or None for a first reference."""
    stack, out = [], []
    for key in keys:
        if key in stack:
            out.append(stack.index(key) + 1)
            stack.remove(key)
        else:
            out.append(None)
        stack.insert(0, key)
    return out


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 9), k=st.integers(1, 9), n=st.integers(1, 9), t=st.integers(1, 4),
       ta=st.booleans(), tb=st.booleans())
def test_one_device_traffic_matches_lru_stack_distances(m, k, n, t, ta, tb):
    # A request hits a set of room r exactly when its stack distance is at
    # most r, so the distances give the hits at every capacity at once;
    # a set that starts empty and loses nothing to retire evicts once for
    # every miss beyond its room.
    rng = np.random.default_rng(0)
    a = int_matrix(rng, *((k, m) if ta else (m, k)))
    b = int_matrix(rng, *((n, k) if tb else (k, n)))
    distances = stack_distances(request_string(m, k, n, t, ta, tb))
    steps = n_tiles(k, t)
    for capacity in range(3, 2 * steps + 6):
        room = capacity - 1
        hits = sum(dist is not None and dist <= room for dist in distances)
        misses = len(distances) - hits
        rt = Runtime(homogeneous_machine(1, capacity_tiles=capacity), tile_size=t)
        _, stats = rt.multiply(a, b, ta, tb, a_uid="A", b_uid="B")
        got = stats.cache_per_device[0]
        assert (got.host_fetches, got.l1_hits, got.l2_hits, got.evictions) == \
            (misses, hits, 0, max(0, misses - room)), capacity


@st.composite
def rated_machines(draw):
    """1-4 devices, the last maybe a host worker, with unbounded or 3-29
    tile caches, 1-5 station slots, unequal rates, hops of 1-3 and a
    latency of 0-3, as keyword arguments for :func:`scaled_machine`."""
    n = draw(st.integers(1, 4))
    host_worker = n > 1 and draw(st.booleans())
    speed = st.floats(10.0, 5000.0)
    devices = []
    for i in range(n):
        kind = "host-worker" if host_worker and i == n - 1 else "accelerator"
        capacity = None if kind == "host-worker" else draw(
            st.one_of(st.none(), st.integers(3, 29)))
        devices.append(dict(device_id=i, kind=kind, capacity_tiles=capacity,
                            flops_per_unit=draw(speed), host_bandwidth=draw(speed),
                            slots=draw(st.integers(1, 5))))
    hops = np.zeros((n, n), dtype=int)
    bandwidth = np.zeros((n, n))
    for i, j in itertools.permutations(range(n), 2):
        if i < j:
            hops[i, j] = hops[j, i] = draw(st.integers(1, 3))
        bandwidth[i, j] = draw(speed)
    return dict(devices=devices, hops=hops, bandwidth=bandwidth,
                latency=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))


def scaled_machine(devices, hops, bandwidth, latency, s):
    """The machine with every rate times ``s`` and the latency over ``s``."""
    return Machine([DeviceSpec(**{**d, "flops_per_unit": d["flops_per_unit"] * s,
                                  "host_bandwidth": d["host_bandwidth"] * s})
                    for d in devices],
                   ProximityMatrix(hops, bandwidth * s), transfer_latency=latency / s)


def run_session(machine, tile, steal, products, rng_seed):
    """A session of chained products: each reads the previous output,
    straight or transposed, times a fresh weight matrix, and may retire
    the output it has read.  Returns each product's stats."""
    rng = np.random.default_rng(rng_seed)
    rt = Runtime(machine, tile_size=tile, steal=steal)
    (rows, cols), *rest = products
    x, x_uid = int_matrix(rng, rows, cols), "x0"
    out = []
    for p, (width, transposed, retire) in enumerate(rest):
        inner = x.shape[0] if transposed else x.shape[1]
        w, w_uid = int_matrix(rng, inner, width), f"w{p}"
        c, stats = rt.multiply(x, w, transposed, False, a_uid=x_uid, b_uid=w_uid)
        out.append(stats)
        if retire:
            rt.retire([x_uid])
        x, x_uid = c, f"c{p}"
    return out


@settings(max_examples=100, deadline=None)
@given(params=rated_machines(), tile=st.integers(1, 4), steal=st.booleans(),
       head=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       rest=st.lists(st.tuples(st.integers(1, 9), st.booleans(), st.booleans()),
                     min_size=1, max_size=4),
       exponent=st.integers(-3, 3))
def test_scaling_every_rate_divides_every_time(params, tile, steal, head, rest, exponent):
    s = 2.0 ** exponent
    products = [head, *rest]
    base = run_session(scaled_machine(**params, s=1.0), tile, steal, products, 0)
    scaled = run_session(scaled_machine(**params, s=s), tile, steal, products, 0)
    for one, other in zip(base, scaled):
        assert other.makespan == one.makespan / s
        assert other.ran_on == one.ran_on
        assert other.cache_per_device == one.cache_per_device
        assert [(ev.thief, ev.victim, ev.task_id, ev.time) for ev in other.steal_events] == \
            [(ev.thief, ev.victim, ev.task_id, ev.time / s) for ev in one.steal_events]
