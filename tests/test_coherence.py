import numpy as np
import pytest

from tilerun.coherence import CacheDirectory, CapacityError
from tilerun.devices import HOST, DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.tiles import TileKey


def key(name):
    return TileKey(name, 0, 0)


def cap_machine(n=1, capacity=None, **kw):
    return homogeneous_machine(n, capacity_tiles=capacity, **kw)


def touch(d, device, k, nbytes=8):
    """Acquire and release at once: the tile ends resident and unpinned."""
    res = d.acquire_input(device, k, nbytes)
    d.release_input(device, k)
    return res


def test_lookup_levels():
    d = CacheDirectory(cap_machine(3))
    k = key("a")
    # the source gives the level: HOST a miss, a peer L2, the requester L1
    res = touch(d, 2, k)
    assert (res.source, res.nbytes_moved) == (HOST, 8)
    res = touch(d, 0, k)
    assert (res.source, res.nbytes_moved) == (2, 8)
    # a peer hit copies the tile: the owner keeps it, bystanders see nothing
    assert d.residents(2) == [k] and d.residents(1) == []
    res = touch(d, 0, k)
    assert (res.source, res.nbytes_moved) == (0, 0)


def test_lookup_l2_picks_closest_owner():
    hops = np.array([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    prox = ProximityMatrix(hops, np.full((3, 3), 10.0))
    m = Machine([DeviceSpec(i) for i in range(3)], prox)
    d = CacheDirectory(m)
    k = key("a")
    touch(d, 1, k)
    touch(d, 2, k)
    assert touch(d, 0, k).source == 2  # 1 hop beats 2


def test_admit_within_capacity_no_eviction():
    d = CacheDirectory(cap_machine(1, capacity=3))
    for n in "abc":
        touch(d, 0, key(n))
    assert d.used_tiles(0) == 3
    assert d.stats().evictions == 0


def test_admit_evicts_lru_first():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc, kd = (key(n) for n in "abcd")
    for k in (ka, kb, kc):
        touch(d, 0, k)
    assert touch(d, 0, ka).source == 0  # L1 refresh of a: now b is least recent
    touch(d, 0, kd)
    assert set(d.residents(0)) == {ka, kc, kd}
    assert d.stats().evictions == 1


def test_admit_rejects_duplicate():
    d = CacheDirectory(cap_machine(1))
    d.admit_output(0, key("a"))
    with pytest.raises(ValueError):
        d.admit_output(0, key("a"))


def test_pinned_tiles_never_evicted():
    d = CacheDirectory(cap_machine(1, capacity=3), debug=True)
    ka, kb, kc, kd = (key(n) for n in "abcd")
    d.acquire_input(0, ka, 8)  # held: pinned
    touch(d, 0, kb)
    touch(d, 0, kc)
    touch(d, 0, kd)
    assert d.residents(0) == [ka, kc, kd]  # a is pinned, b was the oldest unpinned


def test_admit_fails_when_everything_pinned():
    d = CacheDirectory(cap_machine(1, capacity=3))
    for n in "abc":
        d.acquire_input(0, key(n), 8)
    before = d.stats()
    with pytest.raises(CapacityError):
        d.acquire_input(0, key("d"), 8)
    # directory and counters unchanged by the failed acquire
    assert set(d.residents(0)) == {key("a"), key("b"), key("c")}
    assert d.stats() == before
    d.check_invariants()


def test_pin_unpin_restores_evictability():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc = key("a"), key("b"), key("c")
    d.acquire_input(0, ka, 8)
    d.acquire_input(0, ka, 8)  # an L1 hit pins again
    d.release_input(0, ka)  # double pin, single unpin: still pinned
    d.acquire_input(0, kb, 8)
    d.acquire_input(0, kc, 8)
    with pytest.raises(CapacityError):
        d.acquire_input(0, key("d"), 8)
    d.release_input(0, ka)
    touch(d, 0, key("d"))
    assert ka not in d.residents(0)


def test_fresh_directory_stats_zero():
    d = CacheDirectory(cap_machine(2))
    s = d.stats()
    assert s.as_dict() == {k: 0 for k in s.as_dict()}


def test_acquire_counts_and_admits():
    d = CacheDirectory(cap_machine(2))
    k = key("a")
    r = touch(d, 0, k, 100)
    assert r.source == HOST and r.nbytes_moved == 100
    r = touch(d, 0, k, 100)
    assert r.source == 0 and r.nbytes_moved == 0
    r = touch(d, 1, k, 100)
    assert r.source == 0 and r.nbytes_moved == 100
    s = d.stats()
    assert (s.l1_hits, s.l2_hits, s.host_fetches) == (1, 1, 1)
    assert (s.bytes_host, s.bytes_peer) == (100, 100)
    per = d.stats_per_device()
    assert per[0].host_fetches == 1 and per[1].l2_hits == 1
    assert s == per[0] + per[1]


def test_acquire_pins_until_release():
    d = CacheDirectory(cap_machine(1, capacity=3), debug=True)
    ka = key("a")
    d.acquire_input(0, ka, 8)
    for n in "bcde":
        touch(d, 0, key(n))
        assert ka in d.residents(0)
    d.release_input(0, ka)
    touch(d, 0, key("f"))  # a is now the least recent unpinned tile
    assert ka not in d.residents(0)
    with pytest.raises(ValueError):
        d.release_input(0, key("f"))  # released already: no pin below zero


def test_bypass_mode_always_host():
    d = CacheDirectory(cap_machine(2), enabled=False)
    k = key("a")
    for _ in range(5):
        r = d.acquire_input(0, k, 10)
        assert r.source == HOST and r.nbytes_moved == 10
        d.release_input(0, k)
    s = d.stats()
    assert s.host_fetches == 5 and s.bytes_host == 50
    assert s.l1_hits == 0 and s.l2_hits == 0
    assert d.residents(0) == []


def test_host_worker_requests_are_free_host_fetches():
    devs = [DeviceSpec(0), DeviceSpec(1, kind="host-worker")]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=10.0))
    d = CacheDirectory(m)
    touch(d, 0, key("a"))  # resident on the accelerator
    r = d.acquire_input(1, key("a"), 999)
    assert r.source == HOST and r.nbytes_moved == 0
    s = d.stats_per_device()[1]
    assert s.host_fetches == 1 and s.bytes_host == 0
    assert d.residents(1) == []  # host workers never enter the directory


def test_output_tiles_pinned_then_released():
    d = CacheDirectory(cap_machine(1, capacity=3), debug=True)
    ck = key("c")
    d.admit_output(0, ck)
    for n in "abde":
        touch(d, 0, key(n))
        assert ck in d.residents(0)  # pinned for the whole task
    d.release_output(0, ck, 64)
    assert ck not in d.residents(0)
    s = d.stats()
    assert s.writebacks == 1 and s.bytes_writeback == 64
    assert s.evictions == 2  # inputs only: completion is not an eviction


class ModelDirectory:
    """Dead-simple single-device reference: list in insertion order,
    recency refreshed by moving to the back."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.keys = []
        self.pins = {}
        self.evictions = 0

    def lookup_local(self, k):
        if k in self.keys:
            self.keys.remove(k)
            self.keys.append(k)
            return True
        return False

    def admit(self, k):
        assert k not in self.keys
        if self.capacity is not None and len(self.keys) >= self.capacity:
            for cand in list(self.keys):
                if self.pins.get(cand, 0) == 0:
                    self.keys.remove(cand)
                    self.evictions += 1
                    break
            else:
                raise CapacityError("model: all pinned")
        self.keys.append(k)

    def pin(self, k):
        self.pins[k] = self.pins.get(k, 0) + 1

    def unpin(self, k):
        self.pins[k] -= 1


def test_model_based_directory_agreement():
    # acquire = refresh-or-admit, then pin; release = unpin
    rng = np.random.default_rng(99)
    for trial in range(20):
        cap = int(rng.integers(3, 7))
        d = CacheDirectory(cap_machine(1, capacity=cap), debug=True)
        model = ModelDirectory(cap)
        universe = [key(f"t{i}") for i in range(12)]
        for _ in range(300):
            k = universe[int(rng.integers(0, len(universe)))]
            if rng.integers(0, 2) == 0:
                if model.lookup_local(k):
                    want = (0, 0)  # L1: from the requester, nothing moved
                else:
                    try:
                        model.admit(k)
                    except CapacityError:
                        with pytest.raises(CapacityError):
                            d.acquire_input(0, k, 8)
                        continue
                    want = (HOST, 8)  # miss
                model.pin(k)
                r = d.acquire_input(0, k, 8)
                assert (r.source, r.nbytes_moved) == want
            elif model.pins.get(k, 0) > 0:
                model.unpin(k)
                d.release_input(0, k)
            assert d.residents(0) == model.keys
            assert d.stats().evictions == model.evictions

