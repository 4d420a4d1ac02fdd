import numpy as np
import pytest

from tilerun.coherence import CacheDirectory, CacheStats, CapacityError
from tilerun.devices import HOST, DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.tiles import TileKey


def key(name):
    return TileKey(name, 0, 0)


def cap_machine(n=1, capacity=None, **kw):
    return homogeneous_machine(n, capacity_tiles=capacity, **kw)


def touch(d, device, k, nbytes=8):
    """Acquire and release at once: the tile ends resident and unpinned."""
    (res,), = d.acquire_input(device, [((k, nbytes),)])
    d.release_input(device, (k,))
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


@pytest.mark.usefixtures("directory_invariants")
def test_pinned_tiles_never_evicted():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc, kd = (key(n) for n in "abcd")
    d.acquire_input(0, [((ka, 8),)])  # held: pinned
    touch(d, 0, kb)
    touch(d, 0, kc)
    touch(d, 0, kd)
    assert d.residents(0) == [ka, kc, kd]  # a is pinned, b was the oldest unpinned


def test_admit_fails_when_everything_pinned():
    d = CacheDirectory(cap_machine(1, capacity=3))
    for n in "abc":
        d.acquire_input(0, [((key(n), 8),)])
    before = d.stats()
    with pytest.raises(CapacityError):
        d.acquire_input(0, [((key("d"), 8),)])
    # directory and counters unchanged by the failed acquire
    assert set(d.residents(0)) == {key("a"), key("b"), key("c")}
    assert d.stats() == before
    d.check_invariants()


@pytest.mark.usefixtures("directory_invariants")
def test_failed_batch_drops_its_pins_and_keeps_what_sequential_acquires_keep():
    ka, kb, kc, kd = (key(n) for n in "abcd")
    batched, sequential = (CacheDirectory(cap_machine(1, capacity=3)) for _ in range(2))
    for d in (batched, sequential):
        d.acquire_input(0, [((ka, 8), (kb, 8))])  # held: a and b pinned
    # c fits; d does not, because a, b and the batch's own c are pinned
    with pytest.raises(CapacityError):
        batched.acquire_input(0, [((kc, 8), (kd, 8))])
    sequential.acquire_input(0, [((kc, 8),)])
    with pytest.raises(CapacityError):
        sequential.acquire_input(0, [((kd, 8),)])
    sequential.release_input(0, (kc,))
    assert batched.residents(0) == sequential.residents(0) == [ka, kb, kc]
    assert batched.stats() == sequential.stats()
    assert (batched.stats().host_fetches, batched.stats().bytes_host) == (3, 24)
    assert batched._pins[0] == sequential._pins[0] == {ka: 1, kb: 1}
    batched.release_input(0, (ka, kb))
    touch(batched, 0, kd)  # nothing is pinned now: a, the least recent, goes
    assert batched.residents(0) == [kb, kc, kd]


def stepwise_acquire(d, device, steps):
    """The oracle of a task's call: each step a one-step call, released
    before the next one begins."""
    out = []
    for s, step in enumerate(steps):
        out += d.acquire_input(device, [step])
        if s < len(steps) - 1:
            d.release_input(device, [k for k, _ in step])
    return out


@pytest.mark.usefixtures("directory_invariants")
def test_task_call_keeps_only_its_last_step_pinned_as_stepwise_calls_do():
    ka, kb, kc, kd, ke = (key(n) for n in "abcde")
    task, stepwise = (CacheDirectory(cap_machine(1, capacity=3)) for _ in range(2))
    # at capacity 3, d fits only once a and b are unpinned
    steps = [[(ka, 8), (kb, 8)], [(kc, 8), (kd, 8)], [(ka, 8), (ke, 8)]]
    got = task.acquire_input(0, steps)
    assert [[r.source for r in step] for step in got] == [[HOST] * 2] * 3
    assert got == stepwise_acquire(stepwise, 0, steps)
    assert task.residents(0) == stepwise.residents(0) == [kd, ka, ke]
    assert task.stats() == stepwise.stats()
    assert task._pins[0] == stepwise._pins[0] == {ka: 1, ke: 1}
    # a failure in a later step: the first step's pin went when the second
    # began, and the second drops the pin on c before d raises
    steps = [[(kb, 8)], [(kc, 8), (kd, 8)]]
    with pytest.raises(CapacityError):
        task.acquire_input(0, steps)
    with pytest.raises(CapacityError):
        stepwise_acquire(stepwise, 0, steps)
    assert task.residents(0) == stepwise.residents(0) == [ka, ke, kc]
    assert task.stats() == stepwise.stats()
    assert task._pins[0] == stepwise._pins[0] == {ka: 1, ke: 1}


def test_pin_unpin_restores_evictability():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc = key("a"), key("b"), key("c")
    d.acquire_input(0, [((ka, 8),)])
    d.acquire_input(0, [((ka, 8),)])  # an L1 hit pins again
    d.release_input(0, (ka,))  # double pin, single unpin: still pinned
    d.acquire_input(0, [((kb, 8),)])
    d.acquire_input(0, [((kc, 8),)])
    with pytest.raises(CapacityError):
        d.acquire_input(0, [((key("d"), 8),)])
    d.release_input(0, (ka,))
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


@pytest.mark.usefixtures("directory_invariants")
def test_acquire_pins_until_release():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka = key("a")
    d.acquire_input(0, [((ka, 8),)])
    for n in "bcde":
        touch(d, 0, key(n))
        assert ka in d.residents(0)
    d.release_input(0, (ka,))
    touch(d, 0, key("f"))  # a is now the least recent unpinned tile
    assert ka not in d.residents(0)
    with pytest.raises(ValueError):
        d.release_input(0, (key("f"),))  # released already: no pin below zero


def test_bypass_mode_always_host():
    d = CacheDirectory(cap_machine(2), enabled=False)
    k = key("a")
    for _ in range(5):
        (r,), = d.acquire_input(0, [((k, 10),)])
        assert r.source == HOST and r.nbytes_moved == 10
        d.release_input(0, (k,))
    d.admit_output(0, key("c"))
    d.release_output(0, key("c"), 64)  # written back, though never cached
    s = d.stats()
    assert s.host_fetches == 5 and s.bytes_host == 50
    assert s.l1_hits == 0 and s.l2_hits == 0
    assert (s.writebacks, s.bytes_writeback) == (1, 64)
    assert d.residents(0) == [] and d.used_tiles(0) == 0


def test_host_worker_requests_are_free_host_fetches():
    devs = [DeviceSpec(0), DeviceSpec(1, kind="host-worker")]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=10.0))
    for enabled in (True, False):
        d = CacheDirectory(m, enabled=enabled)
        touch(d, 0, key("a"))  # resident on the accelerator when enabled
        (r,), = d.acquire_input(1, [((key("a"), 999),)])
        assert r.source == HOST and r.nbytes_moved == 0
        d.release_input(1, (key("a"),))
        d.admit_output(1, key("c"))
        d.release_output(1, key("c"), 64)  # its output is already in host memory
        s = d.stats_per_device()[1]
        assert s.host_fetches == 1 and s.bytes_host == 0
        assert (s.writebacks, s.bytes_writeback) == (0, 0)
        # host workers have no residency set
        assert d.residents(1) == [] and d.used_tiles(1) == 0


@pytest.mark.usefixtures("directory_invariants")
def test_output_tiles_pinned_then_released():
    d = CacheDirectory(cap_machine(1, capacity=3))
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


def test_invariants_fixture_checks_after_a_test_undo(directory_invariants, monkeypatch):
    d = CacheDirectory(cap_machine(1, capacity=3))
    monkeypatch.setattr(d, "residents", lambda device: [])
    monkeypatch.undo()  # the test's own undo keeps the checks in place
    d._pins[0][key("ghost")] = 1  # pinned but not resident
    with pytest.raises(AssertionError, match="not resident"):
        touch(d, 0, key("a"))


class ModelDirectory:
    """Dead-simple multi-device reference: one list per device in insertion
    order, recency refreshed by moving to the back.  A local miss copies
    from the closest device whose list holds the key (ties to the lowest
    id), or from host when none does.  It resolves one tile at a time."""

    def __init__(self, hops, capacity):
        self.hops = hops
        self.capacity = capacity
        self.keys = [[] for _ in hops]
        self.pins = [{} for _ in hops]
        self.stats = [CacheStats() for _ in hops]

    def lookup_local(self, dev, k):
        if k in self.keys[dev]:
            self.keys[dev].remove(k)
            self.keys[dev].append(k)
            return True
        return False

    def source(self, dev, k):
        owners = [o for o in range(len(self.keys)) if k in self.keys[o]]
        if not owners:
            return HOST
        return min(owners, key=lambda o: (self.hops[dev][o], o))

    def admit(self, dev, k):
        keys, pins = self.keys[dev], self.pins[dev]
        assert k not in keys
        if len(keys) >= self.capacity:
            for cand in list(keys):
                if pins.get(cand, 0) == 0:
                    keys.remove(cand)
                    self.stats[dev].evictions += 1
                    break
            else:
                raise CapacityError("model: all pinned")
        keys.append(k)

    def acquire(self, dev, k, nbytes):
        """Resolve and pin one tile; returns (source, bytes moved).  A tile
        that cannot be admitted raises before any counter moves."""
        st = self.stats[dev]
        if self.lookup_local(dev, k):
            st.l1_hits += 1
            res = (dev, 0)
        else:
            src = self.source(dev, k)
            self.admit(dev, k)
            if src == HOST:
                st.host_fetches += 1
                st.bytes_host += nbytes
            else:
                st.l2_hits += 1
                st.bytes_peer += nbytes
            res = (src, nbytes)
        self.pins[dev][k] = self.pins[dev].get(k, 0) + 1
        return res

    def unpin(self, dev, k):
        self.pins[dev][k] -= 1


@pytest.mark.usefixtures("directory_invariants")
def test_model_based_directory_agreement():
    # acquire = one call of 1-4 steps of 1-3 tiles.  The model resolves
    # each step as a lone acquire of its tiles would (refresh, or take the
    # source and then admit; then pin), with the step's earlier tiles
    # pinned, then releases the step unless it is the call's last.  A step
    # that fails drops the pins it took.  release = unpin the last step of
    # one earlier call.  Device 0 is closer to 2 than to 1; device 1 is
    # equally far from 0 and 2, so ties go to the lower id.
    hops = [[0, 2, 1], [2, 0, 2], [1, 2, 0]]
    rng = np.random.default_rng(99)
    peer_hits = refetched = failed_mid_step = failed_after_a_step = 0
    for trial in range(24):
        n = 2 + trial % 2
        cap = 3 if trial % 3 == 0 else int(rng.integers(4, 7))
        m = Machine([DeviceSpec(i, capacity_tiles=cap) for i in range(n)],
                    ProximityMatrix(np.array(hops)[:n, :n], np.full((n, n), 10.0)))
        d = CacheDirectory(m)
        model = ModelDirectory([row[:n] for row in hops[:n]], cap)
        universe = [key(f"t{i}") for i in range(12)]
        seen = set()  # keys that were resident somewhere before
        held = [[] for _ in range(n)]  # per device: last steps not yet released
        for _ in range(200):
            dev = int(rng.integers(0, n))
            if rng.integers(0, 2) == 0:
                steps = [[universe[int(i)]
                          for i in rng.integers(0, len(universe), int(rng.integers(1, 4)))]
                         for _ in range(int(rng.integers(1, 5)))]
                want = []
                try:
                    for s, step in enumerate(steps):
                        want.append([])
                        for k in step:
                            src, moved = model.acquire(dev, k, 8)
                            want[-1].append((src, moved))
                            if src != dev:  # not an L1 hit
                                peer_hits += src != HOST
                                refetched += src == HOST and k in seen
                                seen.add(k)
                        if s < len(steps) - 1:
                            for k in step:
                                model.unpin(dev, k)
                except CapacityError:
                    for k in step[:len(want[-1])]:
                        model.unpin(dev, k)
                    with pytest.raises(CapacityError):
                        d.acquire_input(dev, [[(k, 8) for k in step] for step in steps])
                    failed_mid_step += len(want[-1]) > 0
                    failed_after_a_step += s > 0
                else:
                    got = d.acquire_input(dev, [[(k, 8) for k in step] for step in steps])
                    assert [[(r.source, r.nbytes_moved) for r in step] for step in got] == want
                    held[dev].append(steps[-1])
            elif held[dev]:
                step = held[dev].pop(int(rng.integers(0, len(held[dev]))))
                for k in step:
                    model.unpin(dev, k)
                d.release_input(dev, step)
            for o in range(n):
                assert d.residents(o) == model.keys[o]
            assert d.stats_per_device() == dict(enumerate(model.stats))
            assert d._pins == {o: {k: c for k, c in model.pins[o].items() if c}
                               for o in range(n)}
    # the walk reached peer copies, tiles evicted from every owner came back
    # as host misses, and calls failed both inside a step that had pinned a
    # tile and in a step after an earlier one had resolved
    assert peer_hits > 0 and refetched > 0
    assert failed_mid_step > 0 and failed_after_a_step > 0
