import itertools
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun.coherence import AcquireResult, CacheDirectory, CacheStats
from tilerun.devices import HOST, DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.tiles import TileKey


def key(name):
    return TileKey(name, 0, 0)


def cap_machine(n=1, capacity=None, **kw):
    return homogeneous_machine(n, capacity_tiles=capacity, **kw)


def touch(d, device, k, nbytes=8, writeback=0):
    """Acquire one tile as a one-request task that writes ``writeback``
    bytes back."""
    (res,) = d.acquire_input(device, [(k, nbytes)], writeback)
    return res


def input_counts(per_device):
    """Per-device counters with the writeback counters zeroed."""
    return {dev: replace(s, writebacks=0, bytes_writeback=0) for dev, s in per_device.items()}


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


def ranked_directory(hops):
    n = len(hops)
    return CacheDirectory(Machine([DeviceSpec(i) for i in range(n)],
                                  ProximityMatrix(np.array(hops), np.full((n, n), 10.0))))


def test_lookup_l2_picks_closest_owner():
    d = ranked_directory([[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    k = key("a")
    touch(d, 1, k)
    touch(d, 2, k)
    assert touch(d, 0, k).source == 2  # 1 hop beats 2, though 1 has the lower id


def test_l2_source_prefers_fewer_hops():
    d = ranked_directory([[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    k = key("a")
    for owner in (1, 3):
        touch(d, owner, k)
    assert touch(d, 0, k).source == 3  # 1 hop beats 2, though 1 has the lower id


def test_l2_source_tie_goes_to_the_lowest_id():
    d = ranked_directory([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    k = key("a")
    for owner in (3, 2):
        touch(d, owner, k)
    assert touch(d, 0, k).source == 2
    assert touch(d, 1, k).source == 0  # 0, 2 and 3 are one hop away


def test_l2_source_is_a_singleton_owner():
    d = ranked_directory([[0, 1, 3, 2], [1, 0, 1, 1], [3, 1, 0, 1], [2, 1, 1, 0]])
    k = key("a")
    touch(d, 2, k)  # the farthest peer of device 0 is the only owner
    assert touch(d, 0, k) == (2, 8)


def test_l2_source_without_an_owner_is_host():
    d = ranked_directory([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    touch(d, 1, key("b"))
    assert touch(d, 0, key("a")) == (HOST, 8)  # peers hold other tiles only
    assert d.stats_per_device()[0].host_fetches == 1


def test_admit_within_capacity_no_eviction():
    # capacity 3 leaves room for two inputs: the third slot is the output's
    d = CacheDirectory(cap_machine(1, capacity=3))
    for n in "ab":
        touch(d, 0, key(n))
    assert d.used_tiles(0) == 2
    assert d.stats().evictions == 0


def test_admit_evicts_lru_first():
    d = CacheDirectory(cap_machine(1, capacity=4))
    ka, kb, kc, kd = (key(n) for n in "abcd")
    for k in (ka, kb, kc):
        touch(d, 0, k)
    assert touch(d, 0, ka).source == 0  # L1 refresh of a: now b is least recent
    touch(d, 0, kd)
    assert d.residents(0) == [kc, ka, kd]
    assert d.stats().evictions == 1


@pytest.mark.usefixtures("directory_invariants")
def test_output_key_never_enters_the_set():
    # a task's writeback is bytes only: the set gains its inputs alone
    d = CacheDirectory(cap_machine(2, capacity=3))
    ka, kb = key("a"), key("b")
    touch(d, 0, ka, writeback=64)
    assert d.residents(0) == [ka] and d.residents(1) == []
    assert touch(d, 1, kb, writeback=64).source == HOST
    assert touch(d, 0, ka, writeback=64).source == 0
    assert d.residents(0) == [ka] and d.residents(1) == [kb]
    s = d.stats()
    assert (s.evictions, s.writebacks, s.bytes_writeback) == (0, 3, 192)


@pytest.mark.usefixtures("directory_invariants")
def test_output_slot_is_reserved_and_inputs_evict_lru():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kx, ky = (key(n) for n in "abxy")
    touch(d, 0, kx)
    touch(d, 0, ky)
    # two inputs fill the room the output slot leaves: a goes for x, b
    # for y, then x, which this call resolved, goes for a
    got = d.acquire_input(0, [(ka, 8), (kb, 8), (kx, 8)], 64)
    assert got == [(HOST, 8)] * 3
    assert d.residents(0) == [kb, kx]
    assert d.stats().evictions == 3


@pytest.mark.usefixtures("directory_invariants")
def test_task_call_leaves_what_stepwise_calls_leave():
    ka, kb, kc, kd, ke = (key(n) for n in "abcde")
    task, stepwise = (CacheDirectory(cap_machine(2, capacity=3)) for _ in range(2))
    for d in (task, stepwise):
        touch(d, 1, kc)  # a peer copy for device 0 to find
    # seven requests through the two slots the output leaves
    requests = [(k, 8) for k in (ka, kb, kc, kd, kd, ka, ke)]
    got = task.acquire_input(0, requests, 64)
    assert [r.source for r in got] == [HOST, HOST, 1, HOST, 0, HOST, HOST]
    assert got == [touch(stepwise, 0, k, n) for k, n in requests]
    assert task.residents(0) == stepwise.residents(0) == [ka, ke]
    assert task.residents(1) == stepwise.residents(1) == [kc]
    # every call writes back once: the task once, the stepwise replay per request
    assert input_counts(task.stats_per_device()) == input_counts(stepwise.stats_per_device())
    assert task.stats().evictions == 4
    assert (task.stats_per_device()[0].writebacks, task.stats().bytes_writeback) == (1, 64)
    assert stepwise.stats_per_device()[0].writebacks == len(requests)


@pytest.mark.usefixtures("directory_invariants")
def test_inputs_are_evictable_once_the_call_returns():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc = (key(n) for n in "abc")
    d.acquire_input(0, [(ka, 8), (kb, 8)], 64)
    d.release_input(0, (ka, kb))  # a no-op: the call held nothing
    touch(d, 0, kc)  # a, the call's first tile, is the least recent: it goes
    assert d.residents(0) == [kb, kc]


# -- retiring dead matrices ------------------------------------------------


def retire_fixture():
    """Two cached devices holding tiles of uids a, b and c, in a known
    LRU order, with some of them on both."""
    d = CacheDirectory(cap_machine(2))
    a0, a1, b0, b1, c0 = (TileKey("a", 0, 0), TileKey("a", 1, 0), TileKey("b", 0, 0),
                          TileKey("b", 0, 1), TileKey("c", 0, 0))
    d.acquire_input(0, [(a0, 8), (b0, 8), (a1, 8), (c0, 8), (b1, 8)], 64)
    d.acquire_input(1, [(b1, 8), (c0, 8), (a0, 8)], 64)
    return d, (a0, a1, b0, b1, c0)


@pytest.mark.usefixtures("directory_invariants")
def test_retire_drops_only_the_named_uids_and_keeps_lru_order():
    d, (a0, a1, b0, b1, c0) = retire_fixture()
    d.retire(["b"])
    assert d.residents(0) == [a0, a1, c0]
    assert d.residents(1) == [c0, a0]
    d.retire(("a", "c"))
    assert d.residents(0) == [] and d.residents(1) == []


@pytest.mark.usefixtures("directory_invariants")
def test_retire_moves_no_counter():
    d, _ = retire_fixture()
    before = d.stats_per_device()
    d.retire(["a", "b", "c"])
    assert d.stats_per_device() == before
    assert d.stats().evictions == 0


@pytest.mark.usefixtures("directory_invariants")
def test_retire_ignores_unknown_uids_and_none():
    d, _ = retire_fixture()
    residents = [d.residents(o) for o in (0, 1)]
    for uids in ([], ["z"], [None], ["z", None, "a#1"]):
        d.retire(uids)
        assert [d.residents(o) for o in (0, 1)] == residents


@pytest.mark.usefixtures("directory_invariants")
def test_retire_leaves_the_output_slot():
    # an input may have any uid, "C" included; retiring it drops the
    # input, and the writeback its task counted stays counted
    d = CacheDirectory(cap_machine(1, capacity=3))
    touch(d, 0, TileKey("C", 0, 0), writeback=8)
    d.retire(["C"])
    assert d.residents(0) == []
    touch(d, 0, TileKey("C", 0, 1), writeback=8)  # the device's next task runs
    assert (d.stats().writebacks, d.stats().bytes_writeback) == (2, 16)


@pytest.mark.usefixtures("directory_invariants")
def test_a_retired_tile_is_a_host_fetch_on_every_device():
    d, (a0, *_) = retire_fixture()
    for dev in (0, 1):
        d.retire(["a"])
        assert touch(d, dev, a0).source == HOST


@pytest.mark.usefixtures("directory_invariants")
def test_retire_frees_room():
    # room 2: a third tile would evict, unless a retired one made room
    d = CacheDirectory(cap_machine(1, capacity=3))
    touch(d, 0, key("a"))
    touch(d, 0, key("b"))
    d.retire(["a"])
    touch(d, 0, key("c"))
    assert d.residents(0) == [key("b"), key("c")]
    assert d.stats().evictions == 0


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


def test_bypass_mode_always_host():
    d = CacheDirectory(cap_machine(2), enabled=False)
    k = key("a")
    for _ in range(5):
        (r,) = d.acquire_input(0, [(k, 10)], 64)  # written back, though never cached
        assert r.source == HOST and r.nbytes_moved == 10
    s = d.stats()
    assert s.host_fetches == 5 and s.bytes_host == 50
    assert s.l1_hits == 0 and s.l2_hits == 0
    assert (s.writebacks, s.bytes_writeback) == (5, 320)
    assert d.residents(0) == [] and d.used_tiles(0) == 0


def test_host_worker_requests_are_free_host_fetches():
    devs = [DeviceSpec(0), DeviceSpec(1, kind="host-worker")]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=10.0))
    for enabled in (True, False):
        d = CacheDirectory(m, enabled=enabled)
        touch(d, 0, key("a"))  # resident on the accelerator when enabled
        # its output is already in host memory: no writeback
        (r,) = d.acquire_input(1, [(key("a"), 999)], 64)
        assert r.source == HOST and r.nbytes_moved == 0
        s = d.stats_per_device()[1]
        assert s.host_fetches == 1 and s.bytes_host == 0
        assert (s.writebacks, s.bytes_writeback) == (0, 0)
        # host workers have no residency set
        assert d.residents(1) == [] and d.used_tiles(1) == 0


@pytest.mark.usefixtures("directory_invariants")
def test_output_tiles_pinned_then_released():
    # the output tile has the reserved slot: four inputs share the other two
    d = CacheDirectory(cap_machine(1, capacity=3))
    d.acquire_input(0, [(key(n), 8) for n in "abde"], 64)
    assert d.residents(0) == [key("d"), key("e")]
    s = d.stats()
    assert s.writebacks == 1 and s.bytes_writeback == 64
    assert s.evictions == 2  # inputs only: completion is not an eviction


def test_invariants_fixture_checks_after_a_test_undo(directory_invariants, monkeypatch):
    d = CacheDirectory(cap_machine(1, capacity=3))
    monkeypatch.setattr(d, "residents", lambda device: [])
    monkeypatch.undo()  # the test's own undo keeps the checks in place
    d._caches[0].order.update(dict.fromkeys(key(n) for n in "xyz"))  # three inputs in room for two
    with pytest.raises(AssertionError, match="over capacity"):
        touch(d, 0, key("a"))  # one victim: three tiles remain
    with pytest.raises(AssertionError, match="over capacity"):
        d.acquire_input(0, [], 8)  # a call that admits no input is checked too


class ModelDirectory:
    """Dead-simple multi-device reference: one list of input keys per
    cached device in insertion order, recency refreshed by moving to the
    back.  A local miss copies from the closest device whose list holds
    the key (ties to the lowest id), or from host when none does.  A list
    holds at most ``capacity - 1`` keys, the last slot being the output
    tile's, and a full list gives up its first key.  An uncached device
    fetches every tile from host, for free if it is a host worker, whose
    output needs no writeback.  It resolves one tile at a time."""

    def __init__(self, hops, capacity, cached, host_workers):
        self.hops = hops
        self.room = capacity - 1
        self.cached = cached
        self.host_workers = host_workers
        self.keys = [[] for _ in hops]
        self.stats = [CacheStats() for _ in hops]

    def source(self, dev, k):
        owners = [o for o in range(len(self.keys)) if k in self.keys[o]]
        if not owners:
            return HOST
        return min(owners, key=lambda o: (self.hops[dev][o], o))

    def admit(self, dev, k):
        keys = self.keys[dev]
        assert k not in keys
        if len(keys) >= self.room:
            keys.pop(0)
            self.stats[dev].evictions += 1
        keys.append(k)

    def acquire(self, dev, k, nbytes):
        """Resolve one tile; returns its (source, bytes moved)."""
        st, keys = self.stats[dev], self.keys[dev]
        if dev not in self.cached:
            moved = 0 if dev in self.host_workers else nbytes
            st.host_fetches += 1
            st.bytes_host += moved
            return HOST, moved
        if k in keys:
            keys.remove(k)
            keys.append(k)
            st.l1_hits += 1
            return dev, 0
        src = self.source(dev, k)
        self.admit(dev, k)
        if src == HOST:
            st.host_fetches += 1
            st.bytes_host += nbytes
        else:
            st.l2_hits += 1
            st.bytes_peer += nbytes
        return src, nbytes

    def write_back(self, dev, nbytes):
        """Count ``nbytes`` written back."""
        if dev not in self.host_workers:
            self.stats[dev].writebacks += 1
            self.stats[dev].bytes_writeback += nbytes


@pytest.mark.usefixtures("directory_invariants")
def test_model_based_directory_agreement():
    # Each call is a task: one call of 1-8 tiles and a writeback of 0-2
    # tiles' bytes, which the model resolves one tile at a time and then
    # writes back.
    # Each trial draws its own symmetric hop matrix of 1s and 2s, so hop
    # ties are common and the model's min over (hops, id) checks the
    # directory's peer ranking.  Some trials add a host worker, and some
    # turn the cache off, so every kind of requester is walked: cached,
    # uncached and host worker.  Tiles come in three sizes.
    rng = np.random.default_rng(99)
    peer_hits = refetched = evicted_mid_task = 0
    tied_sources = 0  # L2 sources chosen among owners at equal hops
    requesters = set()  # the kinds of requester walked
    for trial in range(30):
        n = 2 + trial % 3
        cap = 3 if trial % 3 == 0 else int(rng.integers(4, 7))
        enabled = trial % 5 != 4
        devs = [DeviceSpec(i, capacity_tiles=cap) for i in range(n)]
        if trial % 4 == 1:
            devs.append(DeviceSpec(n, kind="host-worker"))
        size = len(devs)
        hops = np.triu(rng.integers(1, 3, (size, size)), 1)
        hops += hops.T
        m = Machine(devs, ProximityMatrix(hops, np.full((size, size), 10.0)))
        d = CacheDirectory(m, enabled=enabled)
        cached = set(range(n)) if enabled else set()
        host_workers = set(range(n, size))
        model = ModelDirectory(hops.tolist(), cap, cached, host_workers)
        universe = [key(f"t{i}") for i in range(12)]
        nbytes = {k: 8 * (1 + i % 3) for i, k in enumerate(universe)}
        shared = {}  # (source, bytes moved) -> the directory's one result for it
        seen = set()  # keys that were resident somewhere before
        for _ in range(200):
            dev = int(rng.integers(0, size))
            tiles = [universe[int(i)]
                     for i in rng.integers(0, len(universe), int(rng.integers(1, 9)))]
            writeback = 8 * int(rng.integers(0, 3))
            evictions, want = model.stats[dev].evictions, []
            for k in tiles:
                owners = [o for o in range(size) if o != dev and k in model.keys[o]]
                want.append(model.acquire(dev, k, nbytes[k]))
                src = want[-1][0]
                if dev in cached and src != dev:  # not an L1 hit
                    peer_hits += src != HOST
                    tied_sources += (src != HOST and
                                     sum(hops[dev, o] == hops[dev, src] for o in owners) > 1)
                    refetched += src == HOST and k in seen
                    seen.add(k)
            model.write_back(dev, writeback)
            got = d.acquire_input(dev, [(k, nbytes[k]) for k in tiles], writeback)
            # each result equals one built afresh, and is the directory's
            # one shared object for its (source, bytes moved)
            assert got == [AcquireResult(*w) for w in want]
            assert all(type(res) is AcquireResult for res in got)
            assert all(shared.setdefault(tuple(res), res) is res for res in got)
            requesters.add("host worker" if dev in host_workers
                           else "cached" if dev in cached else "uncached")
            evicted_mid_task += model.stats[dev].evictions > evictions
            for o in range(size):
                assert d.residents(o) == model.keys[o]
            assert d.stats_per_device() == dict(enumerate(model.stats))
    # the walk reached peer copies, tiles evicted from every owner came back
    # as host misses, hop ties were broken, and tasks evicted inputs
    assert peer_hits > 0 and refetched > 0 and tied_sources > 0 and evicted_mid_task > 0
    assert requesters == {"cached", "uncached", "host worker"}


@st.composite
def machines(draw):
    """1-3 accelerators of capacity 3-6 on a random hop matrix, and
    perhaps a host worker."""
    n = draw(st.integers(1, 3))
    host_worker = draw(st.booleans())
    devs = [DeviceSpec(i, capacity_tiles=draw(st.integers(3, 6))) for i in range(n)]
    if host_worker:
        devs.append(DeviceSpec(n, kind="host-worker"))
    size = len(devs)
    hops = np.zeros((size, size), dtype=int)
    for i, j in itertools.combinations(range(size), 2):
        hops[i, j] = hops[j, i] = draw(st.integers(1, 3))
    return Machine(devs, ProximityMatrix(hops, np.full((size, size), 10.0)))


def _raised(call, *args):
    """``call(*args)``'s result, or ``TypeError`` if it raised one."""
    try:
        return call(*args)
    except TypeError:
        return TypeError


@settings(max_examples=60, deadline=None)
@given(machine=machines(), data=st.data())
def test_every_admission_finds_a_victim(machine, data):
    # Each task is one acquire_input of its steps' A and B tiles in turn
    # and its writeback bytes, the engines' whole task, on a drawn device.
    # Some tasks carry an unhashable key, which raises mid-resolution,
    # after the requests before it: a task that raises writes nothing
    # back.  A twin directory replays every task with its steps as one
    # call per step, which resolves exactly as the task's one call does,
    # and is looked at after each step's B is admitted.  After every task
    # the two agree on results, residents and per-device input counters,
    # and the task's directory has counted one writeback per task that
    # returned on an accelerator.
    d, twin = CacheDirectory(machine), CacheDirectory(machine)
    n_devices = len(machine.devices)
    room = {dev.device_id: dev.capacity_tiles and dev.capacity_tiles - 1
            for dev in machine.devices}
    written = {dev.device_id: 0 for dev in machine.devices}  # writebacks counted
    for dev in data.draw(st.lists(st.integers(0, n_devices - 1), min_size=1, max_size=40)):
        i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        ks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        steps = [[(TileKey("A", i, k), 8), (TileKey("B", k, j), 8)] for k in ks]
        if data.draw(st.booleans()):  # a fault mid-resolution
            step = steps[data.draw(st.integers(0, len(steps) - 1))]
            step.insert(data.draw(st.integers(0, 2)), ([], 8))
        requests = [r for step in steps for r in step]
        got = _raised(d.acquire_input, dev, requests, 8)
        stepwise = []
        for step in steps:
            result = _raised(twin.acquire_input, dev, step, 8)
            if result is TypeError:
                stepwise = result
                break
            stepwise += result
            if room[dev] is not None:  # LRU keeps the step's A beside its B
                assert twin.residents(dev)[-2:] == [k for k, _ in step]
        assert got == stepwise
        written[dev] += got is not TypeError and not machine.device(dev).is_host_worker
        for x in (d, twin):
            x.check_invariants()
        assert [d.residents(o) for o in range(n_devices)] == \
            [twin.residents(o) for o in range(n_devices)]
        assert input_counts(d.stats_per_device()) == input_counts(twin.stats_per_device())
        assert {o: (s.writebacks, s.bytes_writeback) for o, s in d.stats_per_device().items()} \
            == {o: (n, 8 * n) for o, n in written.items()}
        assert all(room[o] is None or d.used_tiles(o) <= room[o] for o in range(n_devices))


def test_a_request_that_raises_keeps_the_counters_of_those_before_it():
    # A transaction counts in locals and adds them to the device's counters
    # once; a request that raises must not lose the counts of the requests
    # already admitted.
    d = CacheDirectory(cap_machine(2))
    touch(d, 1, key("p"))
    with pytest.raises(TypeError):  # and counts no writeback
        d.acquire_input(0, [(key("a"), 8), (key("p"), 8), (key("a"), 8), ([], 8)], 64)
    assert d.residents(0) == [key("p"), key("a")]  # the L1 hit refreshed a
    assert d.stats_per_device()[0] == CacheStats(l1_hits=1, l2_hits=1, host_fetches=1,
                                                 bytes_host=8, bytes_peer=8)


def test_fill_count_matches_the_set():
    # A transaction counts its set's fill once and keeps it as misses
    # admit tiles.  Against a plain list LRU that evicts whenever
    # len(keys) reaches the room, over transactions that mix L1 hits, peer
    # copies, host misses and evictions, some raising part way through:
    # after each, the set's size is its residents' count, within room,
    # and the evictions are the list's.  Only retire shrinks a set, and
    # this test does not call it, so each round starts from empty sets,
    # which a long transaction overfills.
    capacity = 4
    rng = np.random.default_rng(7)
    universe = [key(f"t{i}") for i in range(8)]
    raised = kinds = overfilled = 0
    for _ in range(30):
        d = CacheDirectory(cap_machine(2, capacity))
        model = {0: [], 1: []}
        evicted = {0: 0, 1: 0}
        for _ in range(10):
            dev = int(rng.integers(0, 2))
            requests = [(universe[int(i)], 8)
                        for i in rng.integers(0, len(universe), int(rng.integers(1, 9)))]
            if rng.random() < 0.2:  # an unhashable key raises part way through
                requests.insert(int(rng.integers(0, len(requests) + 1)), ([], 8))
            keys, misses = model[dev], 0
            for k, _ in requests:
                if not isinstance(k, TileKey):
                    break
                if k in keys:
                    keys.remove(k)
                else:
                    misses += 1
                    if len(keys) >= capacity - 1:
                        keys.pop(0)
                        evicted[dev] += 1
                keys.append(k)
            overfilled += misses > capacity - 1 - d.used_tiles(dev)
            try:
                got = d.acquire_input(dev, requests, 8)
            except TypeError:
                raised += 1
            else:
                for r in got:  # bit 0 an L1 hit, 1 a peer copy, 2 a host miss
                    kinds |= 1 << (0 if r.source == dev else 2 if r.source == HOST else 1)
            for o in (0, 1):
                assert d.residents(o) == model[o]
                assert d.used_tiles(o) == len(d.residents(o)) <= capacity - 1
                assert d.stats_per_device()[o].evictions == evicted[o]
    assert raised > 0 and kinds == 0b111 and overfilled > 0


def test_an_open_product_counts_its_own_traffic():
    # While a product is open, each transaction counts into the product's
    # per-device counters as well as the session's, host workers and
    # raising transactions included; once the product is closed, or the
    # next one opened, later transactions leave its counters alone.
    machine = Machine([DeviceSpec(0), DeviceSpec(1), DeviceSpec(2, kind="host-worker")],
                      ProximityMatrix.uniform(3))
    d = CacheDirectory(machine)
    touch(d, 0, key("a"))  # before any product: the session's alone
    first = d.open_product()
    assert first == {0: CacheStats(), 1: CacheStats(), 2: CacheStats()}
    d.acquire_input(0, [(key("a"), 8), (key("b"), 8)], 16)
    touch(d, 1, key("b"))
    touch(d, 2, key("c"))
    with pytest.raises(TypeError):
        d.acquire_input(1, [(key("d"), 8), ([], 8)], 16)
    for device in (1, 2):
        d.acquire_input(device, [], 16)
    want = {0: CacheStats(l1_hits=1, host_fetches=1, bytes_host=8,
                          writebacks=1, bytes_writeback=16),
            1: CacheStats(l2_hits=1, host_fetches=1, bytes_peer=8, bytes_host=8,
                          writebacks=2, bytes_writeback=16),
            2: CacheStats(host_fetches=1)}
    assert first == want
    session = {0: CacheStats(host_fetches=2, bytes_host=16, l1_hits=1,
                             writebacks=2, bytes_writeback=16), 1: want[1], 2: want[2]}
    assert d.stats_per_device() == session  # an open product's counts included
    assert d.stats() == sum(session.values(), CacheStats())
    second = d.open_product()
    touch(d, 0, key("e"))
    d.close_product()
    touch(d, 0, key("f"))
    d.acquire_input(0, [], 16)
    assert first == want
    assert second == {0: CacheStats(host_fetches=1, bytes_host=8, writebacks=1), 1: CacheStats(),
                      2: CacheStats()}
    assert d.stats_per_device()[0] == CacheStats(l1_hits=1, host_fetches=4, bytes_host=32,
                                                 writebacks=5, bytes_writeback=32)
    d.close_product()  # closing with no product open changes nothing
    assert d.stats() == sum(d.stats_per_device().values(), CacheStats())


def test_in_place_add_covers_exactly_the_counter_fields():
    # Closing a product folds its counts into the session's with +=, which
    # names each counter: it must add every field of CacheStats once, into
    # the session's own object, and leave the product's counts alone.
    names = [f.name for f in fields(CacheStats)]
    assert CacheStats.__slots__ == tuple(names)
    session = CacheStats(*(3 ** i for i in range(len(names))))
    product = CacheStats(*(5 * 7 ** i for i in range(len(names))))
    kept = session
    session += product
    assert session is kept
    assert {n: getattr(session, n) for n in names} == {
        n: 3 ** i + 5 * 7 ** i for i, n in enumerate(names)}
    assert product == CacheStats(*(5 * 7 ** i for i in range(len(names))))
