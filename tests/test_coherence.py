import itertools
from dataclasses import fields

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


def touch(d, device, k, nbytes=8):
    """Acquire one tile as a one-request call."""
    (res,) = d.acquire_input(device, [(k, nbytes)])
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
    d = CacheDirectory(cap_machine(2, capacity=3))
    ka, kb = key("a"), key("b")
    touch(d, 0, ka)
    d.admit_output(0, ka)  # the key of a resident input: no collision
    d.admit_output(1, kb)  # the key of no tile anywhere
    assert d.residents(0) == [ka] and d.residents(1) == []
    # the output is not an owner: its key is still a miss, and an L1 hit
    # refreshes the input
    assert touch(d, 1, kb).source == HOST and touch(d, 0, ka).source == 0
    d.release_output(0, ka, 64)
    d.abort_output(1, kb)
    assert d.residents(0) == [ka] and d.residents(1) == [kb]
    assert d.stats().evictions == 0


@pytest.mark.usefixtures("directory_invariants")
def test_output_slot_is_reserved_and_inputs_evict_lru():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc, kx, ky = (key(n) for n in "abcxy")
    d.admit_output(0, kc)
    touch(d, 0, kx)
    touch(d, 0, ky)
    # two inputs fill the room the output slot leaves: a goes for x, b
    # for y, then x, which this call resolved, goes for a
    got = d.acquire_input(0, [(ka, 8), (kb, 8), (kx, 8)])
    assert got == [(HOST, 8)] * 3
    assert d.residents(0) == [kb, kx]
    assert d.stats().evictions == 3


@pytest.mark.usefixtures("directory_invariants")
def test_admit_output_rejected_while_an_output_is_unfinished():
    d = CacheDirectory(cap_machine(2, capacity=3))
    c1, c2 = key("c1"), key("c2")
    d.admit_output(0, c1)
    with pytest.raises(ValueError, match="unfinished output tile"):
        d.admit_output(0, c2)
    d.admit_output(1, c2)  # another device builds its own
    d.release_output(0, c1, 64)
    d.admit_output(0, c2)  # once finished, the device takes the next
    with pytest.raises(ValueError, match="unfinished output tile"):
        d.admit_output(1, c1)
    assert d.residents(0) == d.residents(1) == []
    assert d.stats().writebacks == 1


@pytest.mark.usefixtures("directory_invariants")
def test_release_and_abort_reject_a_key_that_is_not_the_output():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kc = key("a"), key("c")
    touch(d, 0, ka)
    for finish in (lambda k: d.release_output(0, k, 64), lambda k: d.abort_output(0, k)):
        with pytest.raises(ValueError, match="not the output tile"):
            finish(kc)  # no output tile at all
        d.admit_output(0, kc)
        with pytest.raises(ValueError, match="not the output tile"):
            finish(ka)  # resident, but as an input
        finish(kc)
        with pytest.raises(ValueError, match="not the output tile"):
            finish(kc)  # finished already
        assert d.residents(0) == [ka]
    # only the successful release counted a writeback
    assert (d.stats().writebacks, d.stats().bytes_writeback) == (1, 64)


@pytest.mark.usefixtures("directory_invariants")
def test_task_call_leaves_what_stepwise_calls_leave():
    ka, kb, kc, kd, ke, kout = (key(n) for n in ("a", "b", "c", "d", "e", "out"))
    task, stepwise = (CacheDirectory(cap_machine(2, capacity=3)) for _ in range(2))
    for d in (task, stepwise):
        touch(d, 1, kc)  # a peer copy for device 0 to find
        d.admit_output(0, kout)
    # seven requests through the two slots the output leaves
    requests = [(k, 8) for k in (ka, kb, kc, kd, kd, ka, ke)]
    got = task.acquire_input(0, requests)
    assert [r.source for r in got] == [HOST, HOST, 1, HOST, 0, HOST, HOST]
    assert got == [touch(stepwise, 0, k, n) for k, n in requests]
    assert task.residents(0) == stepwise.residents(0) == [ka, ke]
    assert task.residents(1) == stepwise.residents(1) == [kc]
    assert task.stats_per_device() == stepwise.stats_per_device()
    assert task.stats().evictions == 4


@pytest.mark.usefixtures("directory_invariants")
def test_inputs_are_evictable_once_the_call_returns():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc = (key(n) for n in "abc")
    d.acquire_input(0, [(ka, 8), (kb, 8)])
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
    d.acquire_input(0, [(a0, 8), (b0, 8), (a1, 8), (c0, 8), (b1, 8)])
    d.acquire_input(1, [(b1, 8), (c0, 8), (a0, 8)])
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
    # inputs may share the output's uid; retiring it drops those inputs,
    # and the output tile is still the device's to write back
    d = CacheDirectory(cap_machine(1, capacity=3))
    c_key = TileKey("C", 0, 0)
    touch(d, 0, c_key)
    d.admit_output(0, c_key)
    d.retire(["C"])
    assert d.residents(0) == []
    with pytest.raises(ValueError, match="still holds"):
        d.admit_output(0, TileKey("C", 0, 1))
    d.release_output(0, c_key, 8)
    assert d.stats().writebacks == 1


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
        (r,) = d.acquire_input(0, [(k, 10)])
        assert r.source == HOST and r.nbytes_moved == 10
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
        (r,) = d.acquire_input(1, [(key("a"), 999)])
        assert r.source == HOST and r.nbytes_moved == 0
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
        # held in the reserved slot, never in the set of inputs
        assert ck not in d.residents(0) and d.used_tiles(0) <= 2
    d.release_output(0, ck, 64)
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
        d.admit_output(0, key("c"))  # a call that admits no input is checked too


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
        self.output = [None for _ in hops]
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

    def admit_output(self, dev, k):
        self.output[dev] = k

    def drop_output(self, dev, nbytes=None):
        """Release (``nbytes`` written back) or abort the output tile."""
        self.output[dev] = None
        if nbytes is not None and dev not in self.host_workers:
            self.stats[dev].writebacks += 1
            self.stats[dev].bytes_writeback += nbytes


@pytest.mark.usefixtures("directory_invariants")
def test_model_based_directory_agreement():
    # Each call is one of: admit an output tile, on a device without one
    # (its key sometimes that of an input tile);
    # release or abort the device's output tile; or a task's acquire, one
    # call of 1-8 tiles, which the model resolves one tile at a time.
    # Each trial draws its own symmetric hop matrix of 1s and 2s, so hop
    # ties are common and the model's min over (hops, id) checks the
    # directory's peer ranking.  Some trials add a host worker, and some
    # turn the cache off, so every kind of requester is walked: cached,
    # uncached and host worker.  Tiles come in three sizes.
    rng = np.random.default_rng(99)
    serial = itertools.count()
    peer_hits = refetched = released = aborted = evicted_mid_task = 0
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
            c_key = model.output[dev]
            r = rng.random()
            if r < 0.2 and c_key is None:
                # some output keys name input tiles: they must not collide
                c_key = (universe[int(rng.integers(0, len(universe)))] if r < 0.05
                         else TileKey("C", next(serial), 0))
                model.admit_output(dev, c_key)
                d.admit_output(dev, c_key)
            elif r < 0.2:
                if rng.integers(0, 2):
                    model.drop_output(dev, 64)
                    d.release_output(dev, c_key, 64)
                    released += 1
                else:
                    model.drop_output(dev)
                    d.abort_output(dev, c_key)
                    aborted += 1
            else:
                tiles = [universe[int(i)]
                         for i in rng.integers(0, len(universe), int(rng.integers(1, 9)))]
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
                got = d.acquire_input(dev, [(k, nbytes[k]) for k in tiles])
                # each result equals one built afresh, and is the directory's
                # one shared object for its (source, bytes moved)
                assert got == [AcquireResult(*w) for w in want]
                assert all(type(res) is AcquireResult for res in got)
                assert all(shared.setdefault(tuple(res), res) is res for res in got)
                requesters.add("host worker" if dev in host_workers
                               else "cached" if dev in cached else "uncached")
                evicted_mid_task += c_key is not None and model.stats[dev].evictions > evictions
            for o in range(size):
                assert d.residents(o) == model.keys[o]
            assert d.stats_per_device() == dict(enumerate(model.stats))
    # the walk reached peer copies, tiles evicted from every owner came back
    # as host misses, hop ties were broken, inputs were evicted while an
    # output tile was held, and outputs were both released and aborted
    assert peer_hits > 0 and refetched > 0 and tied_sources > 0 and evicted_mid_task > 0
    assert released > 0 and aborted > 0
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


@settings(max_examples=60, deadline=None)
@given(machine=machines(), data=st.data())
def test_every_admission_finds_a_victim(machine, data):
    # A task is admit_output, one acquire_input of its steps' A and B
    # tiles in turn, then release_output or abort_output; the tasks of
    # different devices interleave, one open task per device.  A twin
    # directory runs each task's steps as one call per step, which
    # resolves exactly as the task's one call does, and is looked at
    # after each step's B is admitted.
    d, twin = CacheDirectory(machine), CacheDirectory(machine)
    open_tasks = {}  # device -> output key of its unfinished task
    serial = itertools.count()
    n_devices = len(machine.devices)
    room = {dev.device_id: dev.capacity_tiles and dev.capacity_tiles - 1
            for dev in machine.devices}
    for dev in data.draw(st.lists(st.integers(0, n_devices - 1), min_size=1, max_size=40)):
        if dev in open_tasks:
            c_key, release = open_tasks.pop(dev), data.draw(st.booleans())
            for x in (d, twin):
                if release:
                    x.release_output(dev, c_key, 8)
                else:
                    x.abort_output(dev, c_key)
        else:
            i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            ks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
            c_key = TileKey("C", next(serial), 0)
            open_tasks[dev] = c_key
            steps = [[(TileKey("A", i, k), 8), (TileKey("B", k, j), 8)] for k in ks]
            d.admit_output(dev, c_key)
            got = d.acquire_input(dev, [r for step in steps for r in step])
            twin.admit_output(dev, c_key)
            stepwise = []
            for step in steps:
                stepwise += twin.acquire_input(dev, step)
                if room[dev] is not None:  # LRU keeps the step's A beside its B
                    assert twin.residents(dev)[-2:] == [k for k, _ in step]
            assert got == stepwise
            # the output sits in its reserved slot, never among the inputs
            assert c_key not in d.residents(dev)
        for x in (d, twin):
            x.check_invariants()
        assert [d.residents(o) for o in range(n_devices)] == \
            [twin.residents(o) for o in range(n_devices)]
        assert d.stats_per_device() == twin.stats_per_device()
        assert all(room[o] is None or d.used_tiles(o) <= room[o] for o in range(n_devices))


def test_a_request_that_raises_keeps_the_counters_of_those_before_it():
    # A transaction counts in locals and adds them to the device's counters
    # once; a request that raises must not lose the counts of the requests
    # already admitted.
    d = CacheDirectory(cap_machine(2))
    touch(d, 1, key("p"))
    with pytest.raises(TypeError):
        d.acquire_input(0, [(key("a"), 8), (key("p"), 8), (key("a"), 8), ([], 8)])
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
                got = d.acquire_input(dev, requests)
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
    d.acquire_input(0, [(key("a"), 8), (key("b"), 8)])
    touch(d, 1, key("b"))
    touch(d, 2, key("c"))
    with pytest.raises(TypeError):
        d.acquire_input(1, [(key("d"), 8), ([], 8)])
    c = TileKey("C", 0, 0)
    for device in (1, 2):
        d.admit_output(device, c)
        d.release_output(device, c, 16)
    want = {0: CacheStats(l1_hits=1, host_fetches=1, bytes_host=8),
            1: CacheStats(l2_hits=1, host_fetches=1, bytes_peer=8, bytes_host=8,
                          writebacks=1, bytes_writeback=16),
            2: CacheStats(host_fetches=1)}
    assert first == want
    session = {0: CacheStats(host_fetches=2, bytes_host=16, l1_hits=1), 1: want[1], 2: want[2]}
    assert d.stats_per_device() == session  # an open product's counts included
    assert d.stats() == sum(session.values(), CacheStats())
    second = d.open_product()
    touch(d, 0, key("e"))
    d.close_product()
    touch(d, 0, key("f"))
    d.admit_output(0, c)
    d.release_output(0, c, 16)
    assert first == want
    assert second == {0: CacheStats(host_fetches=1, bytes_host=8), 1: CacheStats(),
                      2: CacheStats()}
    assert d.stats_per_device()[0] == CacheStats(l1_hits=1, host_fetches=4, bytes_host=32,
                                                 writebacks=1, bytes_writeback=16)
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
