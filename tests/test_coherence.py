import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilerun.coherence import CacheDirectory, CacheStats
from tilerun.devices import HOST, DeviceSpec, Machine, ProximityMatrix, homogeneous_machine
from tilerun.tiles import TileKey


def key(name):
    return TileKey(name, 0, 0)


def cap_machine(n=1, capacity=None, **kw):
    return homogeneous_machine(n, capacity_tiles=capacity, **kw)


def touch(d, device, k, nbytes=8):
    """Acquire one tile as a one-step task."""
    (res,), = d.acquire_input(device, [((k, nbytes),)])
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


@pytest.mark.usefixtures("directory_invariants")
def test_admit_rejects_duplicate():
    d = CacheDirectory(cap_machine(1))
    touch(d, 0, key("a"))
    with pytest.raises(ValueError, match="already resident"):
        d.admit_output(0, key("a"))
    # the failed admission set no output tile: another can be admitted
    d.admit_output(0, key("c"))
    assert d.residents(0) == [key("a"), key("c")]


@pytest.mark.usefixtures("directory_invariants")
def test_admission_skips_the_output_tile_and_the_step_a():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc, kx, ky = (key(n) for n in "abcxy")
    d.admit_output(0, kc)
    touch(d, 0, kx)
    touch(d, 0, ky)
    # c is the least recent tile at both admissions and is passed over: x
    # goes for a, then y for b, which keeps a, the step's A
    d.acquire_input(0, [((ka, 8), (kb, 8))])
    assert d.residents(0) == [kc, ka, kb]
    assert d.stats().evictions == 2


@pytest.mark.usefixtures("directory_invariants")
def test_step_of_three_tiles_rejected_before_anything_moves():
    ka, kb, kc, kx = (key(n) for n in "abcx")
    for cap in (3, None):
        d = CacheDirectory(cap_machine(2, capacity=cap))
        touch(d, 0, kx)
        residents, stats = d.residents(0), d.stats()
        # a good step before the bad one does not resolve either
        for steps in ([[(ka, 8), (kb, 8)], [(ka, 8), (kb, 8), (kc, 8)]], [[]]):
            with pytest.raises(ValueError, match="one or two tiles"):
                d.acquire_input(0, steps)
            assert d.residents(0) == residents and d.stats() == stats
    # the check comes before the requester is looked at: uncached too
    d = CacheDirectory(cap_machine(1), enabled=False)
    with pytest.raises(ValueError, match="one or two tiles"):
        d.acquire_input(0, [[(ka, 8), (kb, 8), (kc, 8)]])
    assert d.stats() == CacheStats()


@pytest.mark.usefixtures("directory_invariants")
def test_admit_output_rejected_while_an_output_is_unfinished():
    d = CacheDirectory(cap_machine(2, capacity=3))
    c1, c2 = key("c1"), key("c2")
    d.admit_output(0, c1)
    with pytest.raises(ValueError, match="unfinished output tile"):
        d.admit_output(0, c2)
    assert d.residents(0) == [c1]
    d.admit_output(1, c2)  # another device builds its own
    d.release_output(0, c1, 64)
    d.admit_output(0, c2)  # once finished, the device takes the next
    assert d.residents(0) == d.residents(1) == [c2]


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
        assert d.residents(0) == [ka, kc]
        finish(kc)
        with pytest.raises(ValueError, match="not the output tile"):
            finish(kc)  # finished already
        assert d.residents(0) == [ka]
    # only the successful release counted a writeback
    assert (d.stats().writebacks, d.stats().bytes_writeback) == (1, 64)


def stepwise_acquire(d, device, steps):
    """The oracle of a task's call: each step a one-step call."""
    return [res for step in steps for res in d.acquire_input(device, [step])]


@pytest.mark.usefixtures("directory_invariants")
def test_task_call_leaves_what_stepwise_calls_leave():
    ka, kb, kc, kd, ke, kout = (key(n) for n in ("a", "b", "c", "d", "e", "out"))
    task, stepwise = (CacheDirectory(cap_machine(1, capacity=3)) for _ in range(2))
    for d in (task, stepwise):
        d.admit_output(0, kout)
    # two slots besides the output: each step evicts the step before it
    steps = [[(ka, 8), (kb, 8)], [(kc, 8), (kd, 8)], [(ka, 8), (ke, 8)]]
    got = task.acquire_input(0, steps)
    assert [[r.source for r in step] for step in got] == [[HOST] * 2] * 3
    assert got == stepwise_acquire(stepwise, 0, steps)
    assert task.residents(0) == stepwise.residents(0) == [kout, ka, ke]
    assert task.stats() == stepwise.stats()
    assert task.stats().evictions == 4


@pytest.mark.usefixtures("directory_invariants")
def test_inputs_are_evictable_once_the_call_returns():
    d = CacheDirectory(cap_machine(1, capacity=3))
    ka, kb, kc, kd = (key(n) for n in "abcd")
    d.acquire_input(0, [((ka, 8), (kb, 8))])
    d.release_input(0, (ka, kb))  # a no-op: the call held nothing
    touch(d, 0, kc)
    touch(d, 0, kd)  # a, the last step's A, is the least recent: it goes
    assert d.residents(0) == [kb, kc, kd]


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
        (r,), = d.acquire_input(0, [((k, 10),)])
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
        (r,), = d.acquire_input(1, [((key("a"), 999),)])
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
        assert ck in d.residents(0)  # kept for the whole task
    d.release_output(0, ck, 64)
    assert ck not in d.residents(0)
    s = d.stats()
    assert s.writebacks == 1 and s.bytes_writeback == 64
    assert s.evictions == 2  # inputs only: completion is not an eviction


def test_invariants_fixture_checks_after_a_test_undo(directory_invariants, monkeypatch):
    d = CacheDirectory(cap_machine(1, capacity=3))
    monkeypatch.setattr(d, "residents", lambda device: [])
    monkeypatch.undo()  # the test's own undo keeps the checks in place
    d._output[0] = key("ghost")  # an output tile that is not resident
    with pytest.raises(AssertionError, match="not resident"):
        touch(d, 0, key("a"))
    d._output[0] = None
    d._order[0].update(dict.fromkeys(key(n) for n in "xyz"))  # a, x, y and z
    with pytest.raises(AssertionError, match="over capacity"):
        d.admit_output(0, key("c"))  # one victim: four tiles remain


class ModelDirectory:
    """Dead-simple multi-device reference: one list per device in insertion
    order, recency refreshed by moving to the back.  A local miss copies
    from the closest device whose list holds the key (ties to the lowest
    id), or from host when none does.  A full list gives up its first key
    that is neither the device's output tile nor an earlier tile of the
    step being resolved.  It resolves one tile at a time."""

    def __init__(self, hops, capacity):
        self.hops = hops
        self.capacity = capacity
        self.keys = [[] for _ in hops]
        self.output = [None for _ in hops]
        self.stats = [CacheStats() for _ in hops]
        self.output_passed_over = 0  # evictions that skipped the output tile

    def source(self, dev, k):
        owners = [o for o in range(len(self.keys)) if k in self.keys[o]]
        if not owners:
            return HOST
        return min(owners, key=lambda o: (self.hops[dev][o], o))

    def admit(self, dev, k, step_before=()):
        keys = self.keys[dev]
        assert k not in keys
        if len(keys) >= self.capacity:
            out = self.output[dev]
            victim = next(c for c in keys if c not in step_before and c != out)
            self.output_passed_over += out in keys[:keys.index(victim)]
            keys.remove(victim)
            self.stats[dev].evictions += 1
        keys.append(k)

    def acquire_step(self, dev, step, nbytes):
        """Resolve one step; returns its (source, bytes moved) pairs."""
        st, keys, out = self.stats[dev], self.keys[dev], []
        for n, k in enumerate(step):
            if k in keys:
                keys.remove(k)
                keys.append(k)
                st.l1_hits += 1
                out.append((dev, 0))
                continue
            src = self.source(dev, k)
            self.admit(dev, k, step[:n])
            if src == HOST:
                st.host_fetches += 1
                st.bytes_host += nbytes
            else:
                st.l2_hits += 1
                st.bytes_peer += nbytes
            out.append((src, nbytes))
        return out

    def admit_output(self, dev, k):
        self.admit(dev, k)
        self.output[dev] = k

    def drop_output(self, dev, nbytes=None):
        """Release (``nbytes`` written back) or abort the output tile."""
        self.keys[dev].remove(self.output[dev])
        self.output[dev] = None
        if nbytes is not None:
            self.stats[dev].writebacks += 1
            self.stats[dev].bytes_writeback += nbytes


@pytest.mark.usefixtures("directory_invariants")
def test_model_based_directory_agreement():
    # Each call is one of: admit an output tile, on a device without one;
    # release or abort the device's output tile; a task's acquire, one
    # call of 1-4 steps of 1-2 tiles, which the model resolves step by
    # step; or a rejected acquire with a three-tile step, which changes
    # nothing.  Device 0 is closer to 2 than to 1; device 1 is equally far
    # from 0 and 2, so ties go to the lower id.
    hops = [[0, 2, 1], [2, 0, 2], [1, 2, 0]]
    rng = np.random.default_rng(99)
    serial = itertools.count()
    peer_hits = refetched = released = aborted = rejected = 0
    passed_over = 0
    for trial in range(24):
        n = 2 + trial % 2
        cap = 3 if trial % 3 == 0 else int(rng.integers(4, 7))
        m = Machine([DeviceSpec(i, capacity_tiles=cap) for i in range(n)],
                    ProximityMatrix(np.array(hops)[:n, :n], np.full((n, n), 10.0)))
        d = CacheDirectory(m)
        model = ModelDirectory([row[:n] for row in hops[:n]], cap)
        universe = [key(f"t{i}") for i in range(12)]
        seen = set()  # keys that were resident somewhere before
        for _ in range(200):
            dev = int(rng.integers(0, n))
            c_key = model.output[dev]
            r = rng.random()
            if r < 0.2 and c_key is None:
                c_key = TileKey("C", next(serial), 0)
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
            elif r < 0.25:
                with pytest.raises(ValueError):
                    d.acquire_input(dev, [[(universe[0], 8)], [(k, 8) for k in universe[:3]]])
                rejected += 1
            else:
                steps = [[universe[int(i)]
                          for i in rng.integers(0, len(universe), int(rng.integers(1, 3)))]
                         for _ in range(int(rng.integers(1, 5)))]
                want = []
                for step in steps:
                    want.append(model.acquire_step(dev, step, 8))
                    for k, (src, _) in zip(step, want[-1]):
                        if src != dev:  # not an L1 hit
                            peer_hits += src != HOST
                            refetched += src == HOST and k in seen
                            seen.add(k)
                got = d.acquire_input(dev, [[(k, 8) for k in step] for step in steps])
                assert [[(r.source, r.nbytes_moved) for r in step] for step in got] == want
            for o in range(n):
                assert d.residents(o) == model.keys[o]
            assert d.stats_per_device() == dict(enumerate(model.stats))
        passed_over += model.output_passed_over
    # the walk reached peer copies, tiles evicted from every owner came back
    # as host misses, evictions passed over an output tile that was the
    # least recent, and outputs were released, aborted and rejected calls made
    assert peer_hits > 0 and refetched > 0 and passed_over > 0
    assert released > 0 and aborted > 0 and rejected > 0


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
    # A task is admit_output, one acquire_input of its (A, B) steps, then
    # release_output or abort_output; the tasks of different devices
    # interleave, one open task per device.  The directory's admissions
    # are watched from inside its transaction.
    d = CacheDirectory(machine)
    open_tasks = {}  # device -> (i, output key) of its unfinished task
    admit = d._admit_locked

    def watched(dev, k, *rest):
        admit(dev, k, *rest)
        order, cap = d._order[dev], d._capacity[dev]
        assert len(order) <= cap
        if dev in open_tasks:
            i, c_key = open_tasks[dev]
            assert c_key in order  # never evicted mid-task
            if k.matrix == "B":  # the step's A survives its B
                assert TileKey("A", i, k.row) in order

    d._admit_locked = watched
    serial = itertools.count()
    n_devices = len(machine.devices)
    for dev in data.draw(st.lists(st.integers(0, n_devices - 1), min_size=1, max_size=40)):
        if dev in open_tasks:
            c_key = open_tasks.pop(dev)[1]
            if data.draw(st.booleans()):
                d.release_output(dev, c_key, 8)
            else:
                d.abort_output(dev, c_key)
        else:
            i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            ks = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
            c_key = TileKey("C", next(serial), 0)
            d.admit_output(dev, c_key)
            open_tasks[dev] = (i, c_key)
            d.acquire_input(dev, [((TileKey("A", i, k), 8), (TileKey("B", k, j), 8))
                                  for k in ks])
            if dev in d._order:
                # the output and the last step's two tiles are resident
                assert {c_key, TileKey("A", i, ks[-1]), TileKey("B", ks[-1], j)} <= \
                    set(d.residents(dev))
        d.check_invariants()
