import itertools
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tilerun.ann import Network, TiledBackend, train_step, xor_dataset
from tilerun.coherence import CacheDirectory, CacheStats
from tilerun.devices import (
    HOST,
    DeviceSpec,
    Machine,
    ProximityMatrix,
    compute_cost,
    homogeneous_machine,
    transfer_cost,
)
from tilerun.msqueue import MichaelScottQueue
import tilerun.scheduler
from tilerun.scheduler import (
    DeviceStats,
    Operand,
    ReservationStation,
    Runtime,
    StealEvent,
    _claim,
    _run_task,
    _task_order,
    plan,
    run,
    steal_task,
    write_report_csv,
    write_report_json,
)
from tilerun.tiles import (
    TileKey,
    TiledMatrix,
    _block_ranges,
    accumulate_product,
    partition,
    reference_gemm,
)


def int_matrix(rng, rows, cols, lo=-4, hi=4):
    return rng.integers(lo, hi + 1, size=(rows, cols)).astype(np.float64)


def compute_bound_machine(n, **kw):
    # transfers are negligible next to compute; good for load-balance checks
    kw.setdefault("flops_per_unit", 1000.0)
    kw.setdefault("host_bandwidth", 1e9)
    kw.setdefault("peer_bandwidth", 1e9)
    return homogeneous_machine(n, **kw)


# -- planning ---------------------------------------------------------------


def operands(a, b):
    """Two dense matrices as the planner's operands ``A`` and ``B``."""
    return Operand(a, "A"), Operand(b, "B")


def test_plan_counts_square():
    p = plan(*operands(np.zeros((4, 4)), np.zeros((4, 4))), 2)
    assert p.total_tasks == 4
    assert p.k_steps == 2
    assert list(_task_order(p)) == [0, 1, 2, 3]
    # task-id order is row-major
    assert [task[:2] for task in p.template.tasks] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_plan_counts_rectangular():
    p = plan(*operands(np.zeros((6, 4)), np.zeros((4, 6))), 2)
    assert (p.grid_rows, p.grid_cols) == (3, 3)
    assert p.total_tasks == 9
    assert p.k_steps == 2
    assert list(_task_order(p)) == list(range(9))


def test_plan_single_tile_degenerate():
    p = plan(*operands(np.zeros((2, 2)), np.zeros((2, 2))), 4)
    assert p.total_tasks == 1
    assert p.k_steps == 1


def test_plan_rejects_mismatches():
    with pytest.raises(ValueError):
        plan(*operands(np.zeros((4, 4)), np.zeros((5, 4))), 2)


def test_plan_output_allocated_as_zeros():
    p = plan(*operands(np.ones((4, 4)), np.ones((4, 4))), 2)
    assert np.array_equal(p.c, np.zeros((4, 4)))


# -- reservation stations and stealing ---------------------------------------


def fill_queue(ids):
    q = MichaelScottQueue()
    for i in ids:
        q.enqueue(i)
    return q


def test_refill_fills_empty_slots():
    st = ReservationStation(4)
    q = fill_queue(range(10))
    assert st.refill(q) == [0, 1, 2, 3]
    assert st.reserved_count() == 4
    assert list(iter(q.dequeue, None)) == [4, 5, 6, 7, 8, 9]


def test_refill_tops_up_partial_station():
    st = ReservationStation(4)
    st.refill(fill_queue([42]))
    assert st.reserved_count() == 1
    assert st.refill(fill_queue([43])) == [43]
    assert st.reserved_count() == 2


def test_refill_empty_queue():
    st = ReservationStation(4)
    assert st.refill(MichaelScottQueue()) == []


def test_station_owner_fifo_thief_opposite_end():
    st = ReservationStation(4)
    st.refill(fill_queue([1, 2, 3]))
    assert st.try_steal() == 3
    assert st.pop_for_run() == 1
    assert st.pop_for_run() == 2
    assert st.pop_for_run() is None


def test_steal_picks_most_loaded_station():
    stations = {i: ReservationStation(4) for i in range(3)}
    stations[1].refill(fill_queue([10, 11, 12]))
    stations[2].refill(fill_queue([20]))
    tid, victim = steal_task(0, stations)
    assert victim == 1 and tid == 12


def test_steal_none_when_all_empty():
    stations = {i: ReservationStation(4) for i in range(3)}
    assert steal_task(0, stations) == (None, None)


def test_steal_tie_breaks_to_lowest_id():
    stations = {i: ReservationStation(4) for i in range(3)}
    stations[1].refill(fill_queue([10, 11]))
    stations[2].refill(fill_queue([20, 21]))
    tid, victim = steal_task(0, stations)
    assert victim == 1


def test_claim_takes_from_queue_before_stealing():
    stations = {i: ReservationStation(2) for i in range(3)}
    stations[1].refill(fill_queue([10, 11]))
    stations[2].refill(fill_queue([20]))
    q = fill_queue([0, 1, 2])
    claimed = [_claim(0, stations, q, steal_enabled=True) for _ in range(3)]
    assert claimed == [(0, None), (1, None), (2, None)]
    assert stations[1].reserved_count() == 2 and stations[2].reserved_count() == 1
    # the queue has drained and the own station with it: now it steals
    assert _claim(0, stations, q, steal_enabled=True) == (11, 1)


def test_claim_retires_when_nothing_is_claimable():
    stations = {i: ReservationStation(4) for i in range(2)}
    stations[1].refill(fill_queue([10, 11]))
    q = MichaelScottQueue()
    assert _claim(0, stations, q, steal_enabled=False) == (None, None)
    assert stations[1].reserved_count() == 2  # peers keep their reservations
    assert _claim(1, stations, q, steal_enabled=False) == (10, None)
    stations = {i: ReservationStation(4) for i in range(2)}
    assert _claim(0, stations, q, steal_enabled=True) == (None, None)


def test_sim_product_ends_at_its_last_claim(monkeypatch):
    # Once every task of a product is claimed, any later claim finds
    # nothing, so no device claims again: each product of an XOR
    # [2, 8, 1] session with steals on makes one claim per task.  Claims
    # are counted where the sim engine makes them, at _sim_claim.
    claims = []
    real_claim = tilerun.scheduler._sim_claim
    monkeypatch.setattr(tilerun.scheduler, "_sim_claim",
                        lambda did, *rest: claims.append(did) or real_claim(did, *rest))
    backend = TiledBackend(homogeneous_machine(2), tile_size=2)
    rt = backend.runtime
    real_multiply = rt.multiply
    per_product = []  # (claims, tasks, steals) of each product

    def multiply(*args, **kw):
        claims.clear()
        c, stats = real_multiply(*args, **kw)
        per_product.append((len(claims), stats.total_tasks, len(stats.steal_events)))
        return c, stats

    monkeypatch.setattr(rt, "multiply", multiply)
    rng = np.random.default_rng(0)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    x, target = xor_dataset()
    for _ in range(3):
        train_step(net, x, target, 0.5, backend)
    assert len(per_product) == 18
    assert all(n_claims == tasks for n_claims, tasks, _ in per_product)
    assert sum(tasks for _, tasks, _ in per_product) == 3 * 28
    assert sum(steals for *_, steals in per_product) > 0


def test_a_sim_product_builds_no_queue_station_or_snapshot(monkeypatch):
    # The sim engine claims over plain FIFOs and a task iterator, and the
    # directory counts a product's traffic as it runs: a sim product,
    # stealing or not, builds no MS queue, no reservation station and no
    # snapshot or diff of the session counters.
    def refuse(*args, **kwargs):
        raise AssertionError("built by a sim product")

    for owner, name in [(MichaelScottQueue, "__init__"), (ReservationStation, "__init__"),
                        (CacheDirectory, "stats_per_device"), (CacheStats, "__sub__")]:
        monkeypatch.setattr(owner, name, refuse)
    rng = np.random.default_rng(36)
    a, b = int_matrix(rng, 10, 7), int_matrix(rng, 7, 9)
    machine = Machine([DeviceSpec(0, flops_per_unit=10.0, slots=2)]
                      + [DeviceSpec(i, flops_per_unit=1000.0, slots=2) for i in (1, 2)],
                      ProximityMatrix.uniform(3))
    for steal in (True, False):
        rt = Runtime(machine, tile_size=2, steal=steal)
        steals = 0
        for _ in range(2):
            c, stats = rt.multiply(a, b)
            assert np.array_equal(c, reference_gemm(a, b))
            assert stats.cache.input_requests == 2 * stats.total_tasks * stats.k_steps
            steals += len(stats.steal_events)
        assert (steals > 0) == steal


@st.composite
def claim_machines(draw):
    """1-4 devices with 1-4 station slots and unequal speeds, bounded or
    unbounded caches, and maybe a host worker as the last device."""
    n = draw(st.integers(1, 4))
    host_worker = n > 1 and draw(st.booleans())
    speed = st.floats(10.0, 5000.0)
    devs = [DeviceSpec(i, capacity_tiles=draw(st.one_of(st.none(), st.integers(3, 8))),
                       flops_per_unit=draw(speed), host_bandwidth=draw(speed),
                       slots=draw(st.integers(1, 4)))
            for i in range(n - host_worker)]
    if host_worker:
        devs.append(DeviceSpec(n - 1, kind="host-worker", flops_per_unit=draw(speed),
                               slots=draw(st.integers(1, 4))))
    return Machine(devs, ProximityMatrix.uniform(n, bandwidth=draw(speed)))


@settings(max_examples=80, deadline=None)
@given(machine=claim_machines(), steal=st.booleans(), tile=st.integers(1, 3),
       shapes=st.lists(st.tuples(*[st.integers(1, 9)] * 3), min_size=1, max_size=3))
def test_sim_claims_replay_through_the_threaded_claim(machine, steal, tile, shapes):
    # The sim engine claims over plain FIFOs and a task iterator, the
    # threaded engine over locked stations and the MS queue: one rule, two
    # data structures.  Every claim of a session of ragged products is
    # recorded as (device, task, victim), in order, retirements included,
    # and replayed in the same device order through _claim on fresh
    # ReservationStations and a queue filled in task-id order.  Each replayed
    # claim must return what the sim's did.  Each steal's victim is also
    # checked against the rule as written out here, before the claim: the
    # most-loaded other station, ties to the lowest id.
    claims = []
    real_claim = tilerun.scheduler._sim_claim

    def recording(did, *rest):
        tid, victim = real_claim(did, *rest)
        claims.append((did, tid, victim))
        return tid, victim

    rng = np.random.default_rng(0)
    rt = Runtime(machine, tile_size=tile, steal=steal)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tilerun.scheduler, "_sim_claim", recording)
        for m, k, n in shapes:
            claims.clear()
            _, stats = rt.multiply(int_matrix(rng, m, k), int_matrix(rng, k, n))
            stations = {d.device_id: ReservationStation(d.slots) for d in machine.devices}
            queue = fill_queue(range(stats.total_tasks))  # task-id order, as the engines use
            for did, tid, victim in claims:
                if victim is not None:
                    loads = {d: st_.reserved_count() for d, st_ in stations.items()
                             if d != did and st_.reserved_count()}
                    assert victim == min(loads, key=lambda d: (-loads[d], d))
                assert _claim(did, stations, queue, steal) == (tid, victim)
            ran = [(did, tid) for did, tid, _ in claims if tid is not None]
            assert sorted(tid for _, tid in ran) == list(range(stats.total_tasks))
            assert all(stats.ran_on[tid] == did for did, tid in ran)
            assert [(ev.thief, ev.task_id, ev.victim) for ev in stats.steal_events] == [
                claim for claim in claims if claim[2] is not None]
            if not steal:
                assert not stats.steal_events
            assert queue.dequeue() is None


# -- end-to-end correctness ---------------------------------------------------


def test_single_task_run_matches_reference():
    rng = np.random.default_rng(0)
    a, b = int_matrix(rng, 2, 2), int_matrix(rng, 2, 2)
    c, stats = run(homogeneous_machine(1), a, b, tile_size=4)
    assert np.array_equal(c, reference_gemm(a, b))
    assert stats.total_tasks == 1


def test_multi_device_run_matches_reference_bitwise():
    rng = np.random.default_rng(1)
    a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    ref = reference_gemm(a, b)
    for n in (1, 2, 3):
        c, stats = run(homogeneous_machine(n), a, b, tile_size=4, mode="sim")
        assert np.array_equal(c, ref)
        assert sum(stats.tasks_by_device.values()) == 9


def test_float_runs_bitwise_equal_across_configurations():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((30, 18))
    b = rng.standard_normal((18, 25))
    ref = reference_gemm(a, b)
    outputs = []
    for n in (1, 2, 4):
        for mode in ("sim", "threaded"):
            for steal in (True, False):
                c, _ = run(homogeneous_machine(n), a, b, tile_size=7,
                           mode=mode, steal=steal)
                outputs.append(c)
    for c in outputs:
        assert np.array_equal(c, ref)


def test_threaded_interleavings_all_bitwise_identical():
    rng = np.random.default_rng(3)
    a, b = int_matrix(rng, 18, 18), int_matrix(rng, 18, 18)
    ref = reference_gemm(a, b)
    for _ in range(10):
        c, stats = run(homogeneous_machine(3), a, b, tile_size=6, mode="threaded")
        assert np.array_equal(c, ref)
        assert stats.cache.input_requests == 2 * stats.total_tasks * stats.k_steps


def test_sim_mode_fully_reproducible():
    rng = np.random.default_rng(4)
    a, b = int_matrix(rng, 24, 24), int_matrix(rng, 24, 24)
    m = homogeneous_machine(3, capacity_tiles=6)
    c1, s1 = run(m, a, b, tile_size=4, mode="sim")
    c2, s2 = run(m, a, b, tile_size=4, mode="sim")
    assert np.array_equal(c1, c2)
    assert s1.makespan == s2.makespan
    assert s1.cache.as_dict() == s2.cache.as_dict()
    assert s1.tasks_by_device == s2.tasks_by_device


@pytest.mark.usefixtures("directory_invariants")
def test_constrained_capacity_still_exact_with_evictions():
    rng = np.random.default_rng(5)
    a, b = int_matrix(rng, 16, 16), int_matrix(rng, 16, 16)
    m = homogeneous_machine(2, capacity_tiles=3)
    c, stats = run(m, a, b, tile_size=4, mode="sim")
    assert np.array_equal(c, reference_gemm(a, b))
    assert stats.cache.evictions > 0


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_host_worker_participates_and_subtiling_is_bitwise_neutral(mode):
    # only the threaded engine's tasks call the kernel, sub-blocked on a host worker
    rng = np.random.default_rng(6)
    a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    ref = reference_gemm(a, b)
    outs = []
    for f in (1, 2, 4):
        devs = [
            DeviceSpec(0, flops_per_unit=500.0, host_bandwidth=1e6),
            DeviceSpec(1, kind="host-worker", flops_per_unit=100.0,
                       host_bandwidth=1.0, subtile_factor=f),
        ]
        m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=1e6))
        c, stats = run(m, a, b, tile_size=4, mode=mode)
        outs.append(c)
        assert np.array_equal(c, ref)
        if mode == "sim":  # under threads the host worker may pull no task
            assert stats.devices[1].tasks_completed > 0  # host worker pulled work
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_mixed_dtype_product_matches_reference_bitwise(mode):
    # the output takes the operands' result dtype, as the reference does
    rng = np.random.default_rng(29)
    a64, b64 = rng.standard_normal((10, 7)), rng.standard_normal((7, 9))
    hetero = Machine([DeviceSpec(0), DeviceSpec(1, kind="host-worker", subtile_factor=2)],
                     ProximityMatrix.uniform(2))
    for a_t, b_t in itertools.product((np.float32, np.float64), repeat=2):
        a, b = a64.astype(a_t), b64.astype(b_t)
        ref = reference_gemm(a, b)
        for machine in (homogeneous_machine(2), hetero):
            c, _ = run(machine, a, b, tile_size=4, mode=mode)
            assert c.dtype == ref.dtype and np.array_equal(c, ref), (a_t, b_t)


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_tile_bytes_follow_the_data(mode):
    # a tile moves its elements times its own array's itemsize: 8x8 at
    # tile 4 on one device fetches each of A's and B's 4 tiles once and
    # writes C's 4 tiles back once, 16 elements each
    for a_t, b_t, host, writeback in ((np.float32, np.float32, 512, 256),
                                      (np.float64, np.float64, 1024, 512),
                                      (np.float32, np.float64, 768, 512),
                                      (np.float64, np.float32, 768, 512)):
        a, b = np.ones((8, 8), dtype=a_t), np.ones((8, 8), dtype=b_t)
        _, stats = run(homogeneous_machine(1), a, b, tile_size=4, mode=mode)
        assert stats.cache.host_fetches == 8 and stats.cache.writebacks == 4
        assert (stats.cache.bytes_host, stats.cache.bytes_writeback) == (host, writeback), \
            (a_t, b_t)


@pytest.mark.usefixtures("directory_invariants")
def test_exactly_once_under_threaded_stress():
    rng = np.random.default_rng(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, to expose claim races
    try:
        for trial in range(10):
            a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
            n = int(rng.integers(2, 5))
            c, stats = run(homogeneous_machine(n, slots=1 + trial % 3), a, b, tile_size=3,
                           mode="threaded")
            assert np.array_equal(c, reference_gemm(a, b))
            assert sum(stats.tasks_by_device.values()) == stats.total_tasks == 16
            assert (sum(d.steals_performed for d in stats.devices.values())
                    == sum(d.steals_suffered for d in stats.devices.values())
                    == len(stats.steal_events))
    finally:
        sys.setswitchinterval(interval)


# -- tiles as read, and one kernel call per task -------------------------------


@pytest.mark.parametrize("transposed", [False, True])
def test_read_tile_is_the_stored_tile_its_key_names(transposed):
    # An operand holds its matrix as it is read; the key its plan's step
    # table gives a tile names the stored tile, whose transpose the read
    # tile is when the operand is transposed.
    stored = np.arange(7 * 11, dtype=np.float64).reshape(7, 11)
    rt = Runtime(homogeneous_machine(1), tile_size=3)
    op = rt.operand(stored, "X", transposed)
    assert op.element_shape == ((11, 7) if transposed else (7, 11))
    p = plan(op, rt.operand(np.zeros((op.element_shape[1], 1)), "Y"), 3)
    stored_tiles, read_tiles = partition(stored, 3), partition(op.matrix, 3)
    for i in range(read_tiles.grid_rows):
        for j in range(read_tiles.grid_cols):
            key = p.a_rows[i][j][0]
            want = stored_tiles.tile(key.row, key.col)
            tile = read_tiles.tile(i, j)
            assert np.array_equal(tile, want.T if transposed else want)
            assert np.shares_memory(tile, stored)  # a view, never a copy


@settings(max_examples=100, deadline=None)
@given(tile=st.integers(1, 5), grid=st.tuples(*[st.integers(1, 4)] * 3),
       ragged=st.tuples(*[st.integers(0, 4)] * 3),
       transposes=st.tuples(st.booleans(), st.booleans()),
       dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 2))
def test_step_table_matches_tile_views(tile, grid, ragged, transposes, dtypes):
    # plan() builds its step and task tables, and the template its tile
    # extents, from the operands' shapes and itemsizes, not from tile
    # views; the stored tiles the keys name, and the output's tiles, stay
    # the oracle, for straight and transposed operands of either width.
    m, k, n = (tile * (g - 1) + 1 + r % tile for g, r in zip(grid, ragged))
    stored = {uid: partition(np.zeros(shape[::-1] if t else shape, dtype=dt), tile)
              for shape, uid, t, dt in (((m, k), "A", transposes[0], dtypes[0]),
                                        ((k, n), "B", transposes[1], dtypes[1]))}
    a, b = (Operand(stored[uid].base.T if t else stored[uid].base, uid, t)
            for uid, t in zip("AB", transposes))
    p = plan(a, b, tile)

    def stored_tile(op, i, j):
        """Tile (i, j) of ``op`` as read: its key, and the stored tile the
        key names."""
        key = TileKey(op.uid, j, i) if op.transposed else TileKey(op.uid, i, j)
        return key, stored[key.matrix].tile(key.row, key.col)

    def entry(op, i, j):
        key, view = stored_tile(op, i, j)
        return key, view.nbytes

    def read_shape(op, i, j):
        view = stored_tile(op, i, j)[1]
        return view.T.shape if op.transposed else view.shape

    assert p.a_rows == [[entry(a, i, kk) for kk in range(p.k_steps)]
                        for i in range(p.grid_rows)]
    assert p.b_cols == [[entry(b, kk, j) for kk in range(p.k_steps)]
                        for j in range(p.grid_cols)]
    # a TileKey, not only a tuple equal to one
    assert all(type(key) is TileKey for table in (p.a_rows, p.b_cols)
               for steps in table for key, _ in steps)
    # step kk of task (i, j) reads an (m_i, s_kk) tile of A and an
    # (s_kk, n_j) tile of B, and writes an (m_i, n_j) tile of C
    tmpl = p.template
    rows, cols, steps = tmpl.row_extents, tmpl.col_extents, tmpl.step_extents
    read_a, read_b = partition(a.matrix, tile), partition(b.matrix, tile)
    assert (len(rows), len(cols), len(steps)) == (read_a.grid_rows, read_b.grid_cols,
                                                  read_a.grid_cols)
    assert all(read_shape(a, i, kk) == (rows[i], steps[kk])
               for i in range(p.grid_rows) for kk in range(p.k_steps))
    assert all(read_shape(b, kk, j) == (steps[kk], cols[j])
               for kk in range(p.k_steps) for j in range(p.grid_cols))
    c = partition(p.c, tile)
    assert c.base.dtype == np.result_type(*dtypes)
    assert tmpl.tasks == [(i, j, c.tile(i, j).nbytes)
                          for i in range(c.grid_rows) for j in range(c.grid_cols)]
    assert all(c.tile(i, j).shape == (rows[i], cols[j]) for i, j, *_ in tmpl.tasks)


def test_session_template_key_names_transposes_and_dtypes(monkeypatch):
    # Products whose operands have equal shapes as read, and differ only
    # in which is transposed or in their dtypes, each get a template of
    # their own: in one session every product's step tables match the
    # stored tiles its keys name, and its output and counters match the
    # same product in a fresh session.
    m, k, n, tile = 7, 5, 8, 3  # ragged in every dimension
    plans = []
    real_plan = tilerun.scheduler.plan
    monkeypatch.setattr(tilerun.scheduler, "plan",
                        lambda *args: plans.append(real_plan(*args)) or plans[-1])
    session = Runtime(homogeneous_machine(1), tile_size=tile)
    dtypes = (np.float32, np.float64, np.int64)
    for n_call, (ta, tb, da, db) in enumerate(itertools.product(
            (False, True), (False, True), dtypes, dtypes)):
        stored = {"A": np.arange(m * k).reshape((k, m) if ta else (m, k)).astype(da),
                  "B": np.arange(k * n).reshape((n, k) if tb else (k, n)).astype(db)}
        a, b = (stored[u].T if t else stored[u] for u, t in (("A", ta), ("B", tb)))
        uids = {"A": f"A{n_call}", "B": f"B{n_call}"}
        c, stats = session.multiply(stored["A"], stored["B"], ta, tb,
                                    a_uid=uids["A"], b_uid=uids["B"])
        fresh_c, fresh = Runtime(homogeneous_machine(1), tile_size=tile).multiply(
            stored["A"], stored["B"], ta, tb, a_uid="A", b_uid="B")
        p = plans[-2]  # the session's plan, then the fresh one's
        tiles = {uids[u]: partition(x, tile) for u, x in stored.items()}

        def stored_tile(uid, transposed, i, j):
            key = TileKey(uid, j, i) if transposed else TileKey(uid, i, j)
            return key, tiles[uid].tile(key.row, key.col)

        def entry(uid, transposed, i, j):
            key, view = stored_tile(uid, transposed, i, j)
            return key, view.nbytes

        def read_shape(uid, transposed, i, j):
            view = stored_tile(uid, transposed, i, j)[1]
            return view.T.shape if transposed else view.shape

        assert p.a_rows == [[entry(uids["A"], ta, i, kk) for kk in range(p.k_steps)]
                            for i in range(p.grid_rows)]
        assert p.b_cols == [[entry(uids["B"], tb, kk, j) for kk in range(p.k_steps)]
                            for j in range(p.grid_cols)]
        rows, cols, steps = (p.template.row_extents, p.template.col_extents,
                             p.template.step_extents)
        assert all(read_shape(uids["A"], ta, i, kk) == (rows[i], steps[kk])
                   and read_shape(uids["B"], tb, kk, j) == (steps[kk], cols[j])
                   for i in range(p.grid_rows) for j in range(p.grid_cols)
                   for kk in range(p.k_steps))
        assert c.dtype == fresh_c.dtype == np.result_type(da, db)
        assert np.array_equal(c, reference_gemm(a, b))
        assert stats.cache == fresh.cache and stats.cache.bytes_writeback > 0
        assert ((stats.grid_rows, stats.grid_cols, stats.k_steps, stats.tasks_by_device)
                == (fresh.grid_rows, fresh.grid_cols, fresh.k_steps, fresh.tasks_by_device))
    # one template per transpose pair and dtype pair, none per call
    assert len(session.templates) == 4 * len(dtypes) ** 2 == n_call + 1


def _float_tiles(rng, shape, dtype, tile, transposed):
    # stored as the transpose when a product reads it transposed, and
    # tiled as read
    x = rng.standard_normal(shape[::-1] if transposed else shape)
    x *= 10.0 ** rng.integers(-6, 7, size=x.shape)
    x[rng.random(x.shape) < 0.1] = -0.0
    x = x.astype(dtype)
    return partition(x.T if transposed else x, tile)


@settings(max_examples=150, deadline=None)
@given(
    # t <= 2 and t >= 91 take the kernel's rank-1 loop for every step
    tile=st.one_of(st.integers(1, 2), st.integers(3, 48), st.integers(91, 96)),
    grid=st.tuples(*[st.integers(1, 4)] * 3),
    ragged=st.tuples(*[st.integers(0, 95)] * 3),
    dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 2),
    transposes=st.tuples(st.booleans(), st.booleans()),
    sub_blocks=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(tile=40, grid=(1, 4, 1), ragged=(39, 39, 39), dtypes=(np.float64, np.float64),
         transposes=(False, False), sub_blocks=1, seed=0)  # several chunks per panel
def test_task_panel_product_matches_per_step_loop_bitwise(tile, grid, ragged, dtypes,
                                                          transposes, sub_blocks, seed):
    # One kernel call on the row and column panels must give every output
    # tile the bits of one call per contraction step, and so must one call
    # on the whole operands, as the sim engine makes.
    m, k, n = (tile * (g - 1) + 1 + r % tile for g, r in zip(grid, ragged))
    rng = np.random.default_rng(seed)
    a = _float_tiles(rng, (m, k), dtypes[0], tile, transposes[0])
    b = _float_tiles(rng, (k, n), dtypes[1], tile, transposes[1])
    # the output takes A's dtype, as plan() allocates it
    c = _float_tiles(rng, (m, n), dtypes[0], tile, False)
    expected = partition(c.base.copy(), tile)
    whole = accumulate_product(a.base, b.base, c.base.copy())
    for i in range(c.grid_rows):
        for j in range(c.grid_cols):
            for kk in range(a.grid_cols):
                accumulate_product(a.tile(i, kk), b.tile(kk, j),
                                   expected.tile(i, j), sub_blocks=sub_blocks)
            # A's tile row i and B's tile column j, one view each
            accumulate_product(a.base[i * tile : (i + 1) * tile],
                               b.base[:, j * tile : (j + 1) * tile], c.tile(i, j),
                               sub_blocks=sub_blocks)
    assert c.base.tobytes() == expected.base.tobytes()
    assert whole.tobytes() == expected.base.tobytes()


# -- cache behaviour through full runs ---------------------------------------


def grid_gemm_stats(n_devices, g, tile, coherence=True, mode="sim"):
    rng = np.random.default_rng(8)
    size = g * tile
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    m = homogeneous_machine(n_devices)
    c, stats = run(m, a, b, tile_size=tile, mode=mode, coherence=coherence)
    assert np.array_equal(c, reference_gemm(a, b))
    return stats


def test_first_touch_host_fetches_single_device():
    g = 6
    stats = grid_gemm_stats(1, g, 4)
    assert stats.cache.host_fetches == 2 * g * g
    assert stats.cache.l2_hits == 0  # nobody to peer with
    assert stats.cache.input_requests == 2 * g**3


def test_first_touch_host_fetches_multi_device():
    g = 6
    stats = grid_gemm_stats(3, g, 4)
    # every distinct input tile crosses the host link exactly once, whole run
    assert stats.cache.host_fetches == 2 * g * g
    assert stats.cache.l2_hits > 0
    assert stats.cache.input_requests == 2 * g**3


def test_bypass_counts_every_request_as_host_fetch():
    g = 6
    stats = grid_gemm_stats(2, g, 4, coherence=False)
    assert stats.cache.host_fetches == 2 * g**3
    assert stats.cache.l1_hits == 0 and stats.cache.l2_hits == 0
    # every output tile is still written back, cached or not
    assert stats.cache.writebacks == g * g
    assert stats.cache.bytes_writeback == g * g * 4 * 4 * 8


def test_peer_preference_bytes():
    g = 4
    tile = 4
    stats = grid_gemm_stats(3, g, tile)
    tile_bytes = tile * tile * 8
    # host traffic is exactly one crossing per distinct tile; everything else
    # a device lacks comes over peer links
    assert stats.cache.bytes_host == 2 * g * g * tile_bytes
    assert stats.cache.bytes_peer == stats.cache.l2_hits * tile_bytes


def test_accounting_identity_on_varied_runs():
    rng = np.random.default_rng(9)
    for _ in range(6):
        rows = int(rng.integers(4, 30))
        inner = int(rng.integers(4, 30))
        cols = int(rng.integers(4, 30))
        t = int(rng.integers(2, 9))
        n = int(rng.integers(1, 4))
        a, b = int_matrix(rng, rows, inner), int_matrix(rng, inner, cols)
        mode = "threaded" if rng.integers(0, 2) else "sim"
        cap = None if rng.integers(0, 2) else 4
        c, stats = run(homogeneous_machine(n, capacity_tiles=cap), a, b,
                       tile_size=t, mode=mode)
        assert np.array_equal(c, reference_gemm(a, b))
        assert stats.cache.input_requests == 2 * stats.total_tasks * stats.k_steps


# -- scheduling behaviour ------------------------------------------------------


def test_speedup_sim_one_vs_four_devices():
    rng = np.random.default_rng(10)
    tile = 8
    size = 16 * tile  # 16x16 task grid
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    mk = {}
    for n in (1, 4):
        _, stats = run(homogeneous_machine(n), a, b, tile_size=tile, mode="sim")
        mk[n] = stats.makespan
    assert mk[1] / mk[4] >= 3.6


def test_work_sharing_follows_throughput():
    rng = np.random.default_rng(11)
    tile = 4
    size = 20 * tile  # 400 tasks
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    flops = [250.0, 750.0]  # 1:3
    devs = [DeviceSpec(i, flops_per_unit=f, host_bandwidth=1e9) for i, f in enumerate(flops)]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=1e9))
    _, stats = run(m, a, b, tile_size=tile, mode="sim")
    total = stats.total_tasks
    for i, f in enumerate(flops):
        expected = total * f / sum(flops)
        assert abs(stats.devices[i].tasks_completed - expected) <= 0.10 * expected


def test_work_sharing_proportionality_homogeneous():
    rng = np.random.default_rng(12)
    tile = 4
    size = 16 * tile
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    _, stats = run(compute_bound_machine(4), a, b, tile_size=tile, mode="sim")
    mean = stats.total_tasks / 4
    for ds in stats.devices.values():
        assert abs(ds.tasks_completed - mean) <= 0.15 * mean


def test_steals_happen_and_are_legal():
    rng = np.random.default_rng(13)
    tile = 4
    size = 3 * tile  # 9 tasks
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    devs = [
        DeviceSpec(0, flops_per_unit=10.0, host_bandwidth=1e9),
        DeviceSpec(1, flops_per_unit=1000.0, host_bandwidth=1e9),
    ]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=1e9))
    c, stats = run(m, a, b, tile_size=tile, mode="sim")
    assert np.array_equal(c, reference_gemm(a, b))
    assert stats.devices[1].steals_performed > 0
    assert stats.devices[0].steals_suffered == stats.devices[1].steals_performed
    assert stats.devices[1].steals_performed == len(stats.steal_events)
    for ev in stats.steal_events:
        assert (ev.thief, ev.victim) == (1, 0)


def test_steal_disabled_means_no_steal_events():
    rng = np.random.default_rng(14)
    tile = 4
    size = 3 * tile
    a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
    devs = [
        DeviceSpec(0, flops_per_unit=10.0, host_bandwidth=1e9),
        DeviceSpec(1, flops_per_unit=1000.0, host_bandwidth=1e9),
    ]
    m = Machine(devs, ProximityMatrix.uniform(2, bandwidth=1e9))
    c, stats = run(m, a, b, tile_size=tile, mode="sim", steal=False)
    assert np.array_equal(c, reference_gemm(a, b))
    assert stats.steal_events == []


def test_makespan_monotone_in_identical_devices():
    rng = np.random.default_rng(15)
    for size, tile in ((16, 4), (20, 4)):
        a, b = int_matrix(rng, size, size), int_matrix(rng, size, size)
        last = None
        for n in (1, 2, 3, 4):
            _, stats = run(compute_bound_machine(n), a, b, tile_size=tile, mode="sim")
            if last is not None:
                assert stats.makespan <= last + 1e-9, f"{n} devices regressed"
            last = stats.makespan


@pytest.mark.usefixtures("directory_invariants")
def test_execute_task_and_double_execution_guard():
    rng = np.random.default_rng(16)
    a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
    machine = homogeneous_machine(1)
    p = plan(*operands(a, b), 4)
    directory = CacheDirectory(machine)
    stations = {0: ReservationStation(4)}

    def kernel(i, j):  # A's tile row i times B's tile column j
        accumulate_product(a[i * 4 : (i + 1) * 4], b[:, j * 4 : (j + 1) * 4],
                           p.c[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4])

    queue = fill_queue(_task_order(p))
    while (tid := _claim(0, stations, queue, steal_enabled=True)[0]) is not None:
        assert not p.completion.all_done()
        i, j, got, wb = _run_task(p, directory, 0, tid, kernel)
        assert (i, j) == divmod(tid, 2) and len(got) == 2 * p.k_steps
        assert wb == 4 * 4 * 8  # one float64 output tile
    assert p.completion.all_done()
    assert p.completion.ran_on == [0] * p.total_tasks
    assert np.array_equal(p.c, reference_gemm(a, b))
    # the completion record refuses a second execution of any task
    with pytest.raises(RuntimeError):
        p.completion.mark(0, 0)


@pytest.mark.usefixtures("directory_invariants")
def test_task_ids_outside_the_grid_are_rejected():
    # A task table indexed by id would wrap -1 round to the last task; the
    # task function refuses it before its kernel runs, the directory is
    # called or the task is marked.
    p = plan(*operands(np.ones((4, 4)), np.ones((4, 4))), 2)
    directory = CacheDirectory(homogeneous_machine(1))
    computed = []
    for tid in (-1, p.total_tasks):
        for kernel in (None, lambda i, j: computed.append((i, j))):
            with pytest.raises(ValueError, match="task id"):
                _run_task(p, directory, 0, tid, kernel)
    assert computed == []
    assert directory.stats() == CacheStats()
    assert p.completion.ran_on == [None] * p.total_tasks


def test_threaded_single_task_on_many_devices():
    rng = np.random.default_rng(21)
    a, b = int_matrix(rng, 4, 4), int_matrix(rng, 4, 4)
    for steal in (True, False):
        c, stats = run(homogeneous_machine(4), a, b, tile_size=4, mode="threaded",
                       steal=steal)
        assert np.array_equal(c, reference_gemm(a, b))
        assert sum(stats.tasks_by_device.values()) == stats.total_tasks == 1


def test_threaded_worker_failure_is_raised_and_workers_stop(monkeypatch):
    import tilerun.scheduler as scheduler

    kernel = scheduler.accumulate_product
    for fail_at in (1, 4, 9):
        calls = 0

        def flaky(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise ArithmeticError(f"injected fault at kernel call {fail_at}")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(scheduler, "accumulate_product", flaky)
        rng = np.random.default_rng(fail_at)
        a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
        with pytest.raises(ArithmeticError, match=f"call {fail_at}$"):
            run(homogeneous_machine(3), a, b, tile_size=4, mode="threaded")
        assert not [t for t in threading.enumerate() if t.name.startswith("device-")]


def _fail_at(real, n, counted=lambda *args: True):
    """``real`` wrapped to raise at its ``n``-th counted call."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if counted(*args) and next(calls) == n:
            raise ArithmeticError(f"injected fault at call {n}")
        return real(*args, **kwargs)

    return wrapper


# a sim kernel fault comes before any task: test_kernel_fault_leaves_model_untouched
@pytest.mark.parametrize("site,mode", [
    ("kernel", "threaded"),
    ("both-inputs-held", "sim"), ("both-inputs-held", "threaded"),
    ("a-held", "sim"), ("a-held", "threaded"),
])
@pytest.mark.usefixtures("directory_invariants")
def test_failed_task_leaves_no_pins_or_output_tile(monkeypatch, site, mode):
    import tilerun.scheduler as scheduler

    rng = np.random.default_rng(24)
    a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    # capacity 3 leaves room for exactly one step's A and B
    rt = Runtime(homogeneous_machine(2, capacity_tiles=3), tile_size=4, mode=mode)
    d = rt.directory
    done = []  # kernel calls that returned
    a_kept = []  # per admission of a B tile: (was the set full, is the step's A still there)
    if site == "kernel":
        kernel = _fail_at(scheduler.accumulate_product, 5)
        monkeypatch.setattr(scheduler, "accumulate_product",
                            lambda *a_, **kw: done.append(kernel(*a_, **kw)))
    elif site == "both-inputs-held":  # the task's transaction has returned
        acquire, calls = d.acquire_input, itertools.count(1)

        def acquire_then_fail(*args):
            got = acquire(*args)
            if next(calls) == 5:
                raise ArithmeticError("injected fault at call 5")
            return got

        monkeypatch.setattr(d, "acquire_input", acquire_then_fail)
    else:  # B's admission fails inside the task's transaction, after A's
        # The transaction is replayed one request per call, which resolves
        # exactly as the one call does, so the set can be looked at
        # between a step's A and its B.  Each replayed call counts a
        # writeback, of no bytes but for the last call's; the faulted
        # product's counters are not read.
        acquire, b_seen = d.acquire_input, itertools.count(1)

        def acquire_watching_a(dev, requests, writeback):
            got = []
            for a_req, b_req in zip(requests[::2], requests[1::2]):
                got += acquire(dev, [a_req], 0)
                if next(b_seen) == 5:
                    raise ArithmeticError("injected fault at call 5")
                full = len(d.residents(dev)) == 2  # capacity 3 has room for two inputs
                got += acquire(dev, [b_req], 0)
                a_kept.append((full, d.residents(dev)[-2:] == [a_req[0], b_req[0]]))
            return got + acquire(dev, [], writeback)

        monkeypatch.setattr(d, "acquire_input", acquire_watching_a)
    with pytest.raises(ArithmeticError, match="call 5$"):
        rt.multiply(a, b, a_uid="X", b_uid="W")
    monkeypatch.undo()
    if site == "a-held":
        assert len(a_kept) >= 4 and all(kept for _, kept in a_kept)
        assert any(full for full, _ in a_kept)  # B's admission had to evict
    assert not [t for t in threading.enumerate() if t.name.startswith("device-")]
    d.check_invariants()
    assert {k.matrix for dev in (0, 1) for k in d.residents(dev)} <= {"X", "W"}
    if site == "kernel":
        assert d.stats().writebacks == len(done)  # the failed task wrote nothing back
    x, y = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    c, stats = rt.multiply(x, y)
    assert np.array_equal(c, reference_gemm(x, y))
    assert stats.cache.writebacks == stats.total_tasks


def _first_row(block):
    """The row of the sim kernel's output array at which ``block``, that
    array or a block of its rows, starts."""
    whole = block if block.base is None else block.base
    offset = block.__array_interface__["data"][0] - whole.__array_interface__["data"][0]
    return offset // whole.strides[0]


def _force_split(mp, cpus):
    """Make every sim product split its kernel over ``cpus`` CPUs."""
    mp.setattr(tilerun.scheduler, "_SPLIT_FLOPS", 0)
    mp.setattr(tilerun.scheduler.os, "sched_getaffinity", lambda pid: set(range(cpus)),
               raising=False)


def _kernel_threads():
    return [t for t in threading.enumerate() if t.name.startswith("sim-kernel")]


# The threaded engine runs on one device, so that no other task runs
# beside the one whose kernel faults.  The split sim cases fault in the
# first of three row blocks, on the caller's thread, or in the last, on a
# helper thread.
@pytest.mark.parametrize("mode,n_devices,split_fault", [
    ("sim", 2, None), ("threaded", 1, None), ("sim", 2, 0), ("sim", 2, 8),
], ids=["sim", "threaded", "sim-split-first-block", "sim-split-last-block"])
@pytest.mark.usefixtures("directory_invariants")
def test_kernel_fault_leaves_model_untouched(monkeypatch, mode, n_devices, split_fault):
    # In either engine a task's kernel runs before its one directory call,
    # so a product whose first kernel call faults leaves the directory and
    # the clocks as they were.  A split sim product raises the failed
    # block's error once every block has ended.
    import tilerun.scheduler as scheduler

    rng = np.random.default_rng(26)
    rt = Runtime(homogeneous_machine(n_devices, capacity_tiles=3), tile_size=4, mode=mode)
    d = rt.directory
    x, y = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    rt.multiply(x, y)  # a product before, so that there is a model to keep
    clocks, stats = [list(c) for c in rt.clocks.values()], d.stats()
    residents = [d.residents(dev) for dev in range(n_devices)]

    def counted(a_, b_, c_):  # the call that faults: the first, or the split's at that row
        return split_fault is None or _first_row(c_) == split_fault

    if split_fault is not None:
        _force_split(monkeypatch, 3)  # 12 rows: blocks at rows 0, 4 and 8
    monkeypatch.setattr(scheduler, "accumulate_product",
                        _fail_at(scheduler.accumulate_product, 1, counted))
    a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    with pytest.raises(ArithmeticError, match="call 1$"):
        rt.multiply(a, b, a_uid="X", b_uid="W")
    monkeypatch.undo()
    assert not _kernel_threads()
    d.check_invariants()
    assert [d.residents(dev) for dev in range(n_devices)] == residents
    assert not [k for dev in range(n_devices) for k in d.residents(dev)
                if k.matrix in ("X", "W")]
    assert [list(c) for c in rt.clocks.values()] == clocks
    assert d.stats() == stats
    c, after = rt.multiply(a, b)
    assert np.array_equal(c, reference_gemm(a, b))
    assert after.cache.writebacks == after.total_tasks


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_kernel_calls_per_engine(monkeypatch, mode):
    import tilerun.scheduler as scheduler

    log = []  # the names of the kernel calls and claims, in call order

    def logged(name):
        real = getattr(scheduler, name)

        def wrapper(*args, **kwargs):
            log.append(name)
            return real(*args, **kwargs)

        return wrapper

    claim = "_sim_claim" if mode == "sim" else "_claim"  # each engine's claim point
    for name in ("accumulate_product", claim):
        monkeypatch.setattr(scheduler, name, logged(name))
    rng = np.random.default_rng(27)
    a, b = int_matrix(rng, 10, 7), int_matrix(rng, 7, 9)  # ragged: 3x3 tasks
    rt = Runtime(homogeneous_machine(2), tile_size=4, mode=mode)
    for _ in range(2):
        log.clear()
        c, stats = rt.multiply(a, b)
        assert np.array_equal(c, reference_gemm(a, b))
        assert stats.total_tasks == 9
        if mode == "sim":  # the whole product, before the first claim
            assert log.count("accumulate_product") == 1 and log[0] == "accumulate_product"
            assert log.count(claim) == 9
        else:  # one per task
            assert log.count("accumulate_product") == 9


@settings(max_examples=60, deadline=None)
@given(machine=claim_machines(), steal=st.booleans(), tile=st.integers(1, 4),
       parts=st.integers(2, 5), m=st.integers(1, 9), n=st.integers(1, 9),
       k=st.one_of(st.integers(1, 2), st.integers(3, 40)),  # the rank-1 and chunked paths
       transposed=st.tuples(st.booleans(), st.booleans()),
       dtypes=st.tuples(*[st.sampled_from([np.float32, np.float64])] * 2),
       seed=st.integers(0, 2**16))
def test_split_sim_kernel_is_bit_identical(machine, steal, tile, parts, m, n, k, transposed,
                                           dtypes, seed):
    # A sim product forced to split over `parts` CPUs computes its output
    # in disjoint row blocks that cover every row, the first on the calling
    # thread, all of them done before the first claim, and its bits and
    # its every RunStats fact equal an unsplit product's.  A helper thread
    # sleeps before its block, so a block that ended after a claim shows.
    rng = np.random.default_rng(seed)
    shapes = [(k, m) if transposed[0] else (m, k), (n, k) if transposed[1] else (k, n)]
    a, b = (rng.standard_normal(shape).astype(dt) for shape, dt in zip(shapes, dtypes))
    expected = reference_gemm(a.T if transposed[0] else a, b.T if transposed[1] else b)
    log = []  # ("kernel", first row, rows, on the calling thread) or ("claim",)
    real_kernel, real_claim = tilerun.scheduler.accumulate_product, tilerun.scheduler._sim_claim

    def kernel(a_, b_, c_):
        caller = threading.current_thread() is threading.main_thread()
        if not caller:
            time.sleep(0.002)
        real_kernel(a_, b_, c_)
        log.append(("kernel", _first_row(c_), len(c_), caller))

    def session_stats(split):
        rt = Runtime(machine, tile_size=tile, steal=steal)
        runs = []
        with pytest.MonkeyPatch.context() as mp:
            if split:
                _force_split(mp, parts)
                mp.setattr(tilerun.scheduler, "accumulate_product", kernel)
                mp.setattr(tilerun.scheduler, "_sim_claim",
                           lambda *args: log.append(("claim",)) or real_claim(*args))
            for _ in range(2):  # the second product meets the first one's tiles
                log.clear()
                c, stats = rt.multiply(a, b, *transposed)
                assert c.dtype == expected.dtype and c.tobytes() == expected.tobytes()
                if split:
                    calls = [entry for entry in log if entry[0] == "kernel"]
                    assert log[:len(calls)] == calls  # every block before the first claim
                    blocks = sorted((row, row + rows) for _, row, rows, _ in calls)
                    assert len(blocks) == len(_block_ranges(m, min(parts, m)))
                    assert [r0 for r0, _ in blocks] == [0] + [r1 for _, r1 in blocks[:-1]]
                    assert blocks[-1][1] == m
                    assert [caller for _, row, _, caller in calls if row == 0] == [True]
                runs.append(replace(stats, wall_elapsed=0.0))
        assert not _kernel_threads()
        return runs

    unsplit = session_stats(False)
    split = session_stats(True)
    assert split == unsplit
    assert [s.devices for s in split] == [s.devices for s in unsplit]


def test_small_sim_products_start_no_thread(monkeypatch):
    # An XOR [2, 8, 1] training step and a 96x96 product on tile 4 (the
    # benchmark's eviction workload) are below the split threshold: their
    # kernels run on the calling thread, however many CPUs there are.
    def refuse(*args, **kwargs):
        raise AssertionError("a small sim product started a thread")

    monkeypatch.setattr(tilerun.scheduler.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(tilerun.scheduler.threading, "Thread", refuse)
    rng = np.random.default_rng(39)
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    train_step(net, *xor_dataset(), 0.5, TiledBackend(homogeneous_machine(2), tile_size=2))
    hosts = [DeviceSpec(i, capacity_tiles=52, flops_per_unit=f, host_bandwidth=512.0)
             for i, f in enumerate((250.0, 500.0, 750.0))]
    machine = Machine(hosts + [DeviceSpec(3, kind="host-worker", flops_per_unit=200.0,
                                          subtile_factor=2)], ProximityMatrix.uniform(4))
    a, b = rng.random((96, 96)), rng.random((96, 96))
    c, _ = run(machine, a, b, tile_size=4)
    assert np.array_equal(c, reference_gemm(a, b))


def test_a_256_cube_sim_product_splits(monkeypatch):
    # At the benchmark's CLI size, 256x256 times 256x256, the sim kernel
    # splits into one row block per CPU.
    rows = []
    real = tilerun.scheduler.accumulate_product
    monkeypatch.setattr(tilerun.scheduler.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(tilerun.scheduler, "accumulate_product",
                        lambda a_, b_, c_: rows.append(_first_row(c_)) or real(a_, b_, c_))
    rng = np.random.default_rng(40)
    a, b = rng.random((256, 256)), rng.random((256, 256))
    c, _ = run(homogeneous_machine(4), a, b, tile_size=16)
    assert np.array_equal(c, reference_gemm(a, b))
    assert sorted(rows) == [0, 128]


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_one_directory_transaction_per_task(monkeypatch, mode):
    import tilerun.scheduler as scheduler

    # each call's arguments after the device
    calls = {name: [] for name in ("acquire_input", "release_input", "admit_output",
                                   "release_output")}
    priced = []  # the pricing calls, as (name, device, what is priced)

    def counted(name):
        real, seen = getattr(CacheDirectory, name), calls[name]

        def wrapper(self, device, *args):
            seen.append(args)
            return real(self, device, *args)

        return wrapper

    def transfer_logged(machine, src, dst, nbytes):
        priced.append(("transfer_cost", dst, (src, nbytes)))
        return transfer_cost(machine, src, dst, nbytes)

    def compute_logged(dev, a_shape, b_shape):
        priced.append(("compute_cost", dev.device_id, (a_shape, b_shape)))
        return compute_cost(dev, a_shape, b_shape)

    for name in calls:
        monkeypatch.setattr(CacheDirectory, name, counted(name))
    monkeypatch.setattr(scheduler, "transfer_cost", transfer_logged)
    monkeypatch.setattr(scheduler, "compute_cost", compute_logged)
    rng = np.random.default_rng(25)
    a, b = int_matrix(rng, 10, 7), int_matrix(rng, 7, 9)  # ragged: 3x3 tasks, 2 steps
    for n_devices in (2, 1):
        rt = Runtime(homogeneous_machine(n_devices), tile_size=4, mode=mode)
        session = Counter()
        for product in (1, 2):  # the same product twice, same uids
            for seen in calls.values():
                seen.clear()
            priced.clear()
            c, stats = rt.multiply(a, b, a_uid="A", b_uid="B")
            assert np.array_equal(c, reference_gemm(a, b))
            assert (stats.total_tasks, stats.k_steps) == (9, 2)
            # in either engine, each task's one call: a flat acquire of A
            # and B for each step in turn, given the task's writeback bytes
            # (ragged 4, 4, 2 rows by 4, 4, 1 columns of 8-byte elements),
            # and no other directory call
            tasks = sorted(([k for k, _ in requests], *rest)
                           for requests, *rest in calls["acquire_input"])
            assert tasks == [([TileKey("A", i, 0), TileKey("B", 0, j), TileKey("A", i, 1),
                               TileKey("B", 1, j)], 8 * m * n)
                             for i, m in enumerate((4, 4, 2)) for j, n in enumerate((4, 4, 1))]
            assert calls["release_input"] == calls["admit_output"] == \
                calls["release_output"] == []
            if mode == "threaded":  # the threaded engine keeps no clocks: it prices nothing
                assert priced == []
                continue
            # a device prices each (source, bytes) and each pair of shapes
            # once per session: its tables keep every price they are asked
            session.update(priced)
            assert max(session.values()) == 1, product
            if product == 1:
                assert {name for name, *_ in priced} == {"transfer_cost", "compute_cost"}
            elif n_devices == 1:
                # all L1 hits, the same shapes and the same writebacks: no
                # price is new.  (On two devices, a task may land on the
                # other device this time and meet prices new to it.)
                assert priced == []


@pytest.mark.parametrize("device", [
    DeviceSpec(0, capacity_tiles=4),
    DeviceSpec(0),
    DeviceSpec(0, kind="host-worker", subtile_factor=2),
], ids=["bounded", "unbounded", "host-worker"])
def test_one_device_session_has_the_same_facts_in_both_engines(device):
    # On one device both engines claim the tasks in task-id order, and in
    # both a task makes its one directory call after its kernel, so a
    # session's facts do not depend on the engine: per product, the output
    # bits, the per-device cache counts, the device each task ran on and
    # the device's residents.  The session reads operands straight and
    # transposed, shares uids between products and between the two
    # operands of one product, and retires uids between products.
    machine = Machine([device], ProximityMatrix.uniform(1))
    rng = np.random.default_rng(31)
    w, x, y = (rng.standard_normal(shape) for shape in ((9, 7), (7, 6), (9, 6)))
    # (a, b, transpose_a, transpose_b, a_uid, b_uid, uids retired after)
    session = [
        (w, x, False, False, "W", "X", ()),
        (w, y, True, False, "W", "Y", ()),  # W's tiles, read transposed
        (w, w, False, True, "W", "W", ("W",)),  # one uid for both operands
        (y, w, True, False, "Y", "W", ()),  # W's tiles, met afresh
        (x, w, True, True, "X", "W", ("X", "Y")),
        (w, x, False, False, "W", "X", ()),
    ]
    runtimes = [Runtime(machine, tile_size=4, mode=mode) for mode in ("sim", "threaded")]
    total = CacheStats()
    for a, b, ta, tb, a_uid, b_uid, dead in session:
        facts = []
        for rt in runtimes:
            c, stats = rt.multiply(a, b, ta, tb, a_uid=a_uid, b_uid=b_uid)
            facts.append((c.tobytes(), stats.cache_per_device, stats.ran_on,
                          rt.directory.residents(0)))
            rt.retire(dead)
        assert facts[0] == facts[1]
        total += stats.cache
    # the session met what each device kind has to meet
    if device.is_host_worker:
        assert total.writebacks == 0 and total.input_requests == total.host_fetches
    else:
        assert total.l1_hits > 0 and total.writebacks > 0
        assert (total.evictions > 0) == (device.capacity_tiles is not None)


@st.composite
def priced_machines(draw):
    """1-4 accelerators, or 1-3 and a host worker, with unequal flops and
    bandwidths, a latency > 0, bounded capacities >= 3 and a symmetric
    hop matrix of 1s and 2s, so hop ties are common."""
    n = draw(st.integers(1, 4))
    host_worker = n > 1 and draw(st.booleans())
    speed = st.floats(10.0, 5000.0)
    devs = [DeviceSpec(i, capacity_tiles=draw(st.integers(3, 8)), flops_per_unit=draw(speed),
                       host_bandwidth=draw(speed))
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
                   transfer_latency=draw(st.floats(0.01, 5.0)))


@settings(max_examples=60, deadline=None)
@given(machine=st.one_of(priced_machines(), claim_machines()), tile=st.integers(2, 4),
       shapes=st.lists(st.tuples(*[st.integers(1, 9)] * 3, st.booleans(), st.booleans()),
                       min_size=2, max_size=3))
def test_sim_clocks_equal_a_direct_replay(machine, tile, shapes):
    # A session of 2-3 ragged products back to back, each operand read
    # straight or transposed, on a machine with bounded or unbounded
    # caches and station widths of 1-4.  Each task's device, claim time,
    # requests, directory results and writeback bytes are recorded through
    # its one directory call, its first step's keys name its output tile,
    # and the product's steal events name the stolen tasks; the [compute,
    # fetch, writeback] clocks are then refolded here with the cost
    # functions called directly, and must match the session's to the bit.
    # The claim time is read from the session's compute clock as the
    # task's directory call is made.  A step's compute is priced on the
    # stored tiles its requests name, as the product reads them:
    # transposed for a transposed operand.  After each product every
    # device's writeback clock is its latest, which is what lets multiply
    # read the session's clocks once per product.
    rt = Runtime(machine, tile_size=tile)
    d = rt.directory
    # [device, claim time, requests, results, writeback bytes], in claim order
    tasks = []
    real_acquire = d.acquire_input

    def acquire(device, requests, nbytes):
        # the task's whole transaction: its writeback bytes come with its requests
        results = real_acquire(device, requests, nbytes)
        tasks.append([device, rt.clocks[device][0], requests, results, nbytes])
        return results

    def unused(*args):
        raise AssertionError("a sim task makes one directory call")

    d.admit_output = d.release_output = unused
    d.acquire_input = acquire
    rng = np.random.default_rng(0)
    # operands stored in the same shape share a uid, so products reuse
    # tiles, whether they read them straight or transposed
    arrays = {}

    def operand(name, rows, cols, transposed):
        """A ``rows x cols`` operand as read, and the uid of its stored array."""
        shape = (cols, rows) if transposed else (rows, cols)
        uid = f"{name}{shape[0]}x{shape[1]}"
        if uid not in arrays:
            arrays[uid] = int_matrix(rng, *shape)
        return arrays[uid], uid

    def read_shape(key, transposed):
        rows, cols = arrays[key.matrix].shape
        shape = min(tile, rows - key.row * tile), min(tile, cols - key.col * tile)
        return shape[::-1] if transposed else shape

    clocks = {dev.device_id: [0.0, 0.0, 0.0] for dev in machine.devices}
    for m, k, n, ta, tb in shapes:
        (a, a_uid), (b, b_uid) = operand("A", m, k, ta), operand("B", k, n, tb)
        tasks.clear()
        c, stats = rt.multiply(a, b, ta, tb, a_uid=a_uid, b_uid=b_uid)
        assert np.array_equal(c, reference_gemm(a.T if ta else a, b.T if tb else b))
        assert len(tasks) == stats.total_tasks
        steals = {(ev.thief, ev.task_id): ev.time for ev in stats.steal_events}
        before = max(max(cl) for cl in clocks.values())
        previous = {}  # each device's previous claim time in this product
        last_claim = -1.0
        for did, t, requests, results, wb in tasks:
            dev = machine.device(did)
            co, tr, wr = clocks[did]
            # a device claims when its compute clock is the earliest, so
            # claims come in time order
            assert t == co and t >= last_claim
            last_claim = t
            # output tile (i, j) reads A's tile row i and B's tile column j,
            # whose stored coordinates a transposed operand swaps
            (a0, _), (b0, _) = requests[:2]
            i, j = a0.col if ta else a0.row, b0.row if tb else b0.col
            steal_time = steals.pop((did, i * stats.grid_cols + j), None)
            assert steal_time in (None, t)  # a steal happens at its claim
            # the first fetch starts at or after the lead: the device's
            # previous claim in the product for a task from its own station,
            # one task ahead; its own claim for a stolen task or its first
            lead = previous[did] if steal_time is None and did in previous else t
            assert lead <= t
            tr = max(tr, lead)
            assert tr >= lead
            previous[did] = t
            for s in range(0, len(results), 2):
                ra, rb = results[s], results[s + 1]
                tr += (transfer_cost(machine, ra.source, did, ra.nbytes_moved)
                       + transfer_cost(machine, rb.source, did, rb.nbytes_moved))
                co = max(co, tr) + compute_cost(dev, read_shape(requests[s][0], ta),
                                                read_shape(requests[s + 1][0], tb))
            wr = max(wr, co) + transfer_cost(machine, did, HOST, wb)
            clocks[did] = [co, tr, wr]
        assert not steals  # every steal event names a recorded task
        assert stats.makespan == max(max(cl) for cl in clocks.values()) - before
        assert rt.clocks == clocks
        assert all(wr == max(co, tr, wr) for co, tr, wr in clocks.values())


@settings(max_examples=60, deadline=None)
@given(machine=priced_machines(), tile=st.integers(2, 4),
       shape=st.tuples(*[st.integers(1, 12)] * 3))
def test_sim_makespan_at_least_the_area_bound(machine, tile, shape):
    # Each device's computes run one after another, so no schedule beats
    # all 2mkn flops spread over the summed throughput.  A clock fold that
    # let one device's computes overlap would fall below it.
    m, k, n = shape
    rng = np.random.default_rng(0)
    a, b = int_matrix(rng, m, k), int_matrix(rng, k, n)
    c, stats = run(machine, a, b, tile_size=tile)
    assert np.array_equal(c, reference_gemm(a, b))
    assert stats.makespan >= 2 * m * k * n / sum(d.flops_per_unit for d in machine.devices)


@pytest.mark.parametrize("mode", ["sim", "threaded"])
@settings(max_examples=25, deadline=None)
@given(machine=claim_machines(), coherence=st.booleans(), tile=st.integers(1, 3),
       products=st.lists(st.tuples(*[st.integers(1, 7)] * 3, st.booleans(), st.booleans()),
                         min_size=2, max_size=4))
def test_session_counts_are_its_products_folded_in(mode, machine, coherence, tile, products):
    # Closing a product adds its counts into the session's counters in
    # place.  Over a session of ragged products, whose operands stored in
    # the same shape share a uid so that later products hit, the session's
    # per-device counts after every product equal the sum of the counts
    # every returned RunStats holds, and those stay as they were when
    # their multiply returned.
    rng = np.random.default_rng(0)
    rt = Runtime(machine, tile_size=tile, mode=mode, coherence=coherence)
    stored = {}

    def read_as(rows, cols, transposed):
        """The stored matrix read as ``rows x cols``, and its uid."""
        shape = (cols, rows) if transposed else (rows, cols)
        if shape not in stored:
            stored[shape] = int_matrix(rng, *shape)
        return stored[shape], f"M{shape}"

    returned = []  # (stats, a copy of its counts as returned)
    for m, k, n, ta, tb in products:
        (a, a_uid), (b, b_uid) = read_as(m, k, ta), read_as(k, n, tb)
        _, stats = rt.multiply(a, b, ta, tb, a_uid=a_uid, b_uid=b_uid)
        returned.append((stats, {d: cs.copy() for d, cs in stats.cache_per_device.items()}))
        total = {d.device_id: CacheStats() for d in machine.devices}
        for kept_stats, kept in returned:
            assert kept_stats.cache_per_device == kept
            for d, cs in kept.items():
                total[d] = total[d] + cs
        assert rt.directory.stats_per_device() == total
        assert rt.directory.stats() == sum(total.values(), CacheStats())


@pytest.mark.parametrize("capacity", [None, 3, 5])
@pytest.mark.parametrize("mode", ["sim", "threaded"])
@pytest.mark.usefixtures("directory_invariants")
def test_output_uid_may_name_any_operand(mode, capacity):
    # A session multiplies X·Y, then P·Q.  An output tile never reaches the
    # directory by name, so naming any one operand "C", as if it were an
    # output, changes nothing but that name.
    # Threaded task placement races on more than one device, so that
    # engine runs on one.
    rng = np.random.default_rng(28)
    x, y, p, q = (int_matrix(rng, 12, 12) for _ in range(4))

    def session(uids):
        rt = Runtime(homogeneous_machine(2 if mode == "sim" else 1, capacity_tiles=capacity),
                     tile_size=4, mode=mode)
        rt.multiply(x, y, a_uid=uids[0], b_uid=uids[1])
        c, stats = rt.multiply(p, q, a_uid=uids[2], b_uid=uids[3])
        assert np.array_equal(c, reference_gemm(p, q))
        n = len(rt.machine.devices)
        # residents by the operand's position, whatever its name
        return (stats.cache_per_device, stats.makespan, stats.tasks_by_device,
                [[(uids.index(k.matrix), k.row, k.col) for k in rt.directory.residents(dev)]
                 for dev in range(n)])

    named = ["X", "Y", "P", "Q"]
    fresh = session(named)
    for at in range(4):
        uids = named[:at] + ["C"] + named[at + 1 :]
        assert session(uids) == fresh, uids


# -- session reuse and reports -------------------------------------------------


def test_runtime_session_reuses_cached_tiles():
    rng = np.random.default_rng(17)
    a, b = int_matrix(rng, 16, 16), int_matrix(rng, 16, 16)
    rt = Runtime(homogeneous_machine(1), tile_size=4)
    _, s1 = rt.multiply(a, b, a_uid="X", b_uid="W")
    clocks = {d: list(c) for d, c in rt.clocks.items()}
    # same operands, same uids: everything is already resident
    _, s2 = rt.multiply(a, b, a_uid="X", b_uid="W")
    # the device clocks carry over and never move backwards
    assert s2.makespan > 0
    assert all(new >= old for d in clocks for new, old in zip(rt.clocks[d], clocks[d]))
    assert s1.cache.host_fetches == 2 * 16
    assert s2.cache.host_fetches == 0
    assert s2.cache.l1_hits == s2.cache.input_requests


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_multiply_returns_a_fresh_output_array_the_caller_owns(mode):
    # multiply returns the array plan() zeroed for the call, not a copy of
    # it: exact, C-contiguous, sharing memory with no operand and no other
    # result, and writing into it changes no later product of the session.
    rng = np.random.default_rng(29)
    x, xt = int_matrix(rng, 10, 7), int_matrix(rng, 7, 10)  # ragged for tile 4
    w, wt = int_matrix(rng, 7, 9), int_matrix(rng, 9, 7)
    products = [((x, "X"), (w, "W"), False, False), ((xt, "XT"), (w, "W"), True, False),
                ((x, "X"), (wt, "WT"), False, True), ((xt, "XT"), (wt, "WT"), True, True)]
    rt = Runtime(homogeneous_machine(2), tile_size=4, mode=mode)
    results, first = [], []
    for session_pass in range(2):
        for (a, a_uid), (b, b_uid), ta, tb in products:
            c, _ = rt.multiply(a, b, transpose_a=ta, transpose_b=tb, a_uid=a_uid, b_uid=b_uid)
            want = reference_gemm(a.T if ta else a, b.T if tb else b)
            assert c.dtype == want.dtype and c.shape == want.shape
            assert c.tobytes() == want.tobytes()
            assert c.flags.c_contiguous
            assert not any(np.shares_memory(c, other) for other in (x, xt, w, wt, *results))
            results.append(c)
            if session_pass == 0:
                first.append(c.tobytes())
                c[...] = np.nan  # the caller's array: the session must not read it
    assert [c.tobytes() for c in results[len(products):]] == first


def test_runtime_transpose_views_share_tile_identity():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((12, 8))
    w = rng.standard_normal((8, 8))
    y = rng.standard_normal((12, 8))
    rt = Runtime(homogeneous_machine(1), tile_size=4)
    rt.multiply(x, w, a_uid="X", b_uid="W")  # caches X tiles read straight
    before = rt.directory.stats()
    c, _ = rt.multiply(x, y, transpose_a=True, a_uid="X", b_uid="Y2")
    after = rt.directory.stats()
    assert np.array_equal(c, reference_gemm(x.T, y))
    # only Y2's tiles were fetched from host; X's came back from cache even
    # though this pass read them transposed
    assert after.host_fetches - before.host_fetches == 3 * 2  # Y2: a 3x2 tile grid


def test_report_json_schema_and_identity(tmp_path):
    rng = np.random.default_rng(19)
    a, b = int_matrix(rng, 12, 12), int_matrix(rng, 12, 12)
    with_host = Machine(
        [DeviceSpec(0, capacity_tiles=3), DeviceSpec(1, capacity_tiles=4),
         DeviceSpec(2, kind="host-worker", subtile_factor=2)],
        ProximityMatrix.uniform(3, bandwidth=4.0),
    )
    cases = [(homogeneous_machine(2), "sim"), (homogeneous_machine(2), "threaded"),
             (with_host, "sim")]
    for machine, mode in cases:
        rt = Runtime(machine, tile_size=4, mode=mode)
        _, stats = rt.multiply(a, b)
        path = tmp_path / "report.json"
        write_report_json(stats, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 2
        for k in ("mode", "tile_size", "grid", "total_tasks", "makespan",
                  "wall_elapsed", "devices", "cache"):
            assert k in doc
        cache = doc["cache"]
        total_requests = cache["l1_hits"] + cache["l2_hits"] + cache["host_fetches"]
        assert total_requests == 2 * doc["total_tasks"] * doc["grid"]["k_steps"]
        assert len(doc["devices"]) == machine.n_devices
        per_dev = cache.pop("per_device")
        assert len(per_dev) == machine.n_devices
        for k, v in cache.items():
            assert v == sum(d[k] for d in per_dev.values()), k
        per_session = rt.directory.stats_per_device()
        assert rt.directory.stats() == sum(per_session.values(), CacheStats())
    assert cache["evictions"] > 0 and stats.tasks_by_device[2] > 0


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_per_call_stats_add_up_to_the_session(mode):
    # Over a session of mixed products on a machine with a host worker and
    # bounded caches: the per-call cache deltas sum to the directory's
    # session counters, each call's total is the sum of its devices, and
    # the device counts match the Counter formula kept here as the oracle,
    # applied to the facts the stats keep: which device ran each task, and
    # the steal events.
    machine = Machine(
        [DeviceSpec(0, capacity_tiles=3, flops_per_unit=10.0),
         DeviceSpec(1, capacity_tiles=5, flops_per_unit=1000.0),
         DeviceSpec(2, kind="host-worker", subtile_factor=2)],
        ProximityMatrix.uniform(3, bandwidth=4.0),
    )
    rng = np.random.default_rng(30)
    x, w, y = int_matrix(rng, 12, 10), int_matrix(rng, 10, 9), int_matrix(rng, 12, 5)
    rt = Runtime(machine, tile_size=4, mode=mode)
    total = {d.device_id: CacheStats() for d in machine.devices}
    stolen = []
    for a, b, ta, tb in [(x, w, False, False), (x, y, True, False), (y, x, True, False),
                         (w, w, False, True), (x, w, False, False)]:
        _, stats = rt.multiply(a, b, transpose_a=ta, transpose_b=tb)
        cache = CacheStats()
        for d, cs in stats.cache_per_device.items():
            total[d] = total[d] + cs
            cache = cache + cs
        assert stats.cache == cache
        assert len(stats.ran_on) == stats.total_tasks and None not in stats.ran_on
        tasks = Counter(stats.ran_on)
        performed = Counter(ev.thief for ev in stats.steal_events)
        suffered = Counter(ev.victim for ev in stats.steal_events)
        assert stats.tasks_by_device == {d.device_id: tasks[d.device_id]
                                         for d in machine.devices}
        assert stats.devices == {
            d.device_id: DeviceStats(d.device_id, d.kind, tasks[d.device_id],
                                     performed[d.device_id], suffered[d.device_id])
            for d in machine.devices}
        stolen += stats.steal_events
    assert total == rt.directory.stats_per_device()
    if mode == "sim":  # threaded placement and steals depend on thread timing
        assert total[0].evictions > 0 and total[2].host_fetches > 0
        assert stolen


def stats_machine():
    """Bounded, unequal accelerators and a host worker."""
    return Machine(
        [DeviceSpec(0, capacity_tiles=3, flops_per_unit=10.0),
         DeviceSpec(1, capacity_tiles=5, flops_per_unit=1000.0),
         DeviceSpec(2, kind="host-worker", subtile_factor=2)],
        ProximityMatrix.uniform(3, bandwidth=4.0),
    )


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_each_products_counts_equal_a_session_diff_around_it(mode):
    # The directory counts a product's traffic as the product runs; the
    # counts must equal what a snapshot of the session counters taken
    # before and after the call gives.
    rng = np.random.default_rng(34)
    x, w, y = int_matrix(rng, 12, 10), int_matrix(rng, 10, 9), int_matrix(rng, 12, 5)
    rt = Runtime(stats_machine(), tile_size=4, mode=mode)
    for a, b, ta, tb in [(x, w, False, False), (x, y, True, False), (w, w, False, True),
                         (x, w, False, False)]:
        before = rt.directory.stats_per_device()
        _, stats = rt.multiply(a, b, transpose_a=ta, transpose_b=tb)
        after = rt.directory.stats_per_device()
        assert stats.cache_per_device == {d: after[d] - before[d] for d in after}
        assert stats.cache.input_requests == 2 * stats.total_tasks * stats.k_steps


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_a_returned_products_counts_do_not_move(mode):
    # A RunStats is a record of its product: later products, and requests
    # and writebacks sent to the directory directly, leave its counts as
    # they were when multiply returned.
    rng = np.random.default_rng(35)
    x, w = int_matrix(rng, 12, 10), int_matrix(rng, 10, 9)
    rt = Runtime(stats_machine(), tile_size=4, mode=mode)
    _, first = rt.multiply(x, w, a_uid="X", b_uid="W")
    kept = {d: CacheStats(**cs.as_dict()) for d, cs in first.cache_per_device.items()}
    assert sum(kept.values(), CacheStats()).input_requests > 0
    rt.multiply(x, w, a_uid="X", b_uid="W")
    rt.multiply(w.T, x.T, a_uid="WT", b_uid="XT")
    d = rt.directory
    for device in (0, 1, 2):
        d.acquire_input(device, [(TileKey("X", 0, 0), 128), (TileKey("Z", 0, 0), 128)], 128)
    assert first.cache_per_device == kept
    assert first.cache == sum(kept.values(), CacheStats())


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_multiply_reports_a_task_no_device_could_claim(monkeypatch, mode):
    # Every task is handed out before a run, so multiply's "run incomplete"
    # guard cannot fire by construction; leaving one task out of the
    # engine's queue reaches it.  The sim claims with stealing on, so its
    # devices retire with every station empty and the task still unrun.
    real_order = tilerun.scheduler._task_order
    monkeypatch.setattr(tilerun.scheduler, "_task_order",
                        lambda p: [tid for tid in real_order(p) if tid != 4])
    rt = Runtime(homogeneous_machine(2), tile_size=2, mode=mode)
    with pytest.raises(RuntimeError, match=r"^run incomplete: 1 of 9 tasks not run$"):
        rt.multiply(np.ones((6, 4)), np.ones((4, 6)))


@pytest.mark.parametrize("mode", ["sim", "threaded"])
def test_a_product_wraps_no_matrix(monkeypatch, mode):
    # A plan holds plain arrays: no TiledMatrix is built by a product,
    # whichever engine runs it, straight or transposed.
    def refuse(*args, **kwargs):
        raise AssertionError("a product built a TiledMatrix")

    monkeypatch.setattr(TiledMatrix, "__init__", refuse)
    rng = np.random.default_rng(31)
    x, w = int_matrix(rng, 10, 7), int_matrix(rng, 9, 7)
    rt = Runtime(homogeneous_machine(2), tile_size=4, mode=mode)
    for _ in range(2):
        c, stats = rt.multiply(x, w, transpose_b=True, a_uid="X", b_uid="W")
        assert np.array_equal(c, reference_gemm(x, w.T))
        assert sum(stats.tasks_by_device.values()) == stats.total_tasks == 9


def test_stats_of_same_shaped_products_share_the_session_template():
    # A RunStats keeps the session's machine and its shape's template, not
    # copies of them: products of one shape share one template object.
    rng = np.random.default_rng(32)
    rt = Runtime(homogeneous_machine(2), tile_size=4)
    x, y = int_matrix(rng, 10, 7), int_matrix(rng, 7, 9)
    _, s1 = rt.multiply(x, y)
    _, s2 = rt.multiply(x + 1, y - 1)
    _, other = rt.multiply(y.T, x.T)
    assert s1.template is s2.template
    assert any(t is s1.template for t in rt.templates.values())
    assert other.template is not s1.template
    assert s1.machine is s2.machine is rt.machine
    assert (s1.tile_size, s1.grid_rows, s1.grid_cols, s1.k_steps) == (4, 3, 3, 2)
    assert all(name not in repr(s1) for name in ("machine", "template", "ran_on"))


def test_run_stats_compare_and_keep_their_derived_counts():
    # Stats of two sessions compare without raising: the machine, whose
    # proximity arrays numpy will not compare with ==, takes no part.  The
    # derived counts are derived once per record, so an in-place edit of
    # stats.cache or stats.devices reaches every later read.
    rng = np.random.default_rng(33)
    x, y = int_matrix(rng, 10, 7), int_matrix(rng, 7, 9)
    _, s1 = Runtime(homogeneous_machine(2), tile_size=4).multiply(x, y)
    _, s2 = Runtime(homogeneous_machine(2), tile_size=4).multiply(x, y)
    assert s1.machine is not s2.machine
    assert replace(s2, wall_elapsed=s1.wall_elapsed) == s1
    assert replace(s2, steal_events=[StealEvent(0, 1, 0)]) != s1
    hits = s1.cache.l1_hits
    s1.cache.l1_hits += 1
    s1.devices[0].tasks_completed += 1
    assert s1.cache.l1_hits == hits + 1
    assert s1.to_report_dict()["cache"]["l1_hits"] == hits + 1
    assert s1.tasks_by_device[0] == s1.ran_on.count(0) + 1


def test_report_csv_row_count(tmp_path):
    rng = np.random.default_rng(20)
    a, b = int_matrix(rng, 8, 8), int_matrix(rng, 8, 8)
    _, stats = run(homogeneous_machine(3), a, b, tile_size=4)
    path = tmp_path / "report.csv"
    write_report_csv(stats, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 + 1  # header + one row per device + summary
    assert lines[-1].startswith("total,")


def test_runtime_rejects_bad_configuration():
    with pytest.raises(ValueError):
        Runtime(homogeneous_machine(1), tile_size=0)
    with pytest.raises(ValueError):
        Runtime(homogeneous_machine(1), tile_size=4, mode="warp")


@pytest.mark.parametrize("tile_size", [2.5, True, np.float64(2.0), np.int64(2)],
                         ids=["float", "bool", "np-float64", "np-int64"])
def test_tile_size_must_be_an_integer(tile_size):
    # A grid sized by 2.5 but sliced by int(2.5) covered 4 of 5 rows, and
    # True passed as 1; any integer, numpy's included, is accepted as the
    # Python int it equals.
    a = np.arange(25, dtype=np.float64).reshape(5, 5)
    if not isinstance(tile_size, np.integer):
        for build in (lambda: partition(a, tile_size),
                      lambda: Runtime(homogeneous_machine(1), tile_size=tile_size),
                      lambda: run(homogeneous_machine(1), a, a, tile_size=tile_size)):
            with pytest.raises(TypeError, match="tile_size must be an integer"):
                build()
        return
    tm = partition(a, tile_size)
    assert type(tm.tile_size) is int and (tm.grid_rows, tm.grid_cols) == (3, 3)
    c, stats = run(homogeneous_machine(1), a, a, tile_size=tile_size)
    _, want = run(homogeneous_machine(1), a, a, tile_size=2)
    assert np.array_equal(c, reference_gemm(a, a))
    assert type(stats.tile_size) is int
    assert stats.to_report_dict() == {**want.to_report_dict(),
                                      "wall_elapsed": stats.wall_elapsed}
    assert (stats.k_steps, stats.cache.bytes_host) == (3, 400)


def evict_hetero_machine():
    """The benchmark's ``gemm-evict-hetero`` machine: three bounded
    accelerators and a host worker on two islands of unequal peer links."""
    devices = [DeviceSpec(i, capacity_tiles=52, flops_per_unit=f, host_bandwidth=512.0)
               for i, f in enumerate((250.0, 500.0, 750.0))]
    devices.append(DeviceSpec(3, kind="host-worker", flops_per_unit=200.0, subtile_factor=2))
    hops = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    bandwidth = [[0.0 if h == 0 else 4096.0 if h == 1 else 1024.0 for h in row]
                 for row in hops]
    return Machine(devices, ProximityMatrix(hops, bandwidth))


@pytest.mark.parametrize("machine", [evict_hetero_machine, lambda: homogeneous_machine(2)],
                         ids=["evict-hetero", "homogeneous-2"])
def test_simulated_times_are_python_floats(machine):
    # Prices, clocks and every simulated time the library returns are
    # Python floats: a numpy scalar read from the peer-bandwidth matrix
    # must not leak into the clocks once a device copies from a peer.
    machine = machine()
    assert type(transfer_cost(machine, 0, 1, 128)) is float  # a peer path
    assert type(transfer_cost(machine, HOST, 0, 128)) is float
    rng = np.random.default_rng(0)
    a, b = rng.uniform(size=(48, 48)), rng.uniform(size=(48, 48))
    rt = Runtime(machine, tile_size=4)
    for _ in range(2):
        _, stats = rt.multiply(a, b)
        assert stats.cache.l2_hits > 0  # peer prices entered the clocks
        assert type(stats.makespan) is float
    assert type(rt.sim_now()) is float
    assert all(type(t) is float for clocks in rt.clocks.values() for t in clocks)
    backend = TiledBackend(machine, tile_size=2)
    x, target = xor_dataset()
    net = Network.from_sizes([2, 8, 1], rng, activation="sigmoid")
    for _ in range(3):
        train_step(net, x, target, 0.5, backend)
    assert backend.runtime.directory.stats().l2_hits > 0
    assert type(backend.sim_time()) is float
