import threading
from collections import Counter

import pytest

from tilerun.msqueue import MichaelScottQueue


def test_single_thread_fifo():
    q = MichaelScottQueue()
    for v in (1, 2, 3):
        q.enqueue(v)
    assert [q.dequeue() for _ in range(3)] == [1, 2, 3]
    assert q.dequeue() is None


def test_empty_queue_sentinel_and_is_empty():
    q = MichaelScottQueue()
    assert q.is_empty()
    assert q.dequeue() is None
    q.enqueue(7)
    assert not q.is_empty()
    q.dequeue()
    assert q.is_empty()


def test_none_rejected():
    q = MichaelScottQueue()
    with pytest.raises(ValueError):
        q.enqueue(None)


def test_matches_plain_list_model():
    import random

    rng = random.Random(0)
    q = MichaelScottQueue()
    model = []
    for _ in range(2000):
        if rng.random() < 0.6:
            v = rng.randrange(10**6)
            q.enqueue(v)
            model.append(v)
        else:
            got = q.dequeue()
            expect = model.pop(0) if model else None
            assert got == expect
    assert list(iter(q.dequeue, None)) == model


def _stress(n_producers, n_consumers, per_producer):
    q = MichaelScottQueue()
    produced_done = threading.Event()
    consumed = [[] for _ in range(n_consumers)]

    def producer(pid):
        for seq in range(per_producer):
            q.enqueue((pid, seq))

    def consumer(cid):
        out = consumed[cid]
        while True:
            v = q.dequeue()
            if v is None:
                if produced_done.is_set() and q.is_empty():
                    return
                continue
            out.append(v)

    producers = [threading.Thread(target=producer, args=(p,)) for p in range(n_producers)]
    consumers = [threading.Thread(target=consumer, args=(c,)) for c in range(n_consumers)]
    for t in producers + consumers:
        t.start()
    for t in producers:
        t.join()
    produced_done.set()
    for t in consumers:
        t.join()
    return consumed


def check_conservation_and_order(consumed, n_producers, per_producer):
    everything = Counter()
    for out in consumed:
        everything.update(out)
        # per-producer order must be increasing within each consumer's view:
        # any consumer's observations are a subsequence of the linearization
        last = {}
        for pid, seq in out:
            assert last.get(pid, -1) < seq, f"producer {pid} reordered"
            last[pid] = seq
    assert len(everything) == n_producers * per_producer
    assert all(v == 1 for v in everything.values()), "duplicate dequeue"
    expected = Counter((p, s) for p in range(n_producers) for s in range(per_producer))
    assert everything == expected


def test_mpmc_stress_small():
    consumed = _stress(4, 4, 5000)
    check_conservation_and_order(consumed, 4, 5000)


def test_interleaved_enqueue_dequeue_keeps_producer_order():
    consumed = _stress(2, 3, 3000)
    check_conservation_and_order(consumed, 2, 3000)


def test_quiescent_queue_reports_empty():
    consumed = _stress(3, 2, 1000)
    total = sum(len(c) for c in consumed)
    assert total == 3000
