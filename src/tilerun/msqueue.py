"""Michael-Scott two-lock concurrent FIFO.

Linked list with a dummy head node.  Producers serialize on the tail
lock, consumers on the head lock, so enqueues and dequeues never contend
with each other; the dummy node keeps the two halves from touching even
when the queue holds a single element.  Unbounded, multi-producer,
multi-consumer.

Contract the rest of the runtime relies on: every enqueued value is
dequeued exactly once or still queued, two values enqueued by one
producer come out in that order, and ``is_empty`` is accurate once all
producers have quiesced.
"""

from __future__ import annotations

import threading


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value=None):
        self.value = value
        self.next = None


class MichaelScottQueue:
    def __init__(self):
        dummy = _Node()
        self._head = dummy
        self._tail = dummy
        self._head_lock = threading.Lock()
        self._tail_lock = threading.Lock()

    def enqueue(self, value) -> None:
        if value is None:
            raise ValueError("None is the empty sentinel and cannot be enqueued")
        node = _Node(value)
        with self._tail_lock:
            self._tail.next = node
            self._tail = node

    def dequeue(self):
        """Pop the oldest value, or None when the queue is empty."""
        with self._head_lock:
            first = self._head.next
            if first is None:
                return None
            # old dummy is dropped; first becomes the new dummy
            self._head = first
            value = first.value
            first.value = None
            return value

    def is_empty(self) -> bool:
        with self._head_lock:
            return self._head.next is None
