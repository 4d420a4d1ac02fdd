"""Outside-in tracer for the traced run.

The benchmark wraps tilerun's public entry points from its own files;
nothing in ``src/`` knows it is traced.  Every wrapped call is a span with
a name, start, end, parent span, op id and thread.  Per name the tracer
keeps call counts, total time and self time (duration minus the child
spans).  Spans stay in memory per thread, capped at ``span_cap`` each, and
are written out at the end as Chrome Trace Event JSON, which Perfetto and
chrome://tracing open.

A wrapper costs time of its own.  ``calibrate`` measures how much of it
lands inside a span and how much in the caller's span, and ``per_name``
subtracts both, so that self times approximate the untraced program.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "calls", "self_", "total", "kids", "spans", "next_id",
                 "index", "thread_name", "is_main")

    def __init__(self, n_names: int, index: int):
        self.stack: list[list] = []  # frames: [span id, child time, child count]
        self.calls = [0] * n_names
        self.self_ = [0.0] * n_names
        self.total = [0.0] * n_names
        self.kids = [0] * n_names
        self.spans: list[tuple] = []
        self.next_id = index << 40
        self.index = index
        thread = threading.current_thread()
        self.thread_name = thread.name
        self.is_main = thread is threading.main_thread()


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.op = 0  # id of the op running now; stamped on every span
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap_callable(self, fn, name: str, after=None):
        """A traced version of ``fn``; ``after(args, result)`` runs outside the span."""
        idx = len(self.names)
        self.names.append(name)
        tls, new_state, cap, tracer = self._tls, self._new_state, self.span_cap, self

        def traced(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            stack = st.stack
            sid = st.next_id
            st.next_id = sid + 1
            if stack:
                parent = stack[-1]
                parent[2] += 1
                pid = parent[0]
            else:
                pid = -1
            frame = [sid, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st.calls[idx] += 1
                st.total[idx] += dur
                st.self_[idx] += dur - frame[1]
                st.kids[idx] += frame[2]
                if len(st.spans) < cap:
                    st.spans.append((idx, t0, t1, sid, pid, tracer.op))
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Register ``owner.attr`` (a module global or a class attribute)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig, self.wrap_callable(orig, name, after)))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)

    def _new_state(self) -> _ThreadState:
        with self._lock:
            st = _ThreadState(len(self.names), len(self._states))
            self._states.append(st)
        self._tls.state = st
        return st

    # -- results ------------------------------------------------------------

    def per_name(self, c_in: float = 0.0, c_out: float = 0.0) -> dict[str, dict]:
        """Totals per span name over all threads and all wrappers of that name.

        ``self`` is corrected by the calibrated wrapper cost: ``c_in`` per
        call of the span itself and ``c_out`` per direct child span.
        """
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            calls = sum(st.calls[i] for st in self._states)
            kids = sum(st.kids[i] for st in self._states)
            agg = out.setdefault(name, dict.fromkeys(("calls", "total", "self", "worker_calls"), 0))
            agg["calls"] += calls
            agg["total"] += sum(st.total[i] for st in self._states)
            agg["self"] += sum(st.self_[i] for st in self._states) - calls * c_in - kids * c_out
            agg["worker_calls"] += sum(st.calls[i] for st in self._states if not st.is_main)
        return out

    def span_count(self) -> int:
        return sum(sum(st.calls) for st in self._states)

    def write_chrome_trace(self, path) -> int:
        """Write the kept spans as Chrome Trace Event JSON; returns how many."""
        t_base = min((st.spans[0][1] for st in self._states if st.spans), default=0.0)
        events = []
        for st in self._states:
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": st.index,
                           "args": {"name": st.thread_name}})
            for idx, t0, t1, sid, pid, op in st.spans:
                name = self.names[idx]
                events.append({
                    "name": name, "cat": name.split(".")[0], "ph": "X",
                    "pid": 1, "tid": st.index,
                    "ts": (t0 - t_base) * 1e6, "dur": (t1 - t0) * 1e6,
                    "args": {"span": sid, "parent": pid, "op": op},
                })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return len(events) - len(self._states)


def calibrate(n: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Seconds of wrapper cost per span: (inside the span, in its parent)."""
    cal = Tracer(span_cap=0)

    def noop():
        pass

    child = cal.wrap_callable(noop, "child")

    def plain_loop():
        for _ in range(n):
            noop()

    def traced_loop():
        for _ in range(n):
            child()

    parent = cal.wrap_callable(traced_loop, "parent")
    c_in, c_out = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        plain_loop()
        base = perf_counter() - t0
        before = cal.per_name()
        parent()
        after = cal.per_name()
        c_in.append((after["child"]["self"] - before["child"]["self"]) / n)
        c_out.append((after["parent"]["self"] - before["parent"]["self"] - base) / n)
    return statistics.median(c_in), statistics.median(c_out)
