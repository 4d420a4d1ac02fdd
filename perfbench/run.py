"""Run one tilerun benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository: the program is
imported from the checkout's ``src`` directory, never from an installed
copy.  The workload runs as a closed loop (one client; the next op starts
only after the previous one returned) for ``--seconds`` seconds, and
every op is checked bit for bit.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of the traced ones, the tracing overhead, and writes
the spans as Chrome Trace Event JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
before it is for people.  A fuller record of the run, stamped with the
machine it ran on, goes to ``.perfbench-out/results/``.

``python3 perfbench/run.py --record-fingerprints`` rewrites
``fingerprints.json`` from the current code, after a declared model change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
FINGERPRINT_SEED = 0  # the seed whose output hash fingerprints.json records
SETUP_PROBES = 7
REF_ADDS = 20_000  # interpreter work of one reference loop: integer additions
REF_OUTERS = 500  # numpy work of one reference loop: 16x16 outer products
SPAN_CAP = 100_000  # spans kept per thread for the trace file
HARD_STOP_S = 150  # ends the loop even when ops are far slower than expected

END_TO_END = {  # name -> (unit, better)
    "ops_per_kref": ("1/kref", "higher"),
    "op_p50_ref": ("ref", "lower"),
    "op_tail_ref": ("ref", "lower"),
    "makespan_sim": ("sim_units", "lower"),
    "setup_s": ("s", "lower"),
    "rss_peak_mb": ("MB", "lower"),
}


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(name: str, seed: int) -> float:
    """Set-up time of the program in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Time of a fixed loop: how fast the machine runs right now.

    The CPUs of a shared host change speed from second to second.  An op's
    time divided by the time of this loop next to it cancels most of that.
    The loop mixes interpreter work and small numpy calls, as tilerun does;
    about 2 ms on the reference box.
    """
    vec = np.arange(16.0)
    acc = np.zeros((16, 16))
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_ADDS):
        total += i
    for _ in range(REF_OUTERS):
        acc += np.multiply.outer(vec, vec)
    return time.perf_counter() - t0


def measure(wl, seconds: float, tracer=None, root=None, setup_probe=None):
    """Closed loop for ``seconds``; with a tracer every second op is traced.

    A reference loop runs before every op and after the last one.  Returns
    ``{traced: ([latency_s], [latency_ref], [OpResult])}``, where
    ``latency_ref`` is the op's time over the mean of the reference loops
    on either side of it, the failure reasons, and the samples of
    ``setup_probe``.  Its SETUP_PROBES calls are spread evenly over the
    run, between ops, so that they see the machine at several moments.
    """
    from workloads import failure

    ops, refs, reasons, setups = [], [], [], []
    probes = SETUP_PROBES if setup_probe else 0
    start = time.perf_counter()
    while True:
        i = len(ops)
        if len(setups) < probes and time.perf_counter() - start >= len(setups) * seconds / probes:
            setups.append(setup_probe())
        wl.before_op()
        refs.append(reference_seconds())
        traced = tracer is not None and i % 2 == 1
        call = wl.op
        if traced:
            tracer.op = i
            tracer.install()
            call = root
        t0 = time.perf_counter()
        try:
            raw, err = call(), None
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            raw, err = None, exc
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        try:
            res = failure(f"{type(err).__name__}: {err}") if err else wl.check(raw)
        except Exception as exc:
            res = failure(f"check raised {type(exc).__name__}: {exc}")
        if not res.ok:
            reasons.append(f"op {i}: {res.reason}")
        ops.append((traced, dt, res))
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and wl.can_stop() and (tracer is None or i >= 1)
        if enough or elapsed >= HARD_STOP_S:
            break
    refs.append(reference_seconds())
    setups += [setup_probe() for _ in range(probes - len(setups))]
    runs = {False: ([], [], []), True: ([], [], [])}
    for k, (traced, dt, res) in enumerate(ops):
        runs[traced][0].append(dt)
        runs[traced][1].append(dt / ((refs[k] + refs[k + 1]) / 2))
        runs[traced][2].append(res)
    return runs, reasons, setups


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    s = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1], len(s) - rank


def end_to_end(wl, runs, setup_samples) -> tuple[dict, dict, dict]:
    """The metrics of BENCHMARK.json, the same timings in plain host time, and notes."""
    lat, lat_ref, results = runs[False]
    ok = [r for r in results if r.ok] or results
    tail_ref, beyond = percentile(lat_ref, wl.TAIL_PCT)
    values = {
        "ops_per_kref": 1e3 * len(lat_ref) / sum(lat_ref),
        "op_p50_ref": statistics.median(lat_ref),
        "op_tail_ref": tail_ref,
        "makespan_sim": wl.makespan_per_op(ok),
        "setup_s": statistics.median(setup_samples),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    plain = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * percentile(lat, wl.TAIL_PCT)[0], "ms"),
        "ref_ms": (1e3 * statistics.median(a / b for a, b in zip(lat, lat_ref)), "ms"),
    }
    notes = {"op_tail_percentile": wl.TAIL_PCT, "op_tail_samples_beyond": beyond,
             "ops": len(lat), "setup_s_samples": setup_samples}
    return {k: (v, END_TO_END[k][0]) for k, v in values.items()}, plain, notes


def per_layer(wl, runs, tracer, probes, calibration) -> tuple[dict, dict]:
    import layers

    _, ref_plain, _ = runs[False]
    lat_traced, ref_traced, traced_results = runs[True]
    spans = tracer.per_name(*calibration)
    listed, extra = layers.layer_metrics(spans, len(lat_traced), traced_results, probes,
                                         wl.session_facts(), wl.io_bytes())
    listed["trace.overhead_ratio"] = (
        statistics.median(ref_traced) / statistics.median(ref_plain) - 1, "ratio")
    listed["trace.spans"] = (tracer.span_count() / len(lat_traced), "count/op")
    extra["trace.c_in_us"] = (1e6 * calibration[0], "us")
    extra["trace.c_out_us"] = (1e6 * calibration[1], "us")
    return listed, extra


def compare_model(name: str, model: dict, seed: int) -> list[str]:
    """'model changed' lines against fingerprints.json; not failures."""
    if not FINGERPRINTS.is_file():
        return []
    recorded = json.loads(FINGERPRINTS.read_text()).get(name)
    if recorded is None:
        return []
    lines = []
    for key, want in recorded["model"].items():
        if key == "output_sha256" and seed != FINGERPRINT_SEED:
            continue
        got = model.get(key)
        if got != want:
            lines.append(f"model changed: {name}: {key} was {want!r}, now {got!r}")
    return lines


def machine_facts(load_start) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_fingerprints() -> int:
    """Rewrite fingerprints.json from the current code (a declared model change)."""
    from workloads import WORKLOADS

    out = {}
    for name, cls in WORKLOADS.items():
        if not cls.sim:
            continue
        wl = cls()
        wl.setup_program(FINGERPRINT_SEED)
        wl.prepare(FINGERPRINT_SEED, OUT / "work" / name)
        runs, reasons, _ = measure(wl, 0.0)
        if reasons:
            print("\n".join(reasons), file=sys.stderr)
            return 1
        out[name] = {"seed": FINGERPRINT_SEED, "model": wl.model(runs[False][2])}
    FINGERPRINTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS}")
    return 0


def main(argv=None) -> int:
    if not (SRC / "tilerun" / "__init__.py").is_file():
        print(f"error: no tilerun sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tilerun

    if not Path(tilerun.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tilerun from {tilerun.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--record-fingerprints"]:
        return record_fingerprints()
    args = parse_args(argv, list(WORKLOADS))
    load_start = list(os.getloadavg())
    wl = WORKLOADS[args.workload]()
    wl.setup_program(args.seed)
    wl.prepare(args.seed, OUT / "work" / args.workload)

    if args.trace:
        import layers
        from tracer import calibrate

        probes = layers.Probes()
        tracer = layers.build_tracer(probes, SPAN_CAP)
        root = tracer.wrap_callable(wl.op, wl.ROOT_SPAN)
        calibration = calibrate()
        runs, reasons, _ = measure(wl, args.seconds, tracer, root)
        metrics, extra = per_layer(wl, runs, tracer, probes, calibration)
        trace_file = OUT / f"{args.workload}.trace.json"  # the last traced run's spans
        notes = {"trace_file": str(trace_file.relative_to(ROOT)),
                 "trace_file_spans": tracer.write_chrome_trace(trace_file)}
    else:
        runs, reasons, setup_samples = measure(
            wl, args.seconds, setup_probe=lambda: setup_seconds(args.workload, args.seed))
        metrics, extra, notes = end_to_end(wl, runs, setup_samples)

    results = runs[False][2] + runs[True][2]
    attempted, failed = len(results), len(reasons)
    model_lines = compare_model(args.workload, wl.model(runs[False][2]), args.seed) \
        if wl.sim else []
    facts = machine_facts(load_start)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops, "
          f"{failed} failed, error_rate {failed / attempted:g}")
    for reason in reasons[:5]:
        print(f"  FAILED {reason}")
    for name, (value, unit) in {**metrics, **extra}.items():
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:32s} {value:14.6g} {unit:10s} {better}")
    for name, value in notes.items():
        print(f"  ({name}: {value})")
    for line in model_lines:
        print(line)
    print(f"machine: {json.dumps(facts)}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "attempted": attempted,
              "failed": failed, "error_rate": failed / attempted, "failures": reasons[:20],
              "model_changed": model_lines, "notes": notes,
              "latencies_ms": {"untraced": [round(1e3 * t, 4) for t in runs[False][0]],
                               "traced": [round(1e3 * t, 4) for t in runs[True][0]]},
              "latencies_ref": {"untraced": [round(t, 4) for t in runs[False][1]],
                                "traced": [round(t, 4) for t in runs[True][1]]},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.time_ns()}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
