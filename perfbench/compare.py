"""Compare the end-to-end results of two commits.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a ``.perfbench-out/results`` directory filled by
``run.py --trace 0`` runs in a checkout of one commit.  Runs of the two
commits are paired by workload and seed.  For every workload and
end-to-end metric the script prints both sides' median and quartiles,
the share of pairs the change wins, and a verdict against the bound in
BENCHMARK.json:

* ``gain``       -- the change wins at least 9 in 10 pairs and the medians
                    differ by more than the parent's quartile spread;
* ``regression`` -- the change's median is worse than the parent's by
                    more than the bound;
* ``unresolved`` -- the parent's own spread is wider than the bound;
* ``same``       -- none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(results_dir: Path) -> dict:
    """{(workload, metric): {seed: value}} of the trace-0 runs."""
    out: dict = {}
    for path in sorted(results_dir.glob("*.trace0.*.json")):
        rec = json.loads(path.read_text())
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    seeds = parent.keys() & change.keys()
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    won = f"{wins}/{len(seeds)}"
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", won
    if worse_by > bound:
        return "regression", won
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved", won
    return "same", won


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':18s} {'metric':13s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    regressions = 0
    for (workload, name) in sorted(parent.keys() & change.keys()):
        if name not in metrics:
            continue
        m = metrics[name]
        p, c = parent[(workload, name)], change[(workload, name)]
        result, won = verdict(p, c, m["better"], m["bound"])
        regressions += result == "regression"
        fmt = "/".join("{:.4g}".format(v) for v in quartiles(list(p.values())))
        fmt_c = "/".join("{:.4g}".format(v) for v in quartiles(list(c.values())))
        print(f"{workload:18s} {name:13s} {fmt:>32s} {fmt_c:>32s} {won:>6s}  {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
