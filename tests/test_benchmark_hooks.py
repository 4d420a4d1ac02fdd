"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps tilerun
functions and methods by name.

Building its tracer looks up every wrapped name without installing a
wrapper, so deleting or renaming one of them fails tier-1 here, not only
the benchmark's own smoke run.
"""

import importlib
from pathlib import Path

import tilerun.scheduler
import tilerun.tiles

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = layers.build_tracer(layers.Probes(), 1)
    assert {"tiles.accumulate_product", "tiles.reassemble", "scheduler.Completion.all_done",
            "coherence.CacheDirectory.release_input",
            "scheduler.Runtime.multiply"} <= set(tracer.names)
    # built, not installed: tilerun still runs its own functions
    assert tilerun.scheduler.accumulate_product is tilerun.tiles.accumulate_product
    assert not hasattr(tilerun.scheduler.Runtime.multiply, "__wrapped__")
