"""The benchmark's workload design, checked on real traced runs.

Every per-layer metric must read nonzero on the workloads where the
design predicts work for its layer, and exactly zero on the workloads
that bypass it (kernels, series and curve on verify-chi4, cut-and-join
on build-chi5, ...).  A renamed function or a binding the tracer misses
would blank a layer; this test makes that fail.  One traced repetition
per workload, about a minute and a half in all.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_layers_fire_only_where_predicted(workload, tmp_path):
    rep, layers, _ = run.traced_repetition(workload, 1, tmp_path,
                                           perf_counter() + 600)
    assert rep.problems == []
    # every per-layer metric of BENCHMARK.json needs a prediction
    predicted = {name: run.PER_LAYER[name] for name in run.LAYER_NAMES}
    silent = [name for name, layer in predicted.items()
              if workload in layer.fires and not layers[name] > 0]
    leaking = [name for name, layer in predicted.items()
               if workload in layer.zero and layers[name] != 0]
    assert silent == [] and leaking == []
