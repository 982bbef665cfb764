"""The benchmark's own test: the tracer still covers every layer.

    python3 -m pytest -q perfbench/check_coverage.py      (about two minutes)

Each workload runs once traced on seed 1.  A layer that records nothing where
it is busy (``crypto`` on spongent, ``ledger`` on swarm600, queue refusals on
congested, every layer on desk) means a wrapper was silently detached, for
instance by a rename or a changed import.  The traced row must still equal
the pinned untraced one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BUSY, PINNED_PATH, check_run, spawn  # noqa: E402
from tracer import LAYERS  # noqa: E402


@pytest.mark.parametrize("workload", sorted(BUSY))
def test_tracer_sees_busy_layers(workload):
    result = spawn("trace", workload, 1, timeout=170)
    layers = result["layers"]
    idle = [name for name in BUSY[workload] if not layers[name]]
    assert not idle, f"{workload}: no spans recorded for {idle}"
    reference = json.loads(PINNED_PATH.read_text())[workload]["1"]
    assert check_run(result, reference) == []
    # self times plus the tracer's own time account for all time in spans
    self_sum = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert self_sum + layers["trace.tracer_s"] == pytest.approx(layers["trace.spanned_s"],
                                                                rel=1e-6)
    assert layers["trace.spanned_s"] <= result["run_s"]


def test_every_layer_is_busy_on_desk():
    assert set(BUSY["desk"]) == {f"{layer}.spans" for layer in LAYERS}
