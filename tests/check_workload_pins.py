"""Pins of what the benchmark's swarm600 and spongent workloads do.

    PYTHONPATH=src python -m pytest -q tests/check_workload_pins.py   (about 10 s)

``test_run_pins.py`` pins desk and congested in Tier-1.  This pins the same
five fields (the event log with its line hashes, ``committed_fingerprint``,
the counters, the CSV row and the chain tip) for the two larger workloads,
seeds 1 and 2, read from their INI files in ``perfbench/workloads/``.  It
runs outside Tier-1, as ``perfbench/check_coverage.py`` does.  A mismatch
names the first event-log line that differs.

The pins in ``pinned_workloads.json`` move only with a declared behaviour
change.  Regenerate them with ``PYTHONPATH=src python tests/check_workload_pins.py``.
"""

import json
from pathlib import Path

import pytest

import test_run_pins

PINS_PATH = Path(__file__).with_name("pinned_workloads.json")
RUNS = {f"{name}/seed{seed}": test_run_pins._workload(name, seed)
        for name in ("swarm600", "spongent") for seed in (1, 2)}


def _observe(name, monkeypatch):
    monkeypatch.setitem(test_run_pins.RUNS, name, RUNS[name])
    return test_run_pins.observe(name, monkeypatch)


@pytest.mark.parametrize("name", sorted(RUNS), ids=lambda name: name.replace("/", "-"))
def test_a_workload_does_what_its_pin_says(name, monkeypatch):
    pin = json.loads(PINS_PATH.read_text())[name]
    test_run_pins.assert_pinned(*_observe(name, monkeypatch), pin)


def _write_pins() -> None:
    pins = {}
    for name in sorted(RUNS):
        with pytest.MonkeyPatch.context() as monkeypatch:
            pins[name] = _observe(name, monkeypatch)[0]
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_pins()
