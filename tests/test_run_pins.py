"""Pins of what a run does, not only its CSV row.

``perfbench/pinned.json`` pins one 12-column row per run, and none of those
runs voids a block, rotates the orderer or has a packet refused.  Twelve runs
are pinned here:

* eight small ones (four configurations, each in parallel and sequential
  mode) that take those paths;
* the benchmark's desk and congested workloads, seeds 1 and 2, read from
  their INI files in ``perfbench/workloads/``.

Each pins five things:

* the digest of its event log, with a two-byte hash of every line, so a
  mismatch names the number and the text of the first line that differs;
* ``committed_fingerprint``;
* the full counter dict;
* its ``metrics.csv`` row;
* the tip digest every station's ledger ends on, so a change to any block's
  bytes (its timestamp, root or link) moves a pin.

One more test runs one of them under two values of ``PYTHONHASHSEED``, each
in its own process, and requires the same event log, fingerprint and CSV row.

The pins in ``pinned_runs.json`` move only with a declared behaviour change.
Regenerate them with ``PYTHONPATH=src python tests/test_run_pins.py``.
"""

import base64
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proactlab import config
from proactlab.sim import run, scenario

from test_sim import _desk_like, _finite_queues, _muted_miner, _rotating_orderers

PINS_PATH = Path(__file__).with_name("pinned_runs.json")
WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads"
CONFIGS = {"attacks-and-fetches": _desk_like, "muted-miner": _muted_miner,
           "rotating-orderers": _rotating_orderers, "finite-queues": _finite_queues}
MODES = ("parallel", "sequential")


def _in_mode(make_config, mode):
    return lambda monkeypatch: dataclasses.replace(make_config(monkeypatch), mode=mode)


def _workload(name, seed):
    return lambda monkeypatch: dataclasses.replace(
        config.load_scenarios(WORKLOADS / f"{name}.ini")[0], seed=seed)


# pin name -> the config of its run, made with a monkeypatch
RUNS = {**{f"{name}/{mode}": _in_mode(make_config, mode)
           for name, make_config in CONFIGS.items() for mode in MODES},
        **{f"{name}/seed{seed}": _workload(name, seed)
           for name in ("desk", "congested") for seed in (1, 2)}}


def _line_hash(line: str) -> bytes:
    return hashlib.blake2b(line.encode(), digest_size=2).digest()


class HashingSink:
    """An event log that keeps the digest of everything written to it and
    its lines (the engine writes one whole line per call)."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lines = []

    def write(self, line: str) -> None:
        self.digest.update(line.encode())
        self.lines.append(line)


def observe(name: str, monkeypatch):
    """The pinned fields of one run, and its event-log lines."""
    sink = HashingSink()
    worlds = []
    build_world = scenario.build_world

    def kept(*args, **kwargs):
        worlds.append(build_world(*args, **kwargs))
        return worlds[-1]

    monkeypatch.setattr(scenario, "build_world", kept)
    record = run(RUNS[name](monkeypatch), sink)
    (world,) = worlds
    tips = {world.agents[gcs].ledger.tip_digest.hex() for gcs in world.topo.gcs_ids}
    assert len(tips) == 1, f"stations end on {len(tips)} different chain tips"
    line_hashes = b"".join(_line_hash(line) for line in sink.lines)
    observed = {"event_log": sink.digest.hexdigest(),
                "line_hashes": base64.b64encode(line_hashes).decode(),
                "committed_fingerprint": record.committed_fingerprint,
                "counters": dict(record.counters),
                "csv_row": record.csv_row(),
                "chain_tip": tips.pop()}
    return observed, sink.lines


def first_difference(lines, pinned_line_hashes: str) -> str:
    """The number and text of the first line whose hash differs from the
    pinned one, or a note that the log is shorter than the pinned one."""
    pinned = base64.b64decode(pinned_line_hashes)
    for number, line in enumerate(lines, start=1):
        if _line_hash(line) != pinned[2 * number - 2:2 * number]:
            return f"event log differs first at line {number}: {line.rstrip()!r}"
    return (f"event log has {len(lines)} lines, the pinned one {len(pinned) // 2}; "
            f"the first {len(lines)} match by their line hashes")


def _pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RUNS), ids=lambda name: name.replace("/", "-"))
def test_a_run_does_what_its_pin_says(name, monkeypatch):
    pin = _pins()[name]
    observed, lines = observe(name, monkeypatch)
    assert observed["committed_fingerprint"] == pin["committed_fingerprint"], \
        "committed_fingerprint differs"
    assert observed["counters"] == pin["counters"], "counters differ"
    assert observed["csv_row"] == pin["csv_row"], "CSV row differs"
    assert observed["chain_tip"] == pin["chain_tip"], "chain tip differs"
    if observed["event_log"] != pin["event_log"]:
        pytest.fail(first_difference(lines, pin["line_hashes"]))


# Prints the event-log digest, the committed fingerprint and the CSV row of
# one run as JSON; run with this directory and the package on the path.
_RUN_ONE = """
import json, sys
import pytest
from proactlab.sim import run
from test_run_pins import RUNS, HashingSink
with pytest.MonkeyPatch.context() as monkeypatch:
    sink = HashingSink()
    record = run(RUNS[sys.argv[1]](monkeypatch), sink)
print(json.dumps({"event_log": sink.digest.hexdigest(),
                  "committed_fingerprint": record.committed_fingerprint,
                  "csv_row": record.csv_row()}))
"""


def test_the_hash_seed_does_not_change_a_run():
    # str hashes, and so the order of sets and dicts keyed by str, change
    # with PYTHONHASHSEED; a run must not depend on them
    import proactlab

    path = os.pathsep.join([str(Path(proactlab.__file__).parents[1]), str(PINS_PATH.parent)])
    runs = [subprocess.Popen(
        [sys.executable, "-c", _RUN_ONE, "attacks-and-fetches/parallel"],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        stdout=subprocess.PIPE, text=True) for hash_seed in ("0", "12345")]
    stdouts = [process.communicate(timeout=60)[0] for process in runs]
    assert [process.returncode for process in runs] == [0, 0]
    outputs = [json.loads(stdout) for stdout in stdouts]
    assert outputs[0] == outputs[1]
    assert outputs[0]["event_log"] == _pins()["attacks-and-fetches/parallel"]["event_log"]


def _write_pins() -> None:
    pins = {}
    for name in sorted(RUNS):
        with pytest.MonkeyPatch.context() as monkeypatch:
            pins[name] = observe(name, monkeypatch)[0]
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_pins()
