#!/usr/bin/env python3
"""Record one checkout's benchmark figures in a ``BENCH_<n>.json`` file.

    python3 tools/record_bench.py [--checkout DIR]
    python3 tools/record_bench.py --compare OLD.json NEW.json

``--checkout`` names the root of a checkout (default: this repository).  The
recorder drives that checkout's ``perfbench/`` and ``src/`` in child processes
and imports neither into its own.  For each of swarm600, spongent, desk and
congested, on seed 1, it records:

* the last JSON line of ``python3 perfbench/run.py --workload W --seed 1
  --seconds S --trace 1``, with ``S`` the ``run_seconds`` of this
  repository's ``BENCHMARK.json``, and the end-to-end medians and span counts that
  ``run.py`` prints only to its log when it traces;
* from five probe processes of its own (``PROBE``): the calls one
  ``scenario.run`` makes, summed over cProfile's raw entries
  (``raw_calls``); the bytecode instructions one ``scenario.run`` executes
  (``opcodes``), counted with ``sys.settrace``, which, unlike the call
  count, sees the work inside a function; the peak of the memory that ``tracemalloc``
  traces during one ``scenario.run``, which, unlike ``peak_rss_mb``, repeats
  to the byte and excludes what the imports allocate, and what it still
  traces when the run's event loop returns (``held_bytes``); the bytes the package
  passes to blake2b during one ``scenario.run`` (``hashed_bytes``), counted
  through wrappers in a run of its own; and, from a run under
  none of them, the cyclic collector's collections per generation and its time
  (read through ``gc.callbacks``, which cProfile and the tracer cannot see),
  the events fired and the CSV digest.

It adds the Tier-1 suite's wall time and its ten slowest tests
(``--durations=10``), the checkout's commit, a digest of its sources and a
host stamp, and the caveats that hold for that checkout: each is attached
only where the checkout's files show its condition.  The file written here,
``BENCH_<n>.json``, numbers the commit by its position in the history
(``git rev-list --count``), so the files sort in commit order and a backfill
of older commits needs no renumbering.  A checkout with uncommitted changes
is numbered as the one commit that would hold them, and its ``commit`` reads
``<HEAD>+uncommitted``.

Work counts are the figures that do not depend on the host: call, event,
collection, byte and span counts, ratios of them, and digests.
``--compare`` prints each work count that differs between two recordings,
and exits 1 if any does; it also lists, without counting them as
differences, the work counts that only one of them records, such as a
probe figure added after the older one was made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("swarm600", "spongent", "desk", "congested")
SEED = 1
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10",
         "-p", "no:cacheprovider")
WORK_UNITS = {"count", "bytes", "ratio", "sim_s"}   # per-layer units that no host moves
SECONDS = json.loads((HERE / "BENCHMARK.json").read_text())["run_seconds"]

# (conditions, text): a caveat goes into a recording when, for each condition
# (file in the checkout, regex, whether it must match), the file's text agrees.
CAVEATS = [
    ((("perfbench/tracer.py", r"txbuild:transaction_overhead", True),
      ("src/proactlab/txbuild.py", r"def transaction_overhead\b", False)),
     "perfbench/tracer.py hooks txbuild:transaction_overhead, which this checkout does not "
     "define, so txbuild.overhead_calls reads 0 (ROADMAP item 1b)."),
    ((("perfbench/child.py", r'out\["run_s"\] = t1 - t0[\s\S]*_row\(record\)', True),),
     "perfbench/child.py stops the run clock before _row calls csv_row, so "
     "check_coverage.py's spanned_s <= run_s holds only by about 10-15 us of slack "
     "(item 1b)."),
    ((("perfbench/child.py", r"RUSAGE_SELF", True),
      ("perfbench/run.py", r"compileall", False)),
     "peak_rss_mb is the child's whole-process peak, so it measures the compiler, not the "
     "run, when the child writes no bytecode cache, as in a fresh checkout (item 1b)."),
    ((("perfbench/tracer.py", r'"World\._send_hop"', True),
      ("src/proactlab/sim/agents.py", r"def _send_hop\b", False)),
     "tracer.py's NET_METHODS names World._send_hop and World._send_on_link, which this "
     "checkout does not define; net.spans counts netmodel.Network's public methods "
     "instead (item 1b)."),
    ((("perfbench/tracer.py", r'"World\.broadcast_tgcs"', True),
      ("src/proactlab/sim/agents.py", r"def broadcast_tgcs\b", False)),
     "tracer.py's NET_METHODS names World.broadcast_tgcs, which this checkout does not "
     "define; World.post, which sizes each send and calls World.send, counts in the "
     "agents layer (item 1b)."),
    ((("src/proactlab/sim/metrics.py", r"def bto_sample\(self, overheads", True),),
     "metrics.bto_samples counts stored block copies, one bto_sample call each."),
    ((("src/proactlab/sim/metrics.py", r"def bto_sample\(self, overhead\b", True),),
     "metrics.bto_samples counts block-overhead values, one bto_sample call each."),
    ((("src/proactlab/sim/netmodel.py", r"packets_dropped \+ sum\(link\.dropped", True),),
     "The packets_dropped column counts no-route losses plus every refused link "
     "attempt, including attempts that a retry later delivers."),
    ((("perfbench/run.py", r'metrics = \{m\["name"\]: \{"value": layers', True),),
     "With --trace 1, run.py's JSON line carries only the per-layer metrics; the "
     "end-to-end medians and the span counts here are read from its log lines."),
    ((), "The probes run with PYTHONHASHSEED=0, each in a fresh process.  The collector "
         "figures start from a full collection after the imports."),
    ((), "peak_traced_bytes is tracemalloc's peak over one scenario.run, started after the "
         "imports: the memory Python's allocators hand out, not the process's RSS."),
    ((("src/proactlab/sim/agents.py", r"gc\.disable\(\)", True),),
     "World.run pauses the collector for the event loop, so the collector figures cover "
     "build_world and finalize only."),
]

# One probe run of a workload's scenario, in the checkout's own interpreter
# environment.  argv: mode (gc | profile | opcodes | memory | hashed), INI path,
# seed.  Prints one JSON line.
PROBE = r"""
import dataclasses, gc, hashlib, json, sys, time
from proactlab import config
from proactlab.sim import scenario
from proactlab.sim.metrics import CSV_COLUMNS

mode, ini, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
cfg = dataclasses.replace(config.load_scenarios(ini)[0], seed=seed)
if mode == "profile":
    import cProfile
    profile = cProfile.Profile()
    profile.enable()
    scenario.run(cfg)
    profile.disable()
    print(json.dumps({"raw_calls": sum(entry.callcount for entry in profile.getstats())}))
    sys.exit(0)
if mode == "opcodes":
    # the process's only run, as in perfbench's child: after a warm-up run
    # crypto's SPONGENT digest memo would already hold every digest of the
    # spongent workload, and the count would miss 99.6% of its work
    opcodes = [0]

    def step(frame, event, arg):
        if event == "opcode":
            opcodes[0] += 1
        return step

    def enter(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return step

    sys.settrace(enter)
    scenario.run(cfg)
    sys.settrace(None)
    print(json.dumps({"opcodes": opcodes[0]}))
    sys.exit(0)
if mode == "memory":
    # held_bytes: what is still traced when the event loop returns, before
    # the run is finalized; a checkout without World.run gets no figure.  It
    # is written into a buffer allocated before tracing starts, so measuring
    # it adds nothing to the peak.
    import tracemalloc
    from array import array
    from proactlab.sim import agents
    held = array("q", [-1])
    world_run = getattr(getattr(agents, "World", None), "run", None)
    if world_run is not None:
        def run_and_measure(world):  # no argument packing: nothing traced stays alive
            world_run(world)
            held[0] = tracemalloc.get_traced_memory()[0]
        agents.World.run = run_and_measure
    gc.collect()
    tracemalloc.start()
    scenario.run(cfg)
    found = {"peak_traced_bytes": tracemalloc.get_traced_memory()[1]}
    if held[0] >= 0:
        found["held_bytes"] = held[0]
    print(json.dumps(found))
    sys.exit(0)
if mode == "hashed":
    # the bytes the package passes to blake2b: each module's blake2b name and the
    # simulated backend's _BLAKE2B states, all wrapped; a checkout that lacks one
    # of these names gets no figure rather than a partial one
    from proactlab import crypto, txbuild, wire
    from proactlab.sim import metrics
    modules = (crypto, txbuild, wire, metrics)
    if not (all(hasattr(module, "blake2b") for module in modules)
            and isinstance(getattr(crypto, "_BLAKE2B", None), dict)):
        print(json.dumps({}))
        sys.exit(0)
    hashed = [0]
    blake2b = crypto.blake2b

    class Counted:
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def update(self, data):
            hashed[0] += memoryview(data).nbytes
            self.state.update(data)

        def copy(self):
            return Counted(self.state.copy())

        def digest(self):
            return self.state.digest()

        def hexdigest(self):
            return self.state.hexdigest()

    def counted(data=b"", **kwargs):
        hashed[0] += memoryview(data).nbytes
        return Counted(blake2b(data, **kwargs))

    for module in modules:
        module.blake2b = counted
    for variant, state in crypto._BLAKE2B.items():
        crypto._BLAKE2B[variant] = Counted(state)
    scenario.run(cfg)
    print(json.dumps({"hashed_bytes": hashed[0]}))
    sys.exit(0)

worlds, collections, clock = [], [0, 0, 0], {"busy_s": 0.0}
build_world = scenario.build_world

def keep(*args, **kwargs):
    worlds.append(build_world(*args, **kwargs))
    return worlds[-1]

def on_gc(phase, info):
    if phase == "start":
        clock["started"] = time.perf_counter()
    else:
        collections[info["generation"]] += 1
        clock["busy_s"] += time.perf_counter() - clock["started"]

scenario.build_world = keep
gc.collect()  # what importing left in generation 0 must not shift the run's collections
gc.callbacks.append(on_gc)
t0 = time.perf_counter()
record = scenario.run(cfg)
run_s = time.perf_counter() - t0
gc.callbacks.remove(on_gc)
sim = worlds[0].sim
row = record.csv_row()
line = ",".join(row[column] for column in CSV_COLUMNS)
print(json.dumps({
    "run_s": run_s, "events_fired": sim._seq - len(sim._queue),
    "gc_collections": collections, "gc_s": clock["busy_s"],
    "csv_digest": hashlib.blake2b(line.encode(), digest_size=16).hexdigest(),
    "csv_row": row}))
"""

_LOGGED = re.compile(r"^(?P<name>[a-z_0-9]+(?:\.[a-z_0-9]+)?)\s+(?P<value>\S+)"
                     r"(?:\s+\S+\s+p25=(?P<p25>\S+) p75=(?P<p75>\S+) n=(?P<n>\d+))?$")


def _run(args, cwd: Path, env=None, timeout=900) -> str:
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args[:4]))} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


def _git(checkout: Path, *args) -> str:
    return _run(["git", "-C", str(checkout), *args], checkout).strip()


def _source_digest(checkout: Path) -> str:
    """sha256 over the package's Python files, each path then its bytes."""
    digest = hashlib.sha256()
    package = checkout / "src" / "proactlab"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def caveats(checkout: Path) -> list:
    def agrees(path, pattern, match):
        file = checkout / path
        text = file.read_text() if file.is_file() else ""
        return (re.search(pattern, text) is not None) == match

    return [text for conditions, text in CAVEATS
            if all(agrees(*condition) for condition in conditions)]


def perfbench(checkout: Path, workload: str) -> dict:
    """``run.py``'s JSON line, plus the medians and span counts of its log."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", f"{SECONDS:g}", "--trace", "1"], checkout)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    medians, spans = {}, {}
    for line in lines[:-1]:
        match = _LOGGED.match(line)
        if match is None:
            continue
        if match["n"] is not None:
            medians[match["name"]] = {"median": float(match["value"]),
                                      "p25": float(match["p25"]),
                                      "p75": float(match["p75"]), "n": int(match["n"])}
        elif match["name"].endswith(".spans"):
            spans[match["name"]] = int(match["value"])
    result["end_to_end"] = medians
    result["spans"] = spans
    result["stamp"] = next((line for line in lines if line.startswith("stamp ")), None)
    return result


def probe(checkout: Path, workload: str) -> dict:
    ini = str(checkout / "perfbench" / "workloads" / f"{workload}.ini")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    found = {}
    for mode in ("gc", "profile", "opcodes", "memory", "hashed"):
        out = _run([sys.executable, "-c", PROBE, mode, ini, str(SEED)], checkout, env)
        found.update(json.loads(out.strip().splitlines()[-1]))
    return found


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=1800)
    wall_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    slowest = [line.strip() for line in lines
               if re.match(r"^\d+\.\d+s (call|setup|teardown) ", line.strip())]
    return {"exit_code": proc.returncode, "wall_s": round(wall_s, 2),
            "summary": lines[-1].strip("= ") if lines else "", "slowest": slowest}


def host() -> dict:
    try:
        load = " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        load = "unknown"
    return {"python": platform.python_version(), "machine": platform.machine(),
            "vcpus": len(os.sched_getaffinity(0)), "loadavg": load}


def record(checkout: Path, log) -> dict:
    commit = _git(checkout, "rev-parse", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain", "--untracked-files=no"))
    ordinal = int(_git(checkout, "rev-list", "--count", "HEAD")) + dirty
    out = {"commit": commit + "+uncommitted" * dirty, "ordinal": ordinal,
           "source_sha256": _source_digest(checkout), "host": host(),
           "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
           "caveats": caveats(checkout), "workloads": {}}
    for workload in WORKLOADS:
        log(f"{workload}: perfbench")
        figures = {"perfbench": perfbench(checkout, workload)}
        log(f"{workload}: probes")
        figures["probe"] = probe(checkout, workload)
        out["workloads"][workload] = figures
    log("tier-1")
    out["tier1"] = tier1(checkout)
    return out


def work_counts(recorded: dict) -> dict:
    """Every figure of a recording that no host moves, by a flat name."""
    counts = {}
    for workload, figures in recorded["workloads"].items():
        run = figures["perfbench"]
        for name, metric in run["metrics"].items():
            if metric["unit"] in WORK_UNITS:
                counts[f"{workload}.{name}"] = metric["value"]
        for name, value in run["spans"].items():
            counts[f"{workload}.{name}"] = value
        found = figures["probe"]
        for name in ("raw_calls", "opcodes", "events_fired", "gc_collections",
                     "csv_digest", "peak_traced_bytes", "held_bytes", "hashed_bytes"):
            if name in found:  # an older recording lacks the later probe figures
                counts[f"{workload}.probe.{name}"] = found[name]
    return counts


def compare(old_path: Path, new_path: Path) -> int:
    old = work_counts(json.loads(old_path.read_text()))
    new = work_counts(json.loads(new_path.read_text()))
    shared = old.keys() & new.keys()
    differing = sorted(name for name in shared if old[name] != new[name])
    for name in differing:
        before, after = old[name], new[name]
        both_ints = isinstance(before, int) and isinstance(after, int)
        delta = f" ({after - before:+})" if both_ints else ""
        print(f"{name}: {before} -> {after}{delta}")
    for name in sorted(old.keys() ^ new.keys()):
        side, value = ("OLD", old[name]) if name in old else ("NEW", new[name])
        print(f"{name}: only in {side}: {value}")
    print(f"{len(differing)} of {len(shared)} shared work counts differ; "
          f"{len(old.keys() ^ new.keys())} recorded in only one")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=HERE,
                        help="root of the checkout to record (default: this repository)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="print the work counts that differ between two recordings")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    checkout = args.checkout.resolve()

    def log(line):
        print(f"record_bench: {line}", file=sys.stderr, flush=True)

    recorded = record(checkout, log)
    path = HERE / f"BENCH_{recorded['ordinal']}.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    log(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
