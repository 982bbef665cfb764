"""proactlab benchmark: host time, memory and throughput of frozen scenarios.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each scenario run happens serially in a
fresh child process that imports the checkout's ``src`` (not an installed
copy).  Untraced set-up children (import plus ``build_world``) and run
children (one ``scenario.run`` each) alternate until ``--seconds`` have
passed and at least ``MIN_RUNS`` runs are done; medians are reported.

With ``--trace 1`` one more run follows with the layer tracer installed
(``tracer.py``) and the per-layer metrics are reported.  Its CSV row must
equal the untraced one.

Every run is checked: it must not raise, its transactions must be conserved
(committed + rejected + dropped + pending = generated), and its CSV row must
equal the row pinned in ``pinned.json`` for (workload, seed), or, for a seed
with no pin, the first row of this invocation.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Metric names and units come from ``BENCHMARK.json``.

``workloads/`` holds four scenarios.  ``BENCHMARK.json`` lists two that load
different layers: ``swarm600`` (block delivery) and ``spongent`` (hashing).
``desk`` and ``congested`` run the same way by name, are pinned, and are
covered by ``check_coverage.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_DIR = HERE / "workloads"
PINNED_PATH = HERE / "pinned.json"

MIN_RUNS = 3              # untraced scenario runs per invocation, at least
MIN_SETUPS = 15           # set-up children per invocation, at least
DEADLINE_S = 170.0        # the whole invocation ends within this

CONSERVED = ("txs_committed", "txs_rejected_invalid", "txs_dropped_expired",
             "txs_pending_at_end")

# Traced figures that must be nonzero where the layer is busy; zero means a
# wrapper was detached (a rename or an import change the tracer missed).
BUSY = {
    "desk": ("engine.spans", "net.spans", "wire.spans", "crypto.spans", "txbuild.spans",
             "ledger.spans", "consensus.spans", "agents.spans", "metrics.spans",
             "energy.spans", "setup.spans"),
    "spongent": ("crypto.spans", "crypto.digest_calls"),
    "swarm600": ("ledger.spans", "ledger.store_calls"),
    "congested": ("net.queue_refusals",),
}


class ChildError(Exception):
    pass


def workloads():
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.ini"))


def spawn(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one child process and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode,
             str(WORKLOAD_DIR / f"{workload}.ini"), str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildError(f"{mode} child exited {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildError(f"{mode} child printed no result")
    result = json.loads(lines[-1])
    source = Path(result["source"]).resolve()
    if ROOT / "src" not in source.parents:
        raise ChildError(f"child imported proactlab from {source}, not this checkout")
    return result


def check_run(result: dict, reference: dict | None) -> list:
    """Problems with one run's output; an empty list means correct."""
    counters = result["counters"]
    problems = []
    settled = sum(counters[name] for name in CONSERVED)
    if settled != counters["txs_generated"]:
        problems.append(f"conservation broken: {settled} settled of "
                        f"{counters['txs_generated']} generated")
    if reference is not None and result["digest"] != reference["digest"]:
        columns = [f"{col} {result['row'].get(col)!r} != {want!r}"
                   for col, want in reference["row"].items() if result["row"].get(col) != want]
        problems.append("CSV row differs: " + ("; ".join(columns) or "digest only"))
    return problems


def quartiles(values):
    """(p25, median, p75)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, log) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S

    def remaining():
        return deadline - time.perf_counter()

    pinned = json.loads(PINNED_PATH.read_text()).get(workload, {}).get(str(seed))
    reference = pinned
    setups, runs, traced = [], [], None
    attempted = failed = 0

    def attempt(mode):
        """One child; a run whose output fails a check still counts its time."""
        nonlocal attempted, failed, reference
        attempted += 1
        try:
            result = spawn(mode, workload, seed, remaining())
        except (ChildError, ValueError, KeyError) as error:
            failed += 1
            log(f"FAIL {workload} seed {seed} {mode}: {error}")
            return None
        if mode == "setup":
            return result
        problems = check_run(result, reference)
        if mode == "trace":
            problems += [f"traced {name} is 0: wrapper detached?"
                         for name in BUSY.get(workload, ()) if not result["layers"][name]]
        if problems:
            failed += 1
            for problem in problems:
                log(f"FAIL {workload} seed {seed} {mode}: {problem}")
        elif reference is None:
            reference = {"digest": result["digest"], "row": result["row"]}
        return result

    crashed = False
    while (len(runs) < MIN_RUNS or time.perf_counter() - started < seconds) \
            and remaining() > 0 and not crashed:
        for mode, results in (("setup", setups), ("run", runs)):
            result = attempt(mode)
            crashed = crashed or result is None
            if result is not None:
                results.append(result)
    while len(setups) < MIN_SETUPS and remaining() > 0 and not crashed:
        result = attempt("setup")
        crashed = result is None
        if result is not None:
            setups.append(result)
    if trace and runs and remaining() > 0:
        traced = attempt("trace")
    return {"setups": setups, "runs": runs, "traced": traced,
            "attempted": attempted, "failed": failed,
            "elapsed_s": time.perf_counter() - started}


def end_to_end(runs, setups) -> dict:
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "tx_per_s": [r["counters"]["txs_committed"] / r["run_s"] for r in runs],
    }
    return {name: quartiles(values) + (len(values),) for name, values in samples.items()}


def per_layer(traced, runs, setups) -> dict:
    run_median = statistics.median(r["run_s"] for r in runs)
    layers = dict(traced["layers"])
    layers["engine.events_per_s"] = layers["engine.events_fired"] / run_median
    layers["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    layers["setup.build_world_s"] = statistics.median(s["build_world_s"] for s in setups)
    layers["trace.wall_s"] = traced["run_s"]
    layers["trace.overhead"] = traced["run_s"] / run_median
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proactlab" / "__init__.py").is_file():
        print(f"perfbench: no proactlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads():
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads())}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def log(line):
        print(line, flush=True)

    log(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    load_start = loadavg()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), log)
    log(f"stamp python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"commit={git_commit()} loadavg_start={load_start!r} loadavg_end={loadavg()!r} "
        f"elapsed_s={result['elapsed_s']:.1f}")
    runs, setups, traced = result["runs"], result["setups"], result["traced"]
    if not runs or not setups or (args.trace and traced is None):
        print("perfbench: no complete measurement; see FAIL lines above", file=sys.stderr)
        return 1

    log("run_s samples: " + " ".join(f"{r['run_s']:.3f}" for r in runs))
    log("setup_s samples: " + " ".join(f"{s['setup_s']:.3f}" for s in setups))
    summary = end_to_end(runs, setups)
    for metric in spec["end_to_end"]:
        q1, median, q3, n = summary[metric["name"]]
        log(f"{metric['name']:<28} {median:12.6g} {metric['unit']:<6} "
            f"p25={q1:.6g} p75={q3:.6g} n={n}")
    metrics = {m["name"]: {"value": summary[m["name"]][1], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    if args.trace:
        layers = per_layer(traced, runs, setups)
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        log(f"trace: wall {layers['trace.wall_s']:.3f} s = layer self {self_sum:.3f} s "
            f"+ tracer {layers['trace.tracer_s']:.3f} s "
            f"+ outside spans {layers['trace.wall_s'] - layers['trace.spanned_s']:.3f} s; "
            f"overhead {layers['trace.overhead']:.2f}x untraced median run_s")
        for key in sorted(k for k in layers if k.endswith(".spans")):
            log(f"{key:<28} {layers[key]:12d}")
        for metric in spec["per_layer"]:
            log(f"{metric['name']:<28} {layers[metric['name']]:12.6g} {metric['unit']}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
