"""One measured proactlab process: ``python3 child.py MODE INI SEED``.

MODE is ``setup`` (import proactlab and build the world), ``run`` (one
``scenario.run``) or ``trace`` (one ``scenario.run`` with the layer tracer
installed).  The parent starts each child with ``PYTHONPATH`` naming the
checkout's ``src``.  The last line of standard output is a JSON object with
the measurements; every time is host time from ``time.perf_counter``.
"""

import sys
import time


def _setup(ini, seed):
    """Import time, then config load plus ``build_world``; together ``setup_s``."""
    t0 = time.perf_counter()
    import dataclasses

    from proactlab import config
    from proactlab.sim import scenario
    t1 = time.perf_counter()
    cfg = dataclasses.replace(config.load_scenarios(ini)[0], seed=seed)
    scenario.build_world(cfg)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_world_s": t2 - t1, "setup_s": t2 - t0}


def _row(record):
    import hashlib

    from proactlab.sim.metrics import CSV_COLUMNS

    row = record.csv_row()
    line = ",".join(row[column] for column in CSV_COLUMNS)
    return {"row": row, "digest": hashlib.blake2b(line.encode(), digest_size=16).hexdigest(),
            "counters": record.counters}


def _run(ini, seed, traced):
    import dataclasses
    import resource

    import proactlab
    from proactlab import config
    from proactlab.sim import scenario

    cfg = dataclasses.replace(config.load_scenarios(ini)[0], seed=seed)
    out = {"source": proactlab.__file__}
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    record = scenario.run(cfg)
    t1 = time.perf_counter()
    out["run_s"] = t1 - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(_row(record))
    if traced:
        out["layers"] = tracer.report(record.counters)
    return out


def main(argv):
    mode, ini, seed = argv[1], argv[2], int(argv[3])
    if mode == "setup":
        out = _setup(ini, seed)
        import proactlab
        out["source"] = proactlab.__file__
    elif mode in ("run", "trace"):
        out = _run(ini, seed, traced=mode == "trace")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    import json
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
