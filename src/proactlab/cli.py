"""Command-line front door: seeded scenario runs and paired-mode comparison.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .config import load_scenarios
from .sim.metrics import CSV_COLUMNS, MetricsRecord, _fmt
from .sim.scenario import CONSENSUS_MODES, ConfigError, ScenarioConfig, default_config, run

OUT_DIR_ENV = "PROACTLAB_OUT_DIR"


@dataclasses.dataclass
class RunManifest:
    config_path: Optional[str]
    seeds: List[int]
    out_dir: Path
    mode_override: Optional[str]
    emitted: List[str] = dataclasses.field(default_factory=list)
    force: bool = False

    def __post_init__(self) -> None:
        self.claim("manifest.txt")

    def claim(self, name: str) -> Path:
        """Register an output file, refusing to overwrite without --force."""
        path = self.out_dir / name
        if path.exists() and not self.force:
            raise ConfigError([f"refusing to overwrite {path} (use --force)"])
        self.emitted.append(name)
        return path

    def write(self) -> None:
        lines = [
            f"config={self.config_path or '<built-in defaults>'}",
            f"seeds={','.join(str(s) for s in self.seeds)}",
            f"out_dir={self.out_dir}",
            f"mode_override={self.mode_override or '-'}",
            "emitted=" + ",".join(self.emitted),
        ]
        (self.out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError([f"seeds: cannot parse {text!r}"]) from None
    if not seeds:
        raise ConfigError(["seeds: empty list"])
    if len(set(seeds)) < len(seeds):
        raise ConfigError(["seeds: list repeats a value"])
    return seeds


def _load(config_path: Optional[str]) -> List[ScenarioConfig]:
    if config_path is None:
        return [default_config()]
    return load_scenarios(config_path)


def _out_dir(arg_value: Optional[str]) -> Path:
    value = arg_value or os.environ.get(OUT_DIR_ENV) or "out"
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, columns: Sequence[str], rows: List[Dict[str, str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)


def _mean_std(values: List[float]) -> str:
    if not values:
        return "na"
    if len(values) == 1:
        return _fmt(values[0])
    return f"{_fmt(statistics.mean(values))} ± {_fmt(statistics.stdev(values))}"


def _summary_lines(points: List[Tuple[ScenarioConfig, List[MetricsRecord]]]) -> List[str]:
    """One line per sweep point (its config and one record per seed).  A
    label that two points share also names the keys that set them apart."""
    labels = [f"mode={r.mode} n_uav={r.n_uav} M={_fmt(r.malicious_fraction)} "
              f"S_DT={r.data_tx_size}" for r in (group[0] for _, group in points)]
    lines = []
    for (cfg, group), label in zip(points, labels):
        sharing = [other for (other, _), same in zip(points, labels) if same == label]
        for f in dataclasses.fields(ScenarioConfig):
            if len({getattr(other, f.name) for other in sharing}) > 1:
                label += f" {f.name}={getattr(cfg, f.name)}"
        adrs = [r.adr for r in group if r.adr is not None]
        lines.append(
            f"{label} seeds={len(group)}: "
            f"adr={_mean_std(adrs)} "
            f"tbd_s={_mean_std([r.tbd_mean_s for r in group])} "
            f"dec_kj={_mean_std([r.dec_mean_kj for r in group])} "
            f"bto={_mean_std([r.bto_mean for r in group])}")
    return lines


def cmd_run(args) -> int:
    configs = _load(args.config)
    seeds = _parse_seeds(args.seeds)
    manifest = RunManifest(args.config, seeds, _out_dir(args.out),
                           args.mode, force=args.force)
    csv_path = manifest.claim("metrics.csv")
    summary_path = manifest.claim("summary.txt")

    mode = {"mode": args.mode} if args.mode else {}
    points = [(base, [run(dataclasses.replace(base, seed=seed, **mode)) for seed in seeds])
              for base in configs]
    rows = [record.csv_row() for _, group in points for record in group]
    _write_csv(csv_path, CSV_COLUMNS, rows)

    lines = _summary_lines(points)
    summary_path.write_text("\n".join(lines) + "\n")
    manifest.write()
    for line in lines:
        print(line)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


COMPARE_COLUMNS = ["seed", "n_uav", "tbd_parallel_s", "tbd_sequential_s",
                   "tbd_ratio", "dec_parallel_kj", "dec_sequential_kj",
                   "committed_identical"]


def cmd_compare(args) -> int:
    configs = _load(args.config)
    if len(configs) != 1:
        raise ConfigError(["compare does not accept sweep configs"])
    base = configs[0]
    seeds = _parse_seeds(args.seeds)
    manifest = RunManifest(args.config, seeds, _out_dir(args.out), None,
                           force=args.force)
    csv_path = manifest.claim("compare.csv")
    summary_path = manifest.claim("compare_summary.txt")

    rows = []
    ratios = []
    for seed in seeds:
        parallel = run(dataclasses.replace(base, seed=seed, mode="parallel"))
        sequential = run(dataclasses.replace(base, seed=seed, mode="sequential"))
        identical = parallel.committed_keys == sequential.committed_keys
        ratio = (sequential.tbd_mean_s / parallel.tbd_mean_s
                 if parallel.tbd_mean_s > 0 else float("inf"))
        ratios.append(ratio)
        rows.append({
            "seed": str(seed),
            "n_uav": str(parallel.n_uav),
            "tbd_parallel_s": _fmt(parallel.tbd_mean_s),
            "tbd_sequential_s": _fmt(sequential.tbd_mean_s),
            "tbd_ratio": _fmt(ratio),
            "dec_parallel_kj": _fmt(parallel.dec_mean_kj),
            "dec_sequential_kj": _fmt(sequential.dec_mean_kj),
            "committed_identical": "yes" if identical else "NO",
        })
    _write_csv(csv_path, COMPARE_COLUMNS, rows)
    lines = [f"seed {row['seed']}: tbd {row['tbd_parallel_s']}s vs "
             f"{row['tbd_sequential_s']}s (ratio {row['tbd_ratio']}), "
             f"identical committed sets: {row['committed_identical']}"
             for row in rows]
    lines.append(f"mean sequential/parallel tbd ratio: "
                 f"{_fmt(sum(ratios) / len(ratios))}")
    summary_path.write_text("\n".join(lines) + "\n")
    manifest.write()
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proactlab",
        description="Deterministic drone-network blockchain laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute seeded scenario runs")
    run_p.add_argument("--config", help="scenario file (INI); defaults built in")
    run_p.add_argument("--seeds", default="1", help="comma-separated seed list")
    run_p.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
    run_p.add_argument("--mode", choices=CONSENSUS_MODES,
                       help="override the configured consensus mode")
    run_p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare",
                           help="paired parallel-vs-sequential runs per seed")
    cmp_p.add_argument("--config", help="scenario file (INI); defaults built in")
    cmp_p.add_argument("--seeds", default="1")
    cmp_p.add_argument("--out", help=f"output directory (or ${OUT_DIR_ENV})")
    cmp_p.add_argument("--force", action="store_true")
    cmp_p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
