"""Command-line behavior: runs, sweeps, compare, selftest, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proactlab import cli
from proactlab.config import load_scenarios
from proactlab.sim.scenario import ConfigError

FAST_CONFIG = """\
[topology]
n_ca = 1
gcs_per_ca = 2
tgcs_per_ca = 2
uavn_per_gcs = 1
uav_per_uavn = 4

[run]
sim_duration_s = 3.0
[workload]
fetch_interval_s = 0
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_CONFIG)
    return path


def _rows(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


def test_run_writes_one_row_per_seed(fast_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(fast_config), "--seeds", "1,2,3",
                   "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "metrics.csv")
    assert [row["seed"] for row in rows] == ["1", "2", "3"]
    assert all(row["mode"] == "parallel" for row in rows)
    assert (out / "summary.txt").exists()
    assert "metrics.csv" in (out / "manifest.txt").read_text()


_RUN_AND_REPORT_OPENSSL = """
import sys
from proactlab import cli
assert cli.main(sys.argv[1:]) == 0
print("_hashlib" in sys.modules)
"""


def test_a_run_does_not_load_openssl(fast_config, tmp_path):
    # every digest is blake2b, served by the builtin _blake2; importing
    # hashlib would load _hashlib and map OpenSSL's libcrypto (about 3.6 MB)
    import proactlab

    src = str(Path(proactlab.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _RUN_AND_REPORT_OPENSSL, "run", "--config", str(fast_config),
         "--seeds", "1", "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_run_is_byte_deterministic(fast_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "2",
                     "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "2",
                     "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_run_refuses_overwrite_without_force(fast_config, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                     "--out", str(out)]) == 0
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                     "--out", str(out)]) == 1
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                     "--out", str(out), "--force"]) == 0


def test_compare_refuses_to_replace_a_run_manifest(fast_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                     "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert cli.main(["compare", "--config", str(fast_config), "--seeds", "1",
                     "--out", str(out)]) == 1
    assert "manifest.txt" in capsys.readouterr().err
    assert (out / "manifest.txt").read_text() == manifest
    assert not (out / "compare.csv").exists()


def test_run_env_var_sets_out_dir(fast_config, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "1"]) == 0
    assert (target / "metrics.csv").exists()


def test_invalid_config_names_field_and_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[attack]\nmalicious_fraction = 1.5\n")
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "malicious_fraction" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nwarp_speed = 9\n")
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("seed = 1\n", "bad.ini"),
    ("[run]\nseed = 1\nseed = 2\n", "seed"),
    ("[run]\nseed = 1\n[other]\nseed = 2\n", "seed"),
], ids=["no-section-header", "key-twice-in-section", "key-in-two-sections"])
def test_unparseable_scenario_file_exits_1(tmp_path, capsys, text, named):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("text, key", [
    ("uav_per_uavn = 0\n", "uav_per_uavn"),
    ("gcs_per_ca = 1\n", "tgcs_per_ca"),
    ("malicious_fraction = 1.5\n", "malicious_fraction"),
    ("sim_duration_s = 0\n", "sim_duration_s"),
    ("mode = lottery\n", "mode"),
    ("hash_backend = sha256\n", "hash_backend"),
    ("data_tx_size = 63\n", "data_tx_size"),
    ("group_max = 4\n", "group_max"),
    ("disc_radius_m = 1000\n", "disc_radius_m"),
    ("t_bis_s = 5\n", "t_bis_s"),
    ("force_s1 = maybe\n", "force_s1"),
    ("t3_interval_s = ,\n", "t3_interval_s"),
    ("data_tx_size = 1024, 2048, 1024\n", "data_tx_size"),
    ("wired_bw_bps = 1e6\n", "wired_bw_bps"),
], ids=["count-below-1", "tgcs-above-gcs", "fraction-above-1", "zero-duration",
        "unknown-mode", "unknown-backend", "tiny-report", "group-bounds",
        "disc-beyond-range", "t_bis-above-t_blk", "bool-word", "empty-sweep",
        "repeated-sweep-value", "retired-key"])
def test_each_config_problem_names_its_key(tmp_path, text, key):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\n" + text)
    with pytest.raises(ConfigError) as err:
        load_scenarios(path)
    assert len(err.value.problems) == 1 and key in err.value.problems[0]


def test_bool_keys_read_their_words(tmp_path):
    path = tmp_path / "flags.ini"
    path.write_text("[run]\nforce_s1 = yes, No\n")
    assert [cfg.force_s1 for cfg in load_scenarios(path)] == [True, False]


def test_sweep_expands_cross_product(tmp_path):
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(FAST_CONFIG + "\n[sweeps]\ndata_tx_size = 1024,2048\n"
                     "malicious_fraction = 0.1,0.2\n")
    configs = load_scenarios(sweep)
    points = [(c.data_tx_size, c.malicious_fraction) for c in configs]
    assert points == [(1024, 0.1), (1024, 0.2), (2048, 0.1), (2048, 0.2)]

    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(sweep), "--seeds", "1,2",
                   "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "metrics.csv")
    assert len(rows) == 8  # 4 sweep points x 2 seeds
    assert {(r["data_tx_size"], r["malicious_fraction"]) for r in rows} == \
           {("1024", "0.1"), ("1024", "0.2"), ("2048", "0.1"), ("2048", "0.2")}
    # M and S_DT tell the points apart, so no label names another key
    lines = (out / "summary.txt").read_text().splitlines()
    assert len(lines) == 4 and all(" seeds=2: " in line for line in lines)
    assert not any("malicious_fraction=" in line or "data_tx_size=" in line for line in lines)


def test_summary_keeps_points_apart_that_differ_in_another_key(tmp_path):
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(FAST_CONFIG + "\n[sweeps]\nt3_interval_s = 0.5,2.0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(sweep), "--seeds", "1",
                     "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert len(lines) == 2 and all(" seeds=1: " in line for line in lines)
    assert " t3_interval_s=0.5 " in lines[0] and " t3_interval_s=2.0 " in lines[1]


def test_mode_override(fast_config, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                   "--out", str(out), "--mode", "sequential"])
    assert rc == 0
    assert _rows(out / "metrics.csv")[0]["mode"] == "sequential"


def test_compare_emits_paired_rows(fast_config, tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(fast_config), "--seeds", "1,2",
                   "--out", str(out)])
    assert rc == 0
    rows = _rows(out / "compare.csv")
    assert len(rows) == 2
    for row in rows:
        assert float(row["tbd_ratio"]) > 1.0
        assert row["committed_identical"] == "yes"


def test_selftest_passes_and_exits_0(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_selftest_vectors_prints_hex(capsys):
    assert cli.main(["selftest-vectors"]) == 0
    out = capsys.readouterr().out
    assert "a0c6c93510fe871f385a7f" in out


def test_bad_seeds_rejected(fast_config, tmp_path):
    assert cli.main(["run", "--config", str(fast_config), "--seeds", "a,b",
                     "--out", str(tmp_path / "o")]) == 1


def test_unreadable_config_exits_1(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.ini"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_runtime_failure_exits_2(fast_config, tmp_path, monkeypatch):
    def boom(cfg, event_log=None):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(cli, "run", boom)
    rc = cli.main(["run", "--config", str(fast_config), "--seeds", "1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_example_config_loads():
    path = Path(__file__).resolve().parent.parent / "configs" / "desk.ini"
    (cfg,) = load_scenarios(path)
    assert cfg.n_uav == 200
