"""Smoke runs of the example scripts' main() on tiny arguments."""
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperspectra import experiments
from hyperspectra.experiments import load_csv, load_jsonl
from hyperspectra.sampling import sample_coupled

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_threshold_sweep(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["--n", "12", "20", "--trials", "10", "--points", "3", "--out", str(out)]
    assert load("threshold_sweep").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# pattern: v=5 e=2, threshold exponent 5/2"
    assert lines[1] == "n alpha estimate ci_lo ci_hi"
    rows = [line.split() for line in lines[2:]]
    assert [(n, alpha) for n, alpha, *_ in rows] == \
        [(n, alpha) for n in ("12", "20") for alpha in ("3/2", "5/2", "7/2")]
    for n in ("12", "20"):
        estimates = [float(row[2]) for row in rows if row[0] == n]
        assert estimates == sorted(estimates, reverse=True)
    _, table = load_csv(out)
    assert [(r["n"], Fraction(r["alpha"])) for r in table] == \
        [(n, Fraction(alpha)) for n, alpha, *_ in rows]


def test_poisson_fit(capsys):
    assert load("poisson_fit").main(["--n", "20", "30", "--trials", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# pattern: v=3 e=3, limit law Pois(0.166667)"
    assert [line.split()[:2] for line in lines if line.startswith("n=")] == \
        [["n=20", "p=0.05"], ["n=30", "p=0.0333"]]
    assert lines.count("copies observed poisson") == 2


def test_window_scan(capsys, tmp_path):
    out = tmp_path / "trials.jsonl"
    argv = ["--n", "20", "24", "--trials", "5", "--out", str(out)]
    assert load("window_scan").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# witness: v=15 e=8, alpha=15/8")
    assert lines[1] == "n estimate ci_lo ci_hi"
    assert [line.split()[0] for line in lines[2:]] == ["20", "24"]
    for n in (20, 24):
        header, records = load_jsonl(tmp_path / f"trials-n{n}.jsonl")
        assert header["config"]["n_list"] == [n]
        assert [r.trial_index for r in records] == list(range(5))
        assert all(r.alpha == Fraction(15, 8) and not r.budget_exceeded for r in records)


def test_window_scan_refuses_other_config_before_sampling(capsys, tmp_path, monkeypatch):
    out = tmp_path / "trials.jsonl"
    script = load("window_scan")
    assert script.main(["--n", "20", "--trials", "5", "--out", str(out)]) == 0
    before = (tmp_path / "trials-n20.jsonl").read_text()
    draws = []
    monkeypatch.setattr(experiments, "sample_coupled",
                        lambda *args: draws.append(args) or sample_coupled(*args))
    capsys.readouterr()
    assert script.main(["--n", "20", "--trials", "6", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trials-n20.jsonl: holds records of digest" in err
    assert "Traceback" not in err
    assert not draws and (tmp_path / "trials-n20.jsonl").read_text() == before


@pytest.mark.parametrize("name, argv", [
    ("poisson_fit", ["--n", "20", "--trials", "20"]),
    ("threshold_sweep", ["--n", "12", "--trials", "5", "--points", "3"]),
    ("window_scan", ["--n", "20", "--trials", "5"]),
])
def test_closed_pipe_is_quiet(name, argv):
    # the reader is gone before the first line, as with `| head -0`: every
    # write fails with EPIPE, and the script must exit without a word
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
                            stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert err.decode() == ""
