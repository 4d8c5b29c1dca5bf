"""The scripts under scripts/ run end to end on small inputs."""
import csv
import subprocess
import sys
from pathlib import Path

from cohprop.evaluation import CSV_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_planted_experiment_writes_both_reports(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_planted_experiment.py"), "--nodes", "400",
         "--elites", "4", "--sample-size", "40", "--k", "4", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in ("sweep_a.csv", "kfold_b.csv"):
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) > 1
