"""The benchmark's own smoke test (bench/smoke.py) runs as part of the
suite, so a change that breaks what the benchmark calls fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all smoke checks passed" in proc.stdout
