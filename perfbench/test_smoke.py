"""Smoke test of the benchmark harness: python3 -m pytest perfbench/test_smoke.py

Runs ``run.py --smoke``: every workload at a small size, traced and untraced,
checking metric names and units against BENCHMARK.json, the pinned digests
and counts of the default seed, and that the correctness gate rejects broken
reports. Not part of the tier-1 suite, which collects tests/ only.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_passes():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
