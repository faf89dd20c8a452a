"""The benchmark's own tests: every workload at reduced size prints every
metric named in BENCHMARK.json with its unit, and the defects the workloads
leave out are still reported by their probes.

    python3 -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dynbatch  # noqa: E402
from workloads import DEFECT_PROBES  # noqa: E402


def test_smoke_prints_every_metric_with_its_unit():
    out = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert out.stdout.strip().splitlines()[-1] == "smoke: ok"


@pytest.mark.parametrize("name", sorted(DEFECT_PROBES))
@pytest.mark.xfail(strict=True, reason="known dynbatch defect, left out of the workloads")
def test_known_defect_is_fixed(name):
    assert DEFECT_PROBES[name](dynbatch) is None
