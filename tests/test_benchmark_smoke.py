"""One round of every benchmark workload, as the benchmark runs it.

perfbench's own tests never call the workload operations, so a renamed
``run_scenario`` keyword or a changed call in ``perfbench/workloads.py``
would otherwise surface only inside the benchmark.  Each workload named
in BENCHMARK.json runs one round (``--seconds 0``) from a copy of
``src/`` and ``perfbench/``, so its output directory stays out of the
checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(checkout, workload):
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
    assert result["attempted"] >= 1
