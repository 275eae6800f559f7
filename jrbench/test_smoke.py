"""Smoke test of the benchmark itself, at one trial per workload.

Run from the repository root:

    python -m pytest jrbench

It is not part of the package's test suite (``testpaths`` names only
``tests``) because it takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "jrbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--trials", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            assert result["metrics"][name]["unit"] == unit
            line = re.compile(rf"{workload}  {re.escape(name)} = \S+ "
                              rf"{re.escape(unit)}  \(")
            assert any(line.match(text) for text in lines), name

    # the last traced pair left both sides' outputs behind
    out = ROOT / ".jrbench_out" / workload
    for name in ("trials.csv", "results.csv"):
        assert ((out / "traced" / name).read_bytes()
                == (out / "untraced" / name).read_bytes())


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "jrbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("two-view-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
