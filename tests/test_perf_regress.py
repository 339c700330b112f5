"""The perf gate (``scripts/perf_regress.py``) on synthetic exports: a
baselined bench missing from the current export fails the gate, and a
matching set passes."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_regress.py"


@pytest.fixture(scope="module")
def perf_regress():
    spec = importlib.util.spec_from_file_location("perf_regress", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _export(path: Path, medians: dict) -> Path:
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"name": name, "stats": {"median": median}}
                    for name, median in medians.items()
                ]
            }
        )
    )
    return path


BASELINE = {"test_perf_a": 1e-3, "test_perf_b": 2e-3}


def test_missing_baselined_bench_fails(perf_regress, tmp_path, capsys):
    baseline = _export(tmp_path / "baseline.json", BASELINE)
    current = _export(tmp_path / "current.json", {"test_perf_a": 1e-3})
    assert perf_regress.main([str(current), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "missing" in out
    assert "test_perf_b" in out.split("FAIL")[-1]


def test_matching_sets_pass(perf_regress, tmp_path):
    baseline = _export(tmp_path / "baseline.json", BASELINE)
    current = _export(tmp_path / "current.json", dict(BASELINE))
    assert perf_regress.main([str(current), "--baseline", str(baseline)]) == 0


def test_new_bench_passes_and_update_retires(perf_regress, tmp_path):
    baseline = _export(tmp_path / "baseline.json", BASELINE)
    current = _export(
        tmp_path / "current.json", {"test_perf_a": 1e-3, "test_perf_c": 1e-3}
    )
    args = [str(current), "--baseline", str(baseline)]
    assert perf_regress.main(args) == 1  # test_perf_b is missing
    assert perf_regress.main(args + ["--update"]) == 0
    assert perf_regress.main(args) == 0
