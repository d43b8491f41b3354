"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import layer_totals, self_times  # noqa: E402


def span(name, start, end, parent, failed=False):
    return [name, start, end, parent, failed]


def test_self_time_of_nested_spans():
    spans = [
        span(0, 0.0, 10.0, -1),   # root
        span(1, 1.0, 4.0, 0),     # child, holds a grandchild
        span(2, 2.0, 3.0, 1),     # grandchild
        span(1, 3.5, 6.0, 0),     # child overlapping the first one (another thread)
        span(2, 9.0, 12.0, 0),    # child running past its parent's end
    ]
    # root: 10 minus the union [1, 6] + [9, 10]; children only lose their own children
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_totals_sum_per_function_and_module():
    doc = {
        "names": ["cli.main", "gauge.sector_from_id", "gauge.spanning_cotree"],
        "spans": [span(0, 0.0, 5.0, -1), span(1, 1.0, 2.0, 0),
                  span(1, 2.0, 2.5, 0, failed=True), span(2, 3.0, 4.0, 0)],
        "sums": {"spin_ed.lowest_eigenvalues.matvecs": 7},
        "maxima": {"spin_ed.lowest_eigenvalues.max_residual": 1e-12},
    }
    other = dict(doc, maxima={"spin_ed.lowest_eigenvalues.max_residual": 3e-12})
    totals = layer_totals([doc, other])
    assert totals["gauge.sector_from_id.calls"] == 4
    assert totals["gauge.sector_from_id.self_s"] == pytest.approx(3.0)
    assert totals["cli.main.self_s"] == pytest.approx(2 * 2.5)
    assert totals["gauge.self_s"] == pytest.approx(2 * 2.5)
    assert totals["gauge.failed"] == 2
    assert totals["cli.failed"] == 0
    assert totals["spin_ed.lowest_eigenvalues.matvecs"] == 14
    assert totals["spin_ed.lowest_eigenvalues.max_residual"] == 3e-12


def _generated(workload, seed):
    return [(job.name, job.config_bytes(), job.cli_args("config", "out"))
            for job in workloads.jobs(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_config_generation_is_seeded(workload):
    assert _generated(workload, 11) == _generated(workload, 11)
    assert _generated(workload, 11) != _generated(workload, 12)


def test_corrupted_artifact_counts_as_failure(tmp_path):
    job = workloads.jobs("sweep", 3, small=True)[0]
    bench = run.Run("sweep", [job], tmp_path)
    bench.repetition(traced=False)
    assert (bench.attempted, bench.failed) == (1, 0), bench.errors

    out = tmp_path / "sweep.out"
    good = out.read_bytes()
    lines = good.decode().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[-2] = repr(float(fields[-2]) * (1 + 1e-6))   # nudge the argmin energy
    corrupted = "".join([lines[0], ",".join(fields), *lines[2:]]).encode()
    with pytest.raises(workloads.CheckError):
        job.check(corrupted)

    out.write_bytes(corrupted)
    bench._judge(job, {"code": 0}, out)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "differs" in bench.errors[-1]


@pytest.fixture(scope="module")
def traced_small():
    return {w: run.run(w, 5, 0, trace=True, small=True) for w in workloads.WORKLOADS}


def test_listed_calls_are_recorded_on_their_workload(traced_small):
    for name in run.CALLS:
        exercising = [w for w, names in run.EXERCISED.items() if name in names]
        assert exercising, f"{name} has no exercising workload"
        for w in exercising:
            assert traced_small[w]["metrics"][f"{name}.calls"]["value"] > 0, (name, w)
    for w, result in traced_small.items():
        assert result["failed"] == 0, result["errors"]
        assert set(result["metrics"]) == set(run.PER_LAYER)


def test_benchmark_json_matches_run_py():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
