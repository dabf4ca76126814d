"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


def test_reference_passes_its_own_gate():
    for key, result in REFERENCE.items():
        assert workloads.check(key, result, REFERENCE) == [], key
    assert REFERENCE["forms n=6"]["table"] == workloads.binomial_table(6)


def _corrupt(key, edit):
    result = copy.deepcopy(REFERENCE[key])
    edit(result)
    return workloads.check(key, result, REFERENCE)


@pytest.mark.parametrize("key, edit", [
    ("forms n=6", lambda r: r["table"][2].update(omega_d=r["table"][2]["omega_d"] + 1)),
    ("verify n=6 1-2,3-4,5-6", lambda r: r["checks"][0].__setitem__(2, 1e-6)),
    ("real n=6 plus", lambda r: r["checks"][1].__setitem__(2, 1e-6)),
    ("verify n=4 1-3,2-4", lambda r: r["checks"][5].__setitem__(1, False)),
    ("verify n=4 1-3,2-4", lambda r: r["checks"].pop()),
    ("verify n=4 1-3,2-4", lambda r: r.update(rc=1)),
    ("h0 m=2 r=2", lambda r: r.update(dimension=r["dimension"] - 1)),
    ("flat m=1", lambda r: r.update(residual=1e-6)),
])
def test_corrupted_result_is_a_failure(key, edit):
    assert _corrupt(key, edit)


def test_residual_within_tolerance_is_not_a_failure():
    def nudge(r):
        r["checks"][0][2] += 0.5 * workloads.RESIDUAL_TOL
    assert _corrupt("real n=4 plus", nudge) == []


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(36)), 18) == (25, 100 * 26 / 36, 10)


def test_tail_of_few_items_is_median_slowest_per_pass():
    assert run.tail([3.0, 1.0, 2.0, 4.0, 2.5, 0.5, 9.0, 1.0, 1.5], 3) == (4.0, 100.0, 0)


def test_inputs_depend_only_on_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.make_inputs("leaf-linalg", seed, d)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[2].iterdir())
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        assert (dirs[0] / name).read_bytes() != (dirs[2] / name).read_bytes()


def test_benchmark_json_names_every_emitted_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == layers.metric_names() + ["traced.wall_s"]
    assert {m["name"] for m in bench["end_to_end"]} == set(run.E2E_UNITS) - {"fail_ratio"}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "leaf-linalg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_work_counters_repeat_exactly(workload):
    first, second = (run.run_worker(workload, 3, 1, 1)["layers"] for _ in range(2))
    counts = [k for k in first if not k.endswith(".s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert any(first[k] for k in counts)


def test_leaf_linalg_solves_where_threaded_svd_fails():
    # With two BLAS threads, h0 on this seed's m=1 connection does not converge.
    res = run.run_worker("leaf-linalg", 1320943654, 1, 0)
    assert (res["attempted"], res["failed"]) == (6, 0), res["errors"]
