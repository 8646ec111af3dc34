"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1", "--smoke"]

WORKLOADS = ("rank1-density", "rank2-malliavin", "rank2-stats", "weakform")

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "failed_frac": "ratio"}

PER_LAYER = {
    "wiener.generate_increments.s": "s",
    "wiener.generate_increments.rows": "count",
    "noise.window_scales.misses": "count",
    "noise.simulate_ensemble.cold_s": "s",
    "noise.simulate_ensemble.s": "s",
    "noise.simulate_ensemble.rows": "count",
    "noise.fbm_weights.misses": "count",
    "kernels.kernel_KH_matrix.s": "s",
    "noise.pair_matrix.s": "s",
    "noise.pair_matrix.hits": "count",
    "noise.pair_matrix.misses": "count",
    "noise.lattice_moments.s": "s",
    "flow.backward_ensemble.s": "s",
    "flow.drift_evals": "count",
    "malliavin.dy_norm_ensemble.s": "s",
    "malliavin.dy_norm_ensemble.s_per_path": "s",
    "malliavin.dz_norm_ensemble.s": "s",
    "malliavin.mt_diagnostic.s": "s",
    "malliavin.density_report.s": "s",
    "transport.solution_field.s": "s",
    "transport.weak_form_residual.self_s": "s",
    "rv.symmetric_integral_eps.s": "s",
    "experiments.run.self_s": "s",
    "experiments.artifact_bytes": "bytes",
    "setup.import_numpy_scipy_s": "s",
    "setup.import_stochtransport_s": "s",
    "trace.overhead_s": "s",
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _check_result(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_run_reports_every_metric():
    proc = _bench("--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS)
    for name in WORKLOADS:
        _check_result(results[name], "per_layer")
        report = json.loads(
            (ROOT / ".perfbench" / f"{name}-seed0-trace1" / "report.json").read_text())
        for section, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            units = {k: m["unit"] for k, m in report[section].items()}
            assert units.items() >= expected.items(), (name, section)
        assert report["runs"][0]["digests"], name
        assert {"python", "numpy", "scipy", "blas", "nproc", "cpu_model", "git"} \
            <= set(report["env"])
        # The traced run's artifacts must match the untraced run's.
        assert results[name]["failed"] == 0, report["runs"]


def test_untraced_run_prints_end_to_end_metrics():
    proc = _bench("--workload", "rank2-stats", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check_result(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "rank2-stats", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
