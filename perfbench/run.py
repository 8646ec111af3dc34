"""Benchmark of the stochtransport CLI experiments, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload rank2-stats --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Each experiment run is a fresh interpreter (``perfbench/worker.py``) that
imports the package from ``./src`` and calls ``experiments.run(config)``, so
the lru caches start cold on every run, as on every CLI call.  A benchmark
run first starts a few import-only interpreters to sample set-up time, then
repeats the experiment until ``--seconds`` have passed (at least twice) and
reports medians.  Runs follow one another: the load is one process with
``threads=2`` pool threads plus the BLAS threads, as a user's call has.

With ``--trace 1`` the runs alternate untraced and traced (see ``spans.py``);
the per-layer numbers are medians over the traced runs, and the gap between
traced and untraced ``run_s`` is reported as the tracing overhead.

A run fails when its worker crashes or raises, when a gate of the experiment
is FAIL, or when its CSV artifacts are not byte-identical to those of the
first run of the same benchmark run.  The gate values and CSV digests are
printed, so a later change can show byte-identical outputs against its parent.

Every experiment uses the documented command of its workload, seed included,
and ``--seed`` does not change it.  The statistical gates (3-sigma z-tests)
FAIL at some seeds with correct code: noise-stats at README parameters fails
on 2 of seeds 0..59 and the rank-2 derivative-energy gate on 4 of seeds
0..199, so a seed-driven config would count chance as failures.

``BENCHMARK.json`` lists only rank2-malliavin and rank1-density.  Where
repeats differ by 10% or more, a median needs about four of them to settle,
which the 17 s rank2-stats run cannot get within a bounded run, and weakform
fails its gate; both stay runnable here and in ``--workload all``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode:
``end_to_end`` without tracing, ``per_layer`` with it.  The full report,
with every metric, the environment, gates and digests, is written to
``.perfbench/<workload>-seed<n>-trace<k>/report.json``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    # README noise-stats: cold rank-2 window plan, warm window simulation of
    # 1000 paths, pair matrices for the lattice moments.  No flow, malliavin
    # or transport.
    "rank2-stats": {"kind": "noise-stats", "q": 2, "H": 0.7, "n": 1024,
                    "paths": 1000, "seed": 7},
    # Per-path rank-2 derivative tables dominate; the sine drift takes the
    # flow-weight branch.  50 paths instead of the README's 200 keep repeats
    # affordable; the per-path cost is linear.
    "rank2-malliavin": {"kind": "malliavin", "q": 2, "H": 0.7, "n": 512,
                        "paths": 50, "drift": "sine"},
    # README density: the Gaussian pipeline (rank-1 GEMM, ensemble flow,
    # rank-1 derivative norms, KDE, a 10,000-row CSV) and the peak memory.
    "rank1-density": {"kind": "density", "q": 1, "H": 0.7, "paths": 10000,
                      "u0": "tanh-floor", "drift": "sine"},
    # README transport-weakform with 100 paths: the only run of
    # solution_field, weak_form_residual and symmetric_integral_eps.  Its
    # gate fails on the seed code (mean relative residual 0.028 > 0.01).
    "weakform": {"kind": "transport-weakform", "H": 0.9, "n": 1024,
                 "dx": 0.00390625, "paths": 100},
}

# Tiny sizes for the smoke test of the harness.
SMOKE = {
    "rank2-stats": {"n": 32, "paths": 40},
    "rank2-malliavin": {"n": 32, "paths": 4},
    "rank1-density": {"n": 32, "paths": 1000},
    "weakform": {"n": 128, "paths": 2},
}

THREADS = 2
SETUP_PROBES = 3
MIN_RUNS = 2
WALL_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "failed_frac": "ratio"}

LAYER_UNITS = {
    "wiener.generate_increments.s": "s",
    "wiener.generate_increments.rows": "count",
    "noise.cold_plan.s": "s",
    "noise.window_scales.misses": "count",
    "noise.simulate_ensemble.cold_s": "s",
    "noise.simulate_ensemble.s": "s",
    "noise.simulate_ensemble.rows": "count",
    "noise.simulate_hermite.s": "s",
    "noise.fbm_weights.misses": "count",
    "kernels.kernel_KH_matrix.s": "s",
    "noise.pair_matrix.s": "s",
    "noise.pair_matrix.hits": "count",
    "noise.pair_matrix.misses": "count",
    "noise.lattice_moments.s": "s",
    "flow.backward_ensemble.s": "s",
    "flow.ensemble.s": "s",
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
    "experiments.write_csv.s": "s",
    "experiments.artifact_bytes": "bytes",
    "setup.import_numpy_scipy_s": "s",
    "setup.import_stochtransport_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _child(job, work, tag, timeout):
    """Run one worker to completion and return its record, or a crash note."""
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), repr(spawned)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def _environment(first_run):
    env = dict(first_run.get("env", {}))
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["git"] = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "describe", "--always", "--dirty"],
                                 cwd=ROOT, capture_output=True, text=True, timeout=30)
            if git.returncode == 0:
                env["git"] = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def _verdict(run, reference):
    """Reasons this run failed; empty when it passed."""
    if "crashed" in run:
        return [run["crashed"]]
    reasons = []
    if run["error"]:
        reasons.append(f"raised {run['error']}")
    reasons += [f"gate {g['name']} FAIL" for g in run["gates"] if not g["passed"]]
    if run["exit_code"] != 0 and not reasons:
        reasons.append(f"exit {run['exit_code']}")
    if reference is not None and run["digests"] != reference:
        reasons.append("CSV artifacts differ from the first run")
    return reasons


def bench(name, seed, seconds, trace, smoke):
    """One benchmark run of a workload; returns the full report."""
    work = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"
    config = {**WORKLOADS[name], **(SMOKE[name] if smoke else {}),
              "threads": THREADS, "out_dir": str(out_dir)}
    src = str(ROOT / "src")
    start = time.monotonic()

    def remaining():
        return WALL_LIMIT_S - (time.monotonic() - start)

    probes = []
    for i in range(SETUP_PROBES):
        rec = _child({"src": src, "config": None, "trace": False, "spans_out": None},
                     work, f"probe{i}", remaining())
        if "crashed" in rec:
            raise HarnessError(f"import-only worker failed: {rec['crashed']}")
        probes.append(rec)

    runs, longest = [], 0.0
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        if remaining() < 2.0 * longest + 1.0:
            break  # leave the wall limit for runs that hang, not for slow ones
        traced = trace and len(runs) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        job = {"src": src, "config": config, "trace": traced,
               "spans_out": str(work / "spans.json") if traced else None}
        began = time.monotonic()
        rec = _child(job, work, f"run{len(runs)}", remaining())
        longest = max(longest, time.monotonic() - began)
        rec["traced"] = traced
        runs.append(rec)
    shutil.rmtree(out_dir, ignore_errors=True)

    ok = [r for r in runs if "crashed" not in r]
    reference = ok[0]["digests"] if ok else None
    for r in runs:
        r["failures"] = _verdict(r, reference)
    failed = sum(bool(r["failures"]) for r in runs)
    plain = [r for r in ok if not r["traced"]]
    if not plain:
        raise HarnessError("no experiment run completed: "
                           + "; ".join(r["failures"][0] for r in runs))

    setups = probes + ok
    e2e = {
        "setup_s": (median([r["setup_s"] for r in setups]), len(setups)),
        "run_s": (median([r["run_s"] for r in plain]), len(plain)),
        "cpu_s": (median([r["cpu_s"] for r in plain]), len(plain)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in plain]), len(plain)),
        "failed_frac": (failed / len(runs), len(runs)),
    }
    layers = {}
    traced_runs = [r for r in ok if r["traced"]]
    if traced_runs:
        for key in traced_runs[0]["layers"]:
            layers[key] = (median([r["layers"][key] for r in traced_runs]),
                           len(traced_runs))
        layers["setup.import_numpy_scipy_s"] = (
            median([r["import_numpy_scipy_s"] for r in setups]), len(setups))
        layers["setup.import_stochtransport_s"] = (
            median([r["import_stochtransport_s"] for r in setups]), len(setups))
        layers["trace.overhead_s"] = (
            median([r["run_s"] for r in traced_runs]) - e2e["run_s"][0],
            len(traced_runs))
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "config": config,
        "env": _environment(ok[0]),
        "attempted": len(runs), "failed": failed,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
                       for k, (v, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": LAYER_UNITS[k], "samples": n}
                      for k, (v, n) in layers.items()},
        "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs],
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def _print_report(report):
    cfg = report["config"]
    print(f"== workload {report['workload']}: {cfg['kind']} "
          + " ".join(f"{k}={v}" for k, v in cfg.items()
                     if k not in ("kind", "out_dir")))
    env = report["env"]
    blas = env.get("blas", {})
    print(f"   env: python {env.get('python')} numpy {env.get('numpy')} "
          f"scipy {env.get('scipy')} blas {blas.get('name')} {blas.get('version')} "
          f"threads={blas.get('threads')} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} git={env['git']}")
    for i, r in enumerate(report["runs"]):
        label = "traced" if r["traced"] else "plain"
        if "crashed" in r:
            print(f"   run {i} ({label}): FAILED {r['crashed']}")
            continue
        gates = ", ".join(f"{g['name']}={g['value']:.6g}/{g['threshold']:.6g} "
                          f"{'PASS' if g['passed'] else 'FAIL'}" for g in r["gates"])
        status = "ok" if not r["failures"] else "FAILED " + "; ".join(r["failures"])
        print(f"   run {i} ({label}): exit {r['exit_code']} run_s {r['run_s']:.3f} "
              f"{status}; gates: {gates}")
    digests = next((r["digests"] for r in report["runs"] if r.get("digests")), {})
    for fname, digest in sorted(digests.items()):
        print(f"   sha256 {fname} {digest}")
    for section in ("end_to_end", "per_layer"):
        for key, m in report[section].items():
            print(f"   {key:40s} {m['value']:.6g} {m['unit']} (n={m['samples']})")


def _result_line(report, names):
    section = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {k: {"value": section[k]["value"], "unit": section[k]["unit"]}
                        for k in names}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the harness smoke test")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        if not (ROOT / "src" / "stochtransport" / "__init__.py").is_file():
            raise HarnessError(f"no stochtransport sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        units = LAYER_UNITS if args.trace else END_TO_END_UNITS
        unknown = [n for n in names if n not in units]
        if unknown:
            raise HarnessError(f"BENCHMARK.json names unknown metrics: {unknown}")
        workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in workloads:
            report = bench(name, args.seed, args.seconds, bool(args.trace),
                           args.smoke)
            _print_report(report)
            results[name] = _result_line(report, names)
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
