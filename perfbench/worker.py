"""One cold experiment in a fresh interpreter, as a user's CLI call pays it.

Usage: python3 worker.py JOB_JSON SPAWNED

JOB_JSON names a file holding {"src": ..., "config": {...} or null,
"trace": bool, "spans_out": path or null}.  SPAWNED is the parent's
time.monotonic() just before it started this process, so set-up time counts
interpreter start-up too.  With "config": null only the imports are timed.
The last stdout line is one JSON record of the run.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas():
    """Name, version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def main(job_path, spawned):
    with open(job_path) as fh:
        job = json.load(fh)
    t0 = time.monotonic()
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401
    t1 = time.monotonic()
    sys.path.insert(0, job["src"])
    import stochtransport
    import stochtransport.cli
    from stochtransport import experiments
    t2 = time.monotonic()

    src = os.path.realpath(job["src"])
    if not os.path.realpath(stochtransport.__file__).startswith(src + os.sep):
        raise SystemExit(f"stochtransport imported from {stochtransport.__file__}, "
                         f"not from {src}")
    record = {
        "setup_s": t2 - spawned,
        "import_numpy_scipy_s": t1 - t0,
        "import_stochtransport_s": t2 - t1,
    }
    if job["config"] is None:
        return record

    import numpy as np
    import scipy

    record["env"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas": _blas()}
    config = experiments.ExperimentConfig.from_dict(job["config"])
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        caches_before = tracer.cache_counts()
    cpu0, w0 = _cpu_s(), time.perf_counter()
    manifest, error = None, None
    try:
        manifest = experiments.run(config)
    except stochtransport.cli._NUMERIC_ERRORS as exc:
        error, exit_code = f"{type(exc).__name__}: {exc}", 3
    except stochtransport.StochTransportError as exc:
        error, exit_code = f"{type(exc).__name__}: {exc}", 2
    else:
        exit_code = 0 if manifest.passed else 1
    run_s, cpu_s = time.perf_counter() - w0, _cpu_s() - cpu0
    record.update({
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_code": exit_code,
        "error": error,
        "gates": manifest.checks if manifest else [],
        "digests": {},
        "artifact_bytes": 0,
    })
    if manifest is not None:
        for name in manifest.files:
            with open(os.path.join(config.out_dir, name), "rb") as fh:
                data = fh.read()
            record["artifact_bytes"] += len(data)
            if name.endswith(".csv"):
                record["digests"][name] = hashlib.sha256(data).hexdigest()
    if tracer is not None:
        from spans import layer_metrics

        after = tracer.cache_counts()
        delta = {k: (after[k][0] - caches_before[k][0],
                     after[k][1] - caches_before[k][1]) for k in after}
        record["layers"] = layer_metrics(tracer.spans, delta, tracer.drift_evals)
        record["layers"]["experiments.artifact_bytes"] = record["artifact_bytes"]
        record["caches"] = delta
        if job["spans_out"]:
            with open(job["spans_out"], "w") as fh:
                json.dump(tracer.spans, fh)
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], float(sys.argv[2]))))
