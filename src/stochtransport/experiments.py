"""Experiment drivers: wire configurations to the library and emit artifacts.

Each runner simulates a Monte Carlo ensemble and returns its CSV tables and
the checks that make sense for its experiment kind; run writes the tables
and a JSON manifest into the output directory.  Runs are deterministic: the
same (config, seed) produces byte-identical CSV files on one machine at any
thread count.  Paths are keyed by path_id, the ensemble is simulated in one
call, reductions happen in a fixed order, and the threads only split the
density runner's per-path flow work, which is elementwise in the paths
(flow._solve_step).
A rank-1 simulate_ensemble also runs two helper threads of its own, which
build the kernel matrix and draw the driver blocks.  Neither those threads
nor the block sizes of noise and malliavin, constants independent of the
thread count, change any bit of an artifact.
"""

import hashlib
import json
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from . import __version__
from .errors import DomainError, GridError, StochTransportError
from .flow import _STEP_TOL, _step_plan, backward_ensemble, forward_ensemble
from .grid import TimeGrid
from .kernels import SUPPORTED_ORDERS, HermiteSpec
from .malliavin import (
    _MIN_BOUND_PATHS,
    _MIN_DENSITY_SAMPLES,
    _ensemble_weights,
    density_bound_check,
    density_report,
    dy_norm_ensemble,
    dz_norm_ensemble,
)
from .noise import (
    _probe_indices,
    lattice_covariance,
    lattice_variance,
    simulate_ensemble,
    simulate_hermite,
)
from .presets import drift_preset, u0_preset
from .rv import (
    _MIN_QV_PATHS,
    _MIN_SLOPE_POINTS,
    EpsilonSchedule,
    _eps_steps,
    qv_certificate,
)
from .transport import TestFunction, weak_form_residual
from .wiener import generate

# Fields that every kind accepts.  threads and out_dir are execution
# plumbing outside the config hash: density alone reads threads, and a
# caller may pass one thread count to every kind.
_EVERY_KIND = {"kind", "q", "H", "T", "n", "paths", "seed", "threads", "out_dir"}


class _Kind(NamedTuple):
    """An experiment kind: its runner, its fewest paths, and the fields its
    runner reads beyond _EVERY_KIND.  validate refuses any other field set
    off its default, which would change the hash but not the run."""

    runner: Callable
    min_paths: int
    reads: frozenset


@dataclass
class ExperimentConfig:
    """Everything a run needs; validated by validate() before execution."""

    kind: str
    q: int = 1
    H: float = 0.7
    T: float = 1.0
    n: int = 1024
    drift: str = "zero"
    drift_params: dict = field(default_factory=dict)
    u0: str = "identity"
    u0_params: dict = field(default_factory=dict)
    paths: int = 200
    seed: int = 20260818
    eps_schedule: list | None = None
    s: float = 0.0
    t: float | None = None
    x0: float = 0.0
    dx: float = 2.0**-8
    mollifier_eps: float = 2.0**-6
    threads: int = 0
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise DomainError(f"unknown config fields: {', '.join(unknown)}")
        if "kind" not in data:
            raise DomainError("config must set 'kind'")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def t_end(self) -> float:
        return self.T if self.t is None else self.t


def _type_diags(config: ExperimentConfig) -> list[str]:
    """One diagnostic per field whose value does not match its annotation.

    An int field takes int, a float field int or float, and neither takes
    bool (JSON true would otherwise run as 1).  Nor does a preset parameter;
    its other types are the preset's to refuse.
    """
    diags = []
    for name, hint in get_type_hints(ExperimentConfig).items():
        kinds = tuple((int, float) if k is float else k
                      for k in get_args(hint) or (hint,))
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, kinds):
            diags.append(f"{name} must be {getattr(hint, '__name__', hint)}, "
                         f"got {value!r}")
        elif isinstance(value, dict):  # drift_params, u0_params
            diags += [f"{name}[{key!r}] must be a number, got {v!r}"
                      for key, v in value.items() if isinstance(v, bool)]
    return diags


def validate(config: ExperimentConfig) -> list[str]:
    """Return human-readable diagnostics; empty means the config is runnable."""
    diags = _type_diags(config)
    if diags:
        return diags  # the checks below assume well-typed fields
    kind = _KINDS.get(config.kind)
    if kind is None:
        diags.append(f"unknown experiment kind {config.kind!r}; "
                     f"choose from {', '.join(KINDS)}")
    if config.q not in SUPPORTED_ORDERS:
        diags.append(f"unsupported noise order q={config.q}: exact simulation "
                     f"covers q in {set(SUPPORTED_ORDERS)}")
    if not 0.5 < config.H < 1.0:
        diags.append(f"H must lie in (1/2, 1), got {config.H}")
    if not 0 < config.T < np.inf:  # nan fails too
        diags.append(f"T must be positive and finite, got {config.T}")
    if config.n < 2:
        diags.append(f"n must be at least 2, got {config.n}")
    floor = kind.min_paths if kind else 1
    if config.paths < floor:
        diags.append(f"kind {config.kind!r} needs at least {floor} paths, "
                     f"got {config.paths}")
    if not 0 <= config.seed < 2**64:
        diags.append("seed must fit in an unsigned 64-bit integer")
    if config.threads < 0:
        diags.append("threads must be >= 0 (0 selects hardware parallelism)")
    if not np.isfinite(config.x0):
        diags.append("x0 must be finite")
    if not 0 < config.dx < np.inf:
        diags.append("dx must be positive and finite")
    if kind is None:
        return diags  # which fields it reads is unknown
    default = ExperimentConfig(config.kind)
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name not in _EVERY_KIND | kind.reads \
                and value != getattr(default, f.name):
            diags.append(f"kind {config.kind!r} does not read {f.name}; "
                         f"got {f.name}={value}")
    drift = None
    if "drift" in kind.reads:
        try:
            drift = drift_preset(config.drift, **config.drift_params)
        except DomainError as exc:
            diags.append(str(exc))
    if "u0" in kind.reads:
        try:
            u0_preset(config.u0, **config.u0_params)
        except DomainError as exc:
            diags.append(str(exc))

    if not 0 < config.T < np.inf or config.n < 2:
        return diags  # grid-dependent checks below would be meaningless
    grid = TimeGrid(T=config.T, n=config.n)
    if drift is not None and _step_plan(drift, grid.dt) is None:
        diags.append(f"drift {config.drift!r} is too steep for n={config.n}: its "
                     "flow steps have no a-priori iteration count; refine the grid")
    if "eps_schedule" in kind.reads:
        try:
            sched = _eps_schedule(config, grid)
            for e in sched.values:
                _eps_steps(grid, float(e))
            if len(sched) < _MIN_SLOPE_POINTS:
                diags.append(f"kind {config.kind!r} fits its slope through at "
                             f"least {_MIN_SLOPE_POINTS} eps values, got {len(sched)}")
        except (StochTransportError, TypeError, ValueError) as exc:
            diags.append(f"bad eps schedule: {exc}")
    if "mollifier_eps" in kind.reads:
        try:
            _eps_steps(grid, config.mollifier_eps)
        except (StochTransportError, TypeError, ValueError) as exc:
            diags.append(f"mollifier width: {exc}")
    if "t" not in kind.reads:
        return diags
    t_end = config.t_end
    if not 0.0 <= config.s < t_end <= config.T:
        diags.append(f"need 0 <= s < t <= T, got s={config.s}, t={t_end}, "
                     f"T={config.T}")
    else:
        for label, value in (("s", config.s), ("t", t_end)):
            try:
                grid.index_of(value)
            except GridError:
                diags.append(f"{label}={value} does not lie on the time grid")
    return diags


@dataclass
class RunManifest:
    """Record of one run: config echo, checks performed, files written.

    peak_rss_mb is the peak resident set size of the running process
    (getrusage), so it covers whatever else that process did before.
    """

    kind: str
    config: dict
    config_hash: str
    version: str
    started_utc: str
    wall_clock_s: float
    peak_rss_mb: float
    checks: list
    files: list
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "PASS" if c["passed"] else "FAIL"
            out.append(f"[{tag}] {c['name']}: value={c['value']:.6g} "
                       f"threshold={c['threshold']:.6g} ({c['detail']})")
        return out


def _as_float(v):
    """A number (not a bool) as a float; anything else unchanged."""
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v


def _config_hash(config: ExperimentConfig) -> str:
    """Hash of the experiment identity.

    threads and out_dir are execution plumbing, so they stay out of the
    hash: the same experiment on another thread count has the same hash and
    writes byte-identical CSVs (see the module docstring).  validate refuses
    a field the kind does not read unless it holds its default, so an unread
    field cannot reach the hash either.  A number runs the same as an int
    or a float wherever it is read as a float, so float-annotated fields and
    the numbers inside drift_params, u0_params and eps_schedule are hashed
    as floats: T=1 and T=1.0 are one experiment.
    """
    floats = {name for name, hint in get_type_hints(ExperimentConfig).items()
              if float in (get_args(hint) or (hint,))}
    payload = {}
    for k, v in config.to_dict().items():
        if k in ("threads", "out_dir"):
            continue
        if k in floats:
            v = _as_float(v)
        elif isinstance(v, dict):  # drift_params, u0_params
            v = {key: _as_float(x) for key, x in v.items()}
        elif isinstance(v, list):  # eps_schedule
            v = [_as_float(x) for x in v]
        payload[k] = v
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _check(name: str, passed: bool, value: float, threshold: float,
           detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "value": float(value),
            "threshold": float(threshold), "detail": detail}


def _write_csv(path: Path, config: ExperimentConfig, columns: list[str],
               rows) -> None:
    lines = [
        f"# stochtransport {__version__}",
        f"# kind: {config.kind}",
        f"# config-hash: {_config_hash(config)}",
        f"# seed: {config.seed}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB


def _simulate_blocks(grid: TimeGrid, spec: HermiteSpec, seed: int, paths: int,
                     driver: bool = False):
    """The noise of path ids 0..paths-1, and with driver also its increments.

    One simulate_ensemble call, which brings its own helper threads for
    the rank-1 draw.  Splitting the ensemble over a thread pool here would
    oversubscribe BLAS and make the products round with the thread-sized
    block shape.
    """
    return simulate_ensemble(grid, spec, seed, np.arange(paths), driver=driver)


# Fewest paths per flow worker.  Every slice pays the per-step cost of its
# march, so a second worker pays only once each holds about this many paths
# (rank 1, sine drift, n = 1024, paired runs on a 2-core x86 host).
_PATHS_PER_WORKER = 4000


def _flow_slices(b, grid: TimeGrid, z: np.ndarray, x: float, t: float,
                 threads: int):
    """Y_{0,t}(x) per path and, where the slope can move, its flow weights.

    A drift that declares sup_norm_bprime == 0 (zero, constant) needs no
    weights, since dy_norm_ensemble reads its norm off the noise increment:
    its march is made in one call with no pool, and its weights are None.
    Otherwise a pool of min(threads or _cpu_count(), _cpu_count(),
    paths // _PATHS_PER_WORKER) workers, at least one, maps over as many
    contiguous path slices, one march each, and each slice writes its flow
    slopes, then its weights of [0, t] (_ensemble_weights), over
    z.T[:index(t)+1], row by row as the march consumes the noise there: z
    becomes the weights, and no second (n+1, paths) array is allocated.
    The work is elementwise in the paths, so the result does not depend on
    the slicing.  Every march pays the per-step cost once, so a slice per
    worker is the fewest marches that keep every worker busy, a narrow
    ensemble marches once, and a large thread count starts no more OS
    threads than there are CPUs.
    """
    if b.sup_norm_bprime == 0.0:
        return backward_ensemble(b, grid, z, x, 0.0, t), None
    paths = z.shape[0]
    y = np.empty(paths)
    cw = z.T[:grid.index_of(t) + 1]
    cpus = _cpu_count()
    workers = max(1, min(threads or cpus, cpus, paths // _PATHS_PER_WORKER))
    cuts = np.linspace(0, paths, workers + 1).astype(int)
    slices = [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]

    def solve(sl):
        y[sl] = _ensemble_weights(b, grid, z[sl], x, 0.0, t, out=cw[:, sl])[0]

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(solve, slices))
    return y, cw


# ---------------------------------------------------------------------------
# runners


def _run_noise_stats(config, grid, spec):
    z = _simulate_blocks(grid, spec, config.seed, config.paths)
    probe_idx = _probe_indices(grid.n)
    times = grid.points[probe_idx]
    rows = []
    worst_mean = worst_var = 0.0
    for k, t in zip(probe_idx, times):
        x = z[:, k]
        mean, var = float(np.mean(x)), float(np.var(x, ddof=1))
        se_mean = float(np.std(x, ddof=1)) / np.sqrt(x.size)
        # population moments on both sides: m4 >= m2^2 (power means)
        dev = x - mean
        m2, m4 = float(np.mean(dev**2)), float(np.mean(dev**4))
        se_var = np.sqrt((m4 - m2**2) / x.size)
        lat = lattice_variance(grid, spec, float(t))
        z_mean = mean / se_mean
        z_var = (var - lat) / se_var
        worst_mean = max(worst_mean, abs(z_mean))
        worst_var = max(worst_var, abs(z_var))
        rows.append((t, mean, var, lat, float(t) ** (2 * spec.H), z_mean, z_var))

    quarter_idx = probe_idx[1::2]  # T/4, T/2, 3T/4, T
    cov_rows = []
    worst_cov = 0.0
    for i, ki in enumerate(quarter_idx):
        for kj in quarter_idx[i:]:
            xi, xj = z[:, ki], z[:, kj]
            prod = (xi - xi.mean()) * (xj - xj.mean())
            sample = float(np.mean(prod))
            se = float(np.std(prod, ddof=1)) / np.sqrt(prod.size)
            lat = lattice_covariance(grid, spec, grid.points[ki],
                                     grid.points[kj])
            zc = (sample - lat) / se
            worst_cov = max(worst_cov, abs(zc))
            cov_rows.append((grid.points[ki], grid.points[kj], sample, lat, zc))
    checks = [_check("mean-zero", worst_mean <= 3.0, worst_mean, 3.0,
                     "max |z| of the sample mean over 8 probe times"),
              _check("variance-lattice", worst_var <= 3.0, worst_var, 3.0,
                     "max |z| of sample vs lattice variance"),
              _check("covariance-lattice", worst_cov <= 3.0, worst_cov, 3.0,
                     "max |z| over the probe-time covariance grid")]
    return {"stats.csv": (["t", "sample_mean", "sample_var", "lattice_var",
                           "continuum_var", "z_mean", "z_var"], rows),
            "covariance.csv": (["s", "t", "sample_cov", "lattice_cov", "z"],
                               cov_rows)}, checks


def _eps_schedule(config: ExperimentConfig, grid: TimeGrid) -> EpsilonSchedule:
    """The configured eps schedule, else the qv default T 2^-k, k = 3..7."""
    if config.eps_schedule is not None:
        return EpsilonSchedule(np.asarray(config.eps_schedule, dtype=float))
    return EpsilonSchedule.dyadic(grid, 3, 7)


def _run_qv(config, grid, spec):
    z = _simulate_blocks(grid, spec, config.seed, config.paths)
    rep = qv_certificate(z, grid, config.H, _eps_schedule(config, grid),
                         t=config.t_end)
    return {"qv.csv": (["eps", "mean_bracket", "stderr"], rep.rows())}, [
        _check("qv-slope", rep.passed, rep.slope, rep.target,
               "fitted log-log decay slope; pass iff within 0.1 of 2H-1 and "
               "the bracket decreases")]


def _run_flow(config, grid, spec):
    b = drift_preset(config.drift, **config.drift_params)
    z = _simulate_blocks(grid, spec, config.seed, config.paths)
    nodes = np.linspace(-2.0, 2.0, 32)[:, None]
    s, t = config.s, config.t_end
    # All nodes x paths in one march each way: the state is (32, paths).
    y = backward_ensemble(b, grid, z, nodes, s, t)
    err = np.abs(forward_ensemble(b, grid, z, y, s, t) - nodes)
    worst = float(err.max())
    rows = list(zip(nodes[:, 0], err.max(axis=1), err.mean(axis=1)))
    if b.is_zero:
        check = _check("round-trip-exact", worst <= 1e-12, worst, 1e-12,
                       "zero drift: inversion is exact to roundoff")
    else:
        # The exact trapezoid steps invert each other.  Each of the 2k
        # computed steps of [s, t] lands within _STEP_TOL of its exact
        # solution plus the rounding of its four-term update, at most 4 ulp
        # of M, which bounds every state of both marches; an error made at
        # one step grows by at most rho = (1 + kappa) / (1 - kappa),
        # kappa = dt sup|b'| / 2, per later step.
        ks, kt = grid.index_of(s), grid.index_of(t)
        k, kappa = kt - ks, 0.5 * grid.dt * b.sup_norm_bprime
        largest = (np.max(np.abs(nodes)) + b.sup_norm_b * (t - s)
                   + 2.0 * np.max(np.abs(z[:, ks:kt + 1])))
        rounding = 4.0 * np.finfo(float).eps * largest
        tol = 2 * k * (_STEP_TOL + rounding) * ((1.0 + kappa) / (1.0 - kappa)) ** k
        check = _check("round-trip", worst <= tol, worst, tol,
                       "max |X(Y(x)) - x| over 32 nodes and all paths; "
                       "gate 2k (step tolerance + 4 ulp of the largest "
                       "state) rho^k over the k steps")
    return {"flow.csv": (["x", "max_err", "mean_err"], rows)}, [check]


def _run_weakform(config, grid, spec):
    b = drift_preset(config.drift, **config.drift_params)
    u0 = u0_preset(config.u0, **config.u0_params)
    phi = TestFunction.bump(0.0, 1.5)
    dx = config.dx
    xq = np.arange(-1.5 - 2 * dx, 1.5 + 3 * dx, dx)
    rows = []
    rels = []
    for pid in range(config.paths):
        Z = simulate_hermite(generate(grid, config.seed, pid), spec)
        rep = weak_form_residual(u0, b, Z, phi, config.t_end,
                                 config.mollifier_eps, xq)
        rows.append((pid, rep.lhs, rep.residual, rep.relative_residual))
        rels.append(rep.relative_residual)
    mean_rel = float(np.mean(rels))
    return {"weakform.csv": (["path_id", "lhs", "residual",
                              "relative_residual"], rows)}, [
        _check("weak-form-residual", mean_rel <= 1e-2, mean_rel, 1e-2,
               "mean relative residual of the weak identity over "
               f"{config.paths} paths")]


def _run_malliavin(config, grid, spec):
    b = drift_preset(config.drift, **config.drift_params)
    s, t = config.s, config.t_end
    z, dW = _simulate_blocks(grid, spec, config.seed, config.paths,
                             driver=True)
    dz_nsq = dz_norm_ensemble(grid, spec, dW, t)
    dy_nsq = dy_norm_ensemble(b, grid, spec, z, s, t, config.x0, dW=dW)
    rows = list(zip(range(config.paths), dz_nsq, dy_nsq))

    target = spec.q * lattice_variance(grid, spec, t)
    if spec.q == 1:
        gap = abs(float(dz_nsq[0]) - target)
        energy = _check("derivative-energy", gap <= 1e-10, gap, 1e-10,
                        "||DZ_t||^2 is deterministic for q=1 and must equal "
                        "the lattice variance")
    else:
        se = float(np.std(dz_nsq, ddof=1)) / np.sqrt(config.paths)
        zscore = (float(np.mean(dz_nsq)) - target) / se
        energy = _check("derivative-energy", abs(zscore) <= 3.0, zscore, 3.0,
                        "z-score of E||DZ_t||^2 against q x lattice variance")
    mn = float(dy_nsq.min())
    return {"malliavin.csv": (["path_id", "dz_norm_sq", "dy_norm_sq"], rows)}, [
        energy, _check("dy-norm-positive", mn > 0.0, mn, 0.0,
                       "min ||DY_{s,t}(x0)||^2 over the ensemble")]


def _run_density(config, grid, spec):
    """Samples of u(t, x0), their KDE, and ||Du(t, x0)||^2 per path.

    One flow solve serves the samples (row 0) and the derivative norms.
    The noise array becomes the flow weights (_flow_slices).  Rank 1 holds
    that one (n+1, paths) array; rank 2 also holds the (paths, n) driver,
    which its norm reads.
    """
    b = drift_preset(config.drift, **config.drift_params)
    u0 = u0_preset(config.u0, **config.u0_params)
    t = config.t_end
    dW = None
    if spec.q == 1:
        z = _simulate_blocks(grid, spec, config.seed, config.paths)
    else:
        z, dW = _simulate_blocks(grid, spec, config.seed, config.paths,
                                 driver=True)
    y, cw = _flow_slices(b, grid, z, config.x0, t, config.threads)
    samples = np.asarray(u0.u0(y), dtype=float)
    dy_nsq = dy_norm_ensemble(b, grid, spec, z, 0.0, t, config.x0, dW=dW,
                              flow_weights=cw)
    del z, dW, cw
    du_nsq = np.asarray(u0.u0_prime(y), dtype=float) ** 2 * dy_nsq
    rep = density_report(samples, du_nsq)
    lo, hi = rep.MASS_RANGE
    checks = [_check("kde-mass", rep.mass_ok, rep.mass, hi,
                     f"KDE total mass must sit in [{lo}, {hi}]"),
              _check("no-atoms", rep.max_cdf_jump <= rep.atom_bound,
                     rep.max_cdf_jump, rep.atom_bound, "largest empirical CDF jump"),
              _check("du-norm-positive", rep.min_norm_sq > 0.0, rep.min_norm_sq,
                     0.0, "min ||Du(t, x0)||^2 over the ensemble")]
    return {"samples.csv": (["path_id", "sample", "du_norm_sq"],
                            list(zip(range(config.paths), samples, du_nsq))),
            "density.csv": (["x", "kde"], list(zip(rep.x_grid, rep.density)))}, checks


def _run_bound_check(config, grid, spec):
    """Per-path brackets with their discrete int_s^t b'(Y_{u,t}) du, and the
    bracket-floor gate, whose detail also gives the floor 2 - rho_g^k that
    the drift's declared sup|b'| = g alone guarantees over the k steps."""
    b = drift_preset(config.drift, **config.drift_params)
    z = _simulate_blocks(grid, spec, config.seed, config.paths)
    rep = density_bound_check(b, grid, z, config.s, config.t_end, config.x0)
    slope = 0.0 - np.log(2.0 - rep.brackets)  # 0.0 - keeps -0 out of the CSV
    rows = list(zip(range(config.paths), rep.brackets, slope))
    floor = max(rep.floor_condition, rep.floor_universal)
    g = 0.5 * grid.dt * b.sup_norm_bprime
    k = grid.index_of(config.t_end) - grid.index_of(config.s)
    below = int(np.sum(~(rep.brackets > floor)))
    return {"brackets.csv": (["path_id", "bracket", "slope_integral"], rows)}, [
        _check("bracket-floor", rep.passed, rep.min_bracket, floor,
               f"min integrating-factor bracket over {config.paths} paths, "
               f"{below} at or below the floor; floors: "
               f"condition={rep.floor_condition:.6g}, "
               f"universal={rep.floor_universal:.6g}, declared sup|b'| "
               f"ensures {2.0 - ((1.0 + g) / (1.0 - g)) ** k:.6g}")]


_DRIFT, _U0 = frozenset({"drift", "drift_params"}), frozenset({"u0", "u0_params"})
# malliavin needs two paths for a ddof=1 standard error; noise-stats
# three, the fewest at which its variance and covariance standard errors
# are almost surely positive (two paths have equal |deviations|).
_KINDS = {
    "noise-stats": _Kind(_run_noise_stats, 3, frozenset()),
    "qv": _Kind(_run_qv, _MIN_QV_PATHS, frozenset({"eps_schedule", "t"})),
    "flow": _Kind(_run_flow, 1, _DRIFT | {"s", "t"}),
    "transport-weakform": _Kind(_run_weakform, 1,
                                _DRIFT | _U0 | {"t", "dx", "mollifier_eps"}),
    "malliavin": _Kind(_run_malliavin, 2, _DRIFT | {"s", "t", "x0"}),
    "density": _Kind(_run_density, _MIN_DENSITY_SAMPLES,
                     _DRIFT | _U0 | {"t", "x0"}),
    "bound-check": _Kind(_run_bound_check, _MIN_BOUND_PATHS,
                         _DRIFT | {"s", "t", "x0"}),
}
KINDS = tuple(_KINDS)


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one experiment end to end and write its artifacts."""
    diags = validate(config)
    if diags:
        raise DomainError("invalid config: " + "; ".join(diags))
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = TimeGrid(T=config.T, n=config.n)
    spec = HermiteSpec.create(config.q, config.H)
    tables, checks = _KINDS[config.kind].runner(config, grid, spec)
    for name, (columns, rows) in tables.items():
        _write_csv(out / name, config, columns, rows)
    manifest = RunManifest(
        kind=config.kind,
        config=config.to_dict(),
        config_hash=_config_hash(config),
        version=__version__,
        started_utc=started,
        wall_clock_s=time.perf_counter() - t0,
        peak_rss_mb=_peak_rss_mb(),
        checks=checks,
        files=[*tables, "manifest.json"],
        passed=all(c["passed"] for c in checks),
    )
    (out / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=2) + "\n")
    return manifest


__all__ = ["KINDS", "ExperimentConfig", "RunManifest", "run", "validate"]
