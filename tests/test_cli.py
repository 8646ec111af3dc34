"""Tests for the experiment driver and command-line surface."""

import dataclasses
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stochtransport import TimeGrid, experiments
from stochtransport.cli import _build_parser, _config_from_args, _parse_params, main
from stochtransport.errors import DomainError
from stochtransport.experiments import ExperimentConfig, run, validate
from stochtransport.flow import backward_ensemble_trajectory
from stochtransport.kernels import HermiteSpec
from stochtransport.malliavin import _cn_weights
from stochtransport.noise import simulate_ensemble
from stochtransport.presets import drift_preset


README = Path(__file__).resolve().parent.parent / "README.md"


def _row_weights(b, grid, traj):
    """The flow weights of a recorded [0, t] trajectory: the slopes of all
    its rows at once, turned into weights by _cn_weights."""
    gam = b.b_prime(grid.points[:len(traj), None], traj)
    return _cn_weights(gam, grid.dt)


def readme_command(kind, out):
    """The README's example command for kind, writing into out."""
    line = next(ln for ln in README.read_text().splitlines()
                if ln.startswith(f"stochtransport {kind} "))
    argv = line.split()[1:]
    argv[argv.index("--out") + 1] = str(out)
    return argv


def readme_commands():
    """Every README example command, as argv without the program name."""
    return [ln.split()[1:] for ln in README.read_text().splitlines()
            if ln.startswith("stochtransport ") and "--out" in ln]


def cfg(**overrides):
    base = dict(kind="qv", q=1, H=0.7, T=1.0, n=256, paths=120, seed=3)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestValidate:
    def test_valid_config_is_clean(self):
        assert validate(cfg()) == []

    def test_domain_diagnostics(self):
        diags = validate(cfg(q=3, H=0.4, T=-1.0, paths=0))
        text = " | ".join(diags)
        assert "unsupported noise order q=3" in text
        assert "H must lie in (1/2, 1)" in text
        assert "T must be positive" in text
        assert "paths" in text

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_horizon_and_step_flagged(self, bad):
        assert any("T must be positive and finite" in d
                   for d in validate(cfg(T=bad)))
        assert any("dx must be positive and finite" in d
                   for d in validate(cfg(dx=bad)))

    def test_eps_under_resolution_flagged(self):
        diags = validate(cfg(eps_schedule=[0.25, 0.125, 1e-4]))
        assert any("eps" in d for d in diags)

    def test_non_numeric_eps_schedule_is_a_diagnostic(self):
        diags = validate(cfg(eps_schedule=["fine", "coarse"]))
        assert any("bad eps schedule" in d for d in diags)

    def test_unknown_presets_flagged(self):
        diags = validate(cfg(kind="density", drift="warp", u0="spline"))
        assert any("drift preset" in d for d in diags)
        assert any("u0 preset" in d for d in diags)

    def test_unknown_kind_flagged(self):
        assert any("experiment kind" in d for d in validate(cfg(kind="plot")))

    def test_window_checks(self):
        assert any("0 <= s < t <= T" in d for d in validate(cfg(s=0.9, t=0.5)))
        assert any("time grid" in d for d in validate(cfg(t=0.31)))

    def test_validation_never_throws(self):
        diags = validate(cfg(kind="???", q=9, H=2.0, T=0.0, n=0, paths=-1,
                             seed=-2, threads=-1, drift="x", u0="y"))
        assert len(diags) >= 6

    def test_non_numeric_preset_parameter_is_a_diagnostic(self):
        diags = validate(cfg(kind="flow", drift="sine", drift_params={"a": "x"}))
        assert any("bad parameters for drift preset" in d for d in diags)

    @pytest.mark.parametrize("fields", [
        {"kind": "flow", "drift": "sine", "drift_params": {"a": True}},
        {"kind": "density", "u0": "offset-tanh", "u0_params": {"level": True}},
    ], ids=["drift_params", "u0_params"])
    def test_bool_preset_parameter_is_refused(self, tmp_path, capsys, fields):
        """JSON true would run as 1 but hash as true: one run, two
        identities.  The diagnostic names the parameter."""
        name, params = list(fields.items())[-1]
        (key, _), = params.items()
        message = f"{name}[{key!r}] must be a number, got True"
        assert validate(ExperimentConfig.from_dict(fields)) == [message]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(fields))
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().out

    def test_steep_drift_flagged_for_flow_kinds_only(self):
        steep = dict(drift="sine", drift_params={"a": 5000.0}, n=16)
        assert any("refine the grid" in d
                   for d in validate(cfg(kind="flow", **steep)))
        diags = validate(cfg(kind="noise-stats", **steep))
        assert any("does not read drift" in d for d in diags)
        assert not any("refine the grid" in d for d in diags)

    def test_int_accepted_for_float_fields(self):
        assert validate(cfg(T=1, H=0.7, x0=0)) == []

    # A value off the default of every field that enters the config hash.
    OFF_DEFAULT = {
        "q": 2, "H": 0.8, "T": 2.0, "n": 512, "drift": "sine",
        "drift_params": {"a": 0.25}, "u0": "affine", "u0_params": {"m": 2.0},
        "paths": 1500, "seed": 5, "eps_schedule": [0.125, 0.0625, 0.03125],
        "s": 0.5, "t": 0.5, "x0": 0.25, "dx": 2.0**-7, "mollifier_eps": 2.0**-5,
    }

    def test_every_unread_field_is_refused_and_named(self):
        """Kind x hashed field: a field the kind reads never gets a "does
        not read" diagnostic; any other field off its default gets exactly
        one diagnostic, which names it.  71 (kind, field) pairs are
        settable, of 7 x 16."""
        hashed = [f.name for f in dataclasses.fields(ExperimentConfig)
                  if f.name not in ("kind", "threads", "out_dir")]
        assert sorted(hashed) == sorted(self.OFF_DEFAULT)
        settable = 0
        for kind, spec in experiments._KINDS.items():
            base = dict(kind=kind, n=256, paths=1000)
            assert validate(cfg(**base)) == []
            assert validate(cfg(**base, threads=2, out_dir="elsewhere")) == []
            for name in hashed:
                diags = validate(cfg(**{**base, name: self.OFF_DEFAULT[name]}))
                refused = [d for d in diags if "does not read" in d]
                if name in experiments._EVERY_KIND | spec.reads:
                    assert refused == [], (kind, name)
                    settable += 1
                else:
                    assert len(diags) == 1, (kind, name, diags)
                    assert f"does not read {name};" in diags[0], (kind, name)
        assert settable == 71

    def test_unknown_config_field_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"kind": "qv", "epsilon": 0.1})
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({"paths": 10})


class TestRun:
    def test_invalid_config_refused(self, tmp_path):
        with pytest.raises(DomainError):
            run(cfg(H=1.7, out_dir=str(tmp_path)))

    def test_manifest_lists_every_file(self, tmp_path):
        m = run(cfg(kind="noise-stats", paths=150, n=128,
                    out_dir=str(tmp_path)))
        on_disk = sorted(p.name for p in tmp_path.iterdir())
        assert sorted(m.files) == on_disk
        assert "manifest.json" in m.files
        stored = json.loads((tmp_path / "manifest.json").read_text())
        assert stored["kind"] == "noise-stats"
        assert stored["passed"] == m.passed
        assert all({"name", "passed", "value", "threshold"} <= set(c)
                   for c in stored["checks"])

    def test_weakform_runner_at_smoke_size(self, tmp_path):
        """The README weak-form datum at the benchmark's smoke size (n = 128,
        2 paths); the README size takes about 20 s."""
        fields = dict(kind="transport-weakform", H=0.9, n=128, dx=2.0**-8,
                      paths=2, u0="offset-tanh")
        texts = []
        for out in ("a", "b"):
            m = run(ExperimentConfig(**fields, out_dir=str(tmp_path / out)))
            assert m.passed and m.files == ["weakform.csv", "manifest.json"]
            (check,) = m.checks
            assert check["name"] == "weak-form-residual"
            assert check["threshold"] == 1e-2
            assert 0.0 < check["value"] < 1e-2
            texts.append((tmp_path / out / "weakform.csv").read_bytes())
        assert texts[0] == texts[1]
        rows = [ln for ln in texts[0].decode().splitlines()
                if not ln.startswith("#")]
        assert rows[0] == "path_id,lhs,residual,relative_residual"
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "1"]

    def test_config_echo_and_hash(self, tmp_path):
        m = run(cfg(out_dir=str(tmp_path)))
        assert m.config["H"] == 0.7 and m.config["kind"] == "qv"
        assert len(m.config_hash) == 12
        header = (tmp_path / "qv.csv").read_text().splitlines()[:4]
        assert any(m.config_hash in line for line in header)

    @pytest.mark.parametrize("a, b", [
        ({"kind": "noise-stats", "x0": 0, "T": 1}, {"kind": "noise-stats"}),
        ({"kind": "malliavin", "drift": "sine", "drift_params": {"a": 1}},
         {"kind": "malliavin", "drift": "sine", "drift_params": {"a": 1.0}}),
        ({"kind": "density", "paths": 1000, "u0": "affine",
          "u0_params": {"m": 2, "c": 0}},
         {"kind": "density", "paths": 1000, "u0": "affine",
          "u0_params": {"m": 2.0, "c": 0.0}}),
        ({"kind": "qv", "eps_schedule": [1, 0.5, 0.25], "t": 1},
         {"kind": "qv", "eps_schedule": [1.0, 0.5, 0.25], "t": 1.0}),
    ])
    def test_int_and_float_of_one_number_hash_alike(self, a, b):
        """A config file may write a float field, or a preset or eps
        number, as an int; the run reads it as the float, so the hash
        does too."""
        a, b = ExperimentConfig.from_dict(a), ExperimentConfig.from_dict(b)
        assert validate(a) == validate(b) == []
        assert experiments._config_hash(a) == experiments._config_hash(b)

    def test_float_config_keeps_its_hash(self):
        args = _build_parser().parse_args(
            ["noise-stats", "--n", "64", "--paths", "50", "--seed", "7"])
        config = _config_from_args(args, args.command)
        assert experiments._config_hash(config) == "bcab63758990"

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(cfg(out_dir=str(a)))
        run(cfg(out_dir=str(b), threads=4))
        assert (a / "qv.csv").read_bytes() == (b / "qv.csv").read_bytes()

    @staticmethod
    def _csvs_by_threads(tmp_path, **base):
        """{threads: {csv name: bytes}} for threads 1 to 4."""
        out = {}
        for threads in range(1, 5):
            d = tmp_path / f"t{threads}"
            m = run(cfg(**base, out_dir=str(d), threads=threads))
            out[threads] = {f: (d / f).read_bytes() for f in m.files
                            if f.endswith(".csv")}
        return out

    def test_deterministic_rank2_malliavin(self, tmp_path):
        # 60 paths at n = 64 is a size at which splitting the simulation
        # by thread count moved the last digits of malliavin.csv.
        got = self._csvs_by_threads(tmp_path, kind="malliavin", q=2, n=64,
                                    paths=60, drift="sine")
        assert got[1] and all(got[k] == got[1] for k in got)

    @pytest.mark.parametrize("base", [
        dict(kind="density", q=1, n=64, paths=1000, drift="sine"),
        dict(kind="density", q=2, n=64, paths=1000, drift="sine"),
        dict(kind="flow", q=1, n=64, paths=60, drift="sine"),
        dict(kind="noise-stats", q=1, n=64, paths=200),
    ], ids=["density-q1", "density-q2", "flow", "noise-stats"])
    def test_csvs_do_not_depend_on_threads(self, tmp_path, monkeypatch, base):
        monkeypatch.setattr(experiments, "_PATHS_PER_WORKER", 1)
        got = self._csvs_by_threads(tmp_path, **base)
        assert got[1] and all(got[k] == got[1] for k in got)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    @pytest.mark.parametrize("paths, q", [
        pytest.param(p, q, id=str(p) if q == 1 else f"{p}-q2")
        for p in (3, 1300, 2057) for q in (1, 2)])
    def test_flow_slices_match_one_whole_solve(self, monkeypatch, paths, q,
                                               threads):
        """The weights recorded over the noise rows, slice by slice, against
        one fresh trajectory of the whole ensemble, for both ranks.  1300
        and 2057 paths end inside a product chunk and a path block."""
        monkeypatch.setattr(experiments, "_PATHS_PER_WORKER", 1)
        grid = TimeGrid(T=1.0, n=32)
        b = drift_preset("sine")
        z = simulate_ensemble(grid, HermiteSpec.create(q, 0.7), 5,
                              np.arange(paths))
        traj = backward_ensemble_trajectory(b, grid, z, 0.2, 0.0, 1.0)
        y, cw = experiments._flow_slices(b, grid, z, 0.2, 1.0, threads)
        assert np.array_equal(y, traj[0])
        assert np.array_equal(cw, _row_weights(b, grid, traj))

    def test_flow_pool_has_no_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(experiments, "_PATHS_PER_WORKER", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        asked = []

        class Recording(experiments.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
        grid = TimeGrid(T=1.0, n=32)
        b = drift_preset("sine")
        steps = np.random.default_rng(5).standard_normal((40, grid.n))
        z = np.zeros((40, grid.n + 1))
        z[:, 1:] = np.cumsum(steps, axis=1) * np.sqrt(grid.dt)
        traj = backward_ensemble_trajectory(b, grid, z, 0.2, 0.0, 1.0)
        y, cw = experiments._flow_slices(b, grid, z, 0.2, 1.0, 1000)
        assert asked == [1]
        assert np.array_equal(y, traj[0])
        assert np.array_equal(cw, _row_weights(b, grid, traj))

    def test_thread_count_follows_cpu_affinity(self, monkeypatch):
        """_flow_slices makes one weight march per worker, and has
        min(threads or CPUs, CPUs, paths // _PATHS_PER_WORKER) workers, at
        least one: 0 threads selects the CPUs this process may run on, or
        os.cpu_count() without affinity, and a narrow ensemble marches
        once at any thread count."""
        marches = []
        real = experiments._ensemble_weights

        def counting(*args, **kwargs):
            marches.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "_ensemble_weights", counting)
        grid = TimeGrid(T=1.0, n=16)
        b = drift_preset("sine")
        z = simulate_ensemble(grid, HermiteSpec.create(1, 0.7), 5,
                              np.arange(40))

        def count(threads, paths=40):
            marches.clear()
            experiments._flow_slices(b, grid, z[:paths].copy(), 0.2, 1.0,
                                     threads)
            return len(marches)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert [count(k) for k in (0, 1, 3, 1000)] == [1, 1, 1, 1]
        monkeypatch.setattr(experiments, "_PATHS_PER_WORKER", 20)
        assert [count(k) for k in (0, 1, 3, 1000)] == [2, 1, 2, 2]
        monkeypatch.setattr(experiments, "_PATHS_PER_WORKER", 1)
        assert [count(k) for k in (0, 1, 3, 1000)] == [4, 1, 3, 4]
        assert count(0, paths=3) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert [count(k) for k in (0, 1, 1000)] == [1, 1, 1]
        monkeypatch.delattr(os, "sched_getaffinity")
        assert [count(k) for k in (0, 1, 1000)] == [8, 1, 8]

    def test_seed_changes_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(cfg(out_dir=str(a)))
        run(cfg(out_dir=str(b), seed=4))
        assert (a / "qv.csv").read_bytes() != (b / "qv.csv").read_bytes()

    def test_zero_drift_flow_is_exact(self, tmp_path):
        m = run(cfg(kind="flow", drift="zero", n=128, paths=20,
                    out_dir=str(tmp_path)))
        check = m.checks[0]
        assert check["name"] == "round-trip-exact"
        assert check["passed"] and check["value"] <= 1e-12

    def test_drifted_flow_inverts(self, tmp_path):
        m = run(cfg(kind="flow", drift="sine", drift_params={"a": 0.4},
                    n=128, paths=20, out_dir=str(tmp_path)))
        assert m.passed and m.checks[0]["value"] <= 10.0 / 128

    def test_round_trip_gate_rejects_explicit_euler(self, tmp_path,
                                                    monkeypatch):
        """Negative control, chosen before any run: an explicit-Euler
        forward march does not invert the implicit backward flow.  At the
        README flow parameters its round trip misses by O(dt), inside the
        10 dt = 0.0195 that used to be the gate, so only a gate fixed by
        the step tolerance budget rejects it; the real forward flow
        passes that gate."""
        def euler(b, grid, z_values, x, s, t):
            for k in range(grid.index_of(s), grid.index_of(t)):
                x = x + grid.dt * b.b(grid.points[k], x) \
                    + (z_values[:, k + 1] - z_values[:, k])
            return x

        base = dict(kind="flow", drift="sine", n=512, paths=100)
        honest = run(cfg(**base, out_dir=str(tmp_path / "implicit"))).checks[0]
        assert honest["name"] == "round-trip" and honest["passed"]
        monkeypatch.setattr(experiments, "forward_ensemble", euler)
        euler_check = run(cfg(**base, out_dir=str(tmp_path / "euler"))).checks[0]
        assert euler_check["threshold"] == honest["threshold"]
        assert euler_check["value"] <= 10.0 / 512
        assert not euler_check["passed"]

    def test_bound_check_failure_is_reported_not_raised(self, tmp_path):
        m = run(cfg(kind="bound-check", drift="linear",
                    drift_params={"lam": 0.8}, n=128, paths=100,
                    out_dir=str(tmp_path)))
        assert not m.passed
        assert m.checks[0]["value"] == pytest.approx(2.0 - np.e**0.8, abs=1e-4)

    def test_density_runs_end_to_end(self, tmp_path):
        m = run(cfg(kind="density", drift="zero", u0="identity", n=128,
                    paths=1000, out_dir=str(tmp_path)))
        assert m.passed
        names = {c["name"] for c in m.checks}
        assert names == {"kde-mass", "no-atoms", "du-norm-positive"}

    def test_rank2_density_runs_end_to_end(self, tmp_path):
        m = run(cfg(kind="density", q=2, drift="sine", n=64, paths=1000,
                    out_dir=str(tmp_path)))
        assert m.passed
        checks = {c["name"]: c["value"] for c in m.checks}
        assert checks["du-norm-positive"] > 0.0

    @staticmethod
    def _density_peak(tmp_path, drift, q=1, n=1024):
        """The traced peak of a rank-q density run at n steps and 4,000
        paths, in (n+1) x paths arrays of doubles."""
        paths = 4000
        config = cfg(kind="density", q=q, n=n, paths=paths, drift=drift,
                     u0="tanh-floor", threads=2, out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            assert run(config).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / ((n + 1) * paths * 8)

    def test_rank1_density_peak_memory(self, tmp_path):
        """One array holds the driver, then the noise, then row by row the
        flow weights, whose slopes take two rows at a time.  The kernel
        matrix (0.26 of an array here, when this run builds it) comes on
        top.  The peak, 1.33 measured, is reached twice: while the kernel's
        row blocks are built beside the draw blocks, and in the norm, whose
        two (128, 1024) buffers are 0.03 of an array each."""
        assert self._density_peak(tmp_path, "sine") <= 1.4

    def test_rank1_zero_drift_density_peak_memory(self, tmp_path):
        """Zero drift needs no flow weights and marches to the end state
        only, so its norm is one number and the simulation sets the peak:
        1.33 measured."""
        assert self._density_peak(tmp_path, "zero") <= 1.4

    @pytest.mark.parametrize("drift", ["sine", "zero"])
    def test_rank2_density_peak_memory(self, tmp_path, drift):
        """The noise array, which becomes the flow weights, and the
        (paths, n) driver.  The sine drift's norm is the window pass's
        adjoint, one chunk of 256 paths at a time: its per-block state
        gradients, the chunk's (256, index(t)) accumulator and the pass's
        tables and buffers come on top, 2.758 measured with a cold plan and
        2.718 with a warm one.  A zero drift makes no window pass;
        its norm holds the pair-matrix rows, a third (paths, index(t))
        array, and its one pair matrix: 3.073 and 3.009.  The window plan
        counts when this run builds it."""
        bound = {"sine": 2.80, "zero": 3.16}[drift]
        assert self._density_peak(tmp_path, drift, q=2, n=256) <= bound


class TestCliMain:
    def test_run_exit_zero_and_summary(self, tmp_path, capsys):
        rc = main(["qv", "--n", "256", "--paths", "120", "--seed", "3",
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] qv-slope" in out and "manifest.json" in out

    def test_check_failure_exits_one(self, tmp_path):
        rc = main(["bound-check", "--drift", "linear", "--drift-param",
                   "lam=0.8", "--n", "128", "--paths", "100",
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_readme_rank2_bound_check_fails_below_the_slope_assumption(
            self, tmp_path):
        """The README's rank-2 bound-check exits 1 (min bracket 0.710032 at
        the default seed, one path at or below the 0.816 floor), and every
        such path has a slope integral below -0.1689: it breaks the
        assumption int_s^t b'(Y) >= -ln(1 + e^-1/2) that the floor rests
        on, which the detail reports next to the declared-norm floor."""
        assert main(["bound-check", "--q", "2", "--drift", "sine", "--n", "256",
                     "--paths", "200", "--out", str(tmp_path)]) == 1
        lines = [ln for ln in (tmp_path / "brackets.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "path_id,bracket,slope_integral"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        bracket, slope = rows[:, 1], rows[:, 2]
        low = ~(bracket > 1.0 - 0.5 * np.exp(-1.0))
        assert low.any() and np.all(slope[low] < -0.1689)
        assert bracket.min() == pytest.approx(0.710032, abs=1e-6)
        check = json.loads((tmp_path / "manifest.json").read_text())["checks"][0]
        assert f"{int(low.sum())} at or below the floor" in check["detail"]
        assert "declared sup|b'| ensures 0.351278" in check["detail"]

    def test_kde_mass_gate_fails_with_exit_one(self, tmp_path, capsys,
                                               monkeypatch):
        real = experiments.density_report
        monkeypatch.setattr(
            experiments, "density_report",
            lambda *a, **k: dataclasses.replace(real(*a, **k), mass=0.95))
        rc = main(["density", "--n", "128", "--paths", "1000",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "[FAIL] kde-mass: value=0.95" in capsys.readouterr().out
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == ["kde-mass"]

    def test_constant_sample_fails_its_gates_with_exit_one(self, tmp_path):
        """u0 = 0 maps every path to one value: the density gates report
        the atom instead of the KDE raising."""
        rc = main(["density", "--n", "64", "--paths", "1000", "--u0",
                   "affine", "--u0-param", "m=0", "--out", str(tmp_path)])
        assert rc == 1
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["passed"]] == [
            "kde-mass", "no-atoms", "du-norm-positive"]

    def test_usage_error_exits_two(self, tmp_path, capsys):
        rc = main(["qv", "--H", "0.4", "--paths", "120", "--out",
                   str(tmp_path)])
        assert rc == 2
        assert "H must lie" in capsys.readouterr().err

    def test_bad_param_syntax_exits_two(self, tmp_path, capsys):
        rc = main(["flow", "--drift-param", "novalue", "--out",
                   str(tmp_path)])
        assert rc == 2
        assert "key=value" in capsys.readouterr().err

    def test_validate_subcommand(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"kind": "flow", "n": 256, "paths": 10}))
        assert main(["validate", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "qv", "q": 3, "paths": 5}))
        rc = main(["validate", "--config", str(bad)])
        assert rc == 2
        assert "unsupported noise order" in capsys.readouterr().out

    @pytest.mark.parametrize("fields", [
        {"kind": "flow", "n": 10.5},
        {"paths": "7"},
        {"kind": "qv", "seed": 1.5},
        {"kind": "qv", "threads": True},
        {"kind": "qv", "H": "0.7"},
        {"kind": "qv", "t": False},
        {"kind": "flow", "drift_params": [5.0]},
        {"kind": "qv", "eps_schedule": 0.125},
    ])
    def test_mistyped_config_value_exits_two(self, tmp_path, capsys, fields):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(fields))
        assert main(["validate", "--config", str(path)]) == 2
        name = next(k for k in fields if k != "kind")
        assert f"{name} must be" in capsys.readouterr().out
        assert main(["qv", "--config", str(path), "--out",
                     str(tmp_path / "r")]) == 2

    def test_drift_too_steep_for_the_grid_exits_two(self, tmp_path, capsys):
        argv = ["--drift", "sine", "--drift-param", "a=5000", "--n", "16"]
        assert main(["validate", "--kind", "flow"] + argv) == 2
        assert "refine the grid" in capsys.readouterr().out
        assert main(["flow"] + argv + ["--out", str(tmp_path)]) == 2
        assert "refine the grid" in capsys.readouterr().err

    # 15 preset parameters that make the preset nan or infinite on its
    # validation sample; each comparison in a construction check is False
    # for nan, so these once validated.
    NON_FINITE = (
        [("drift", "constant", "lam", v) for v in ("nan", "inf", "-inf")]
        + [("drift", "linear", "lam", "nan"), ("drift", "sine", "a", "nan")]
        + [("u0", "affine", "m", v) for v in ("nan", "inf", "-inf", "1e308")]
        + [("u0", "affine", "c", v) for v in ("nan", "inf", "-inf")]
        + [("u0", "offset-tanh", "level", v) for v in ("nan", "inf", "-inf")])

    @pytest.mark.parametrize("which, preset, param, value", NON_FINITE)
    def test_non_finite_preset_exits_two(self, capsys, which, preset, param,
                                         value):
        argv = ["validate", "--kind", "density", "--paths", "1000",
                f"--{which}", preset, f"--{which}-param", f"{param}={value}"]
        assert main(argv) == 2
        assert f"{which} preset {preset!r}" in capsys.readouterr().out

    def test_non_finite_preset_run_exits_two(self, tmp_path, capsys):
        argv = ["density", "--paths", "1000", "--n", "64", "--u0",
                "offset-tanh", "--u0-param", "level=inf", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "u0 preset 'offset-tanh'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", experiments.KINDS)
    def test_weak_form_alone_defaults_to_the_offset_datum(self, kind):
        """transport-weakform defaults to offset-tanh, whose residual passes
        its gate; every other kind keeps identity and its config hash."""
        config = ExperimentConfig(kind)
        want = "offset-tanh" if kind == "transport-weakform" else "identity"
        assert config.u0 == want
        assert experiments._config_hash(config) == experiments._config_hash(
            ExperimentConfig(kind, u0=want))
        assert ExperimentConfig.from_dict({"kind": kind}).u0 == want

    def test_huge_finite_preset_validates(self):
        """b = 1e308 is finite everywhere, so it stays a valid drift."""
        assert main(["validate", "--kind", "flow", "--drift", "constant",
                     "--drift-param", "lam=1e308"]) == 0

    # transport-weakform is left out: its README run takes about 20 s.
    # TestRun.test_weakform_runner_at_smoke_size covers its runner.
    @pytest.mark.parametrize("kind", ["noise-stats", "qv", "flow", "malliavin",
                                      "density", "bound-check"])
    def test_readme_example_passes(self, tmp_path, kind):
        assert main(readme_command(kind, tmp_path)) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        again = ExperimentConfig.from_dict(manifest["config"])
        assert validate(again) == []
        assert experiments._config_hash(again) == manifest["config_hash"]

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_readme_config_is_a_reproduction_recipe(self, argv):
        """The config that a README command writes into its manifest
        validates clean as a config file and keeps its hash."""
        args = _build_parser().parse_args(argv)
        config = _config_from_args(args, args.command)
        stored = json.loads(json.dumps(config.to_dict()))
        again = ExperimentConfig.from_dict(stored)
        assert validate(again) == []
        assert experiments._config_hash(again) == experiments._config_hash(config)

    def test_readme_table_of_read_fields_matches_the_kinds(self):
        lines = README.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("| kind |"))
        table = {}
        for line in lines[at + 2:]:
            if not line.startswith("|"):
                break
            kind, fewest, reads = (
                c.strip() for c in line.strip().strip("|").split("|"))
            table[kind.strip("`")] = (int(fewest),
                                      set(re.findall(r"`([^`]+)`", reads)))
        assert list(table) == list(experiments.KINDS)
        assert table == {k: (v.min_paths, set(v.reads))
                         for k, v in experiments._KINDS.items()}

    @pytest.mark.parametrize("argv", [
        ["validate", "--kind", "qv", "--eps", "inf", "--eps", "0.25",
         "--eps", "0.125"],
        ["qv", "--eps", "inf", "--eps", "0.25", "--eps", "0.125"],
        ["transport-weakform", "--n", "64", "--paths", "1",
         "--mollifier-eps", "inf"],
        ["validate", "--kind", "qv", "--eps", "0.5", "--eps", "nan",
         "--eps", "0.125"],
    ])
    def test_non_finite_width_exits_two(self, tmp_path, capsys, argv):
        """An infinite width once escaped validate as an OverflowError."""
        if argv[0] != "validate":
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid:" in captured.out + captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not any(tmp_path.iterdir())

    def test_validate_refuses_short_qv_schedule(self, capsys):
        rc = main(["validate", "--kind", "qv", "--eps", "0.125",
                   "--eps", "0.0625"])
        assert rc == 2
        assert "at least 3 eps values" in capsys.readouterr().out

    def test_default_qv_schedule_too_fine_for_the_grid_exits_two(
            self, tmp_path, capsys):
        """The default schedule ends at T/128, one step at n = 128."""
        argv = ["--n", "128", "--paths", "100"]
        assert main(["validate", "--kind", "qv"] + argv) == 2
        assert "must be at least 2*dt" in capsys.readouterr().out
        assert main(["qv"] + argv + ["--out", str(tmp_path)]) == 2
        assert "must be at least 2*dt" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["noise-stats"],
                                      ["malliavin", "--q", "2"]])
    def test_one_path_has_no_standard_error_and_exits_two(
            self, tmp_path, capsys, argv):
        rc = main(argv + ["--n", "64", "--paths", "1", "--out", str(tmp_path)])
        assert rc == 2
        floor = experiments._KINDS[argv[0]].min_paths
        assert f"needs at least {floor} paths" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("argv, field", [
        (["density", "--s", "0.5"], "s"),
        (["qv", "--s", "0.25"], "s"),
        (["transport-weakform", "--s", "0.25"], "s"),
        (["noise-stats", "--s", "0.5"], "s"),
        (["noise-stats", "--t", "0.25"], "t"),
        (["noise-stats", "--x0", "3"], "x0"),
        (["qv", "--drift", "sine"], "drift"),
        (["flow", "--u0", "affine"], "u0"),
        (["density", "--eps", "0.1"], "eps_schedule"),
    ], ids=["density-s", "qv-s", "weakform-s", "noise-stats-s",
            "noise-stats-t", "noise-stats-x0", "qv-drift", "flow-u0",
            "density-eps"])
    def test_window_time_the_kind_never_reads_exits_two(
            self, tmp_path, capsys, argv, field):
        """A window time, or any other field, that the runner ignores
        would still change the config hash, so it is refused and named."""
        rc = main(argv + ["--n", "64", "--paths", "1000",
                          "--out", str(tmp_path)])
        assert rc == 2
        assert f"does not read {field};" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_noise_stats_window_times_are_named_not_ordered(self, capsys):
        assert main(["validate", "--kind", "noise-stats", "--s", "0.5",
                     "--t", "0.25"]) == 2
        out = capsys.readouterr().out
        assert "does not read s" in out and "does not read t" in out
        assert "0 <= s < t" not in out

    def test_malliavin_reads_its_window_start(self, tmp_path):
        assert main(["malliavin", "--s", "0.25", "--n", "64", "--paths", "10",
                     "--out", str(tmp_path)]) == 0

    def test_two_noise_stats_paths_exit_two(self, tmp_path, capsys):
        """Two paths have equal |deviations| from their mean, so the
        variance and covariance standard errors vanish."""
        rc = main(["noise-stats", "--n", "16", "--paths", "2",
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "needs at least 3 paths" in capsys.readouterr().err

    def test_three_noise_stats_paths_write_finite_z(self, tmp_path):
        assert main(["noise-stats", "--n", "16", "--paths", "3",
                     "--out", str(tmp_path)]) in (0, 1)
        for name, column in (("stats.csv", "z_var"), ("covariance.csv", "z")):
            lines = [ln for ln in (tmp_path / name).read_text().splitlines()
                     if not ln.startswith("#")]
            at = lines[0].split(",").index(column)
            z = np.array([float(ln.split(",")[at]) for ln in lines[1:]])
            assert z.size and np.all(np.isfinite(z)), name
            assert np.all(np.abs(z) < 1e3), name

    def test_flags_override_config_file(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(
            {"kind": "flow", "n": 128, "paths": 10, "drift": "zero",
             "seed": 5}))
        rc = main(["flow", "--config", str(cfile), "--drift", "sine",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        stored = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert stored["config"]["drift"] == "sine"
        assert stored["config"]["n"] == 128

    def test_missing_config_file_exits_two(self, capsys):
        assert main(["qv", "--config", "/no/such/file.json"]) == 2

    def test_parse_params(self):
        assert _parse_params(["lam=0.5", "a=2"]) == {"lam": 0.5, "a": 2.0}
        assert _parse_params(None) == {}
        with pytest.raises(ValueError):
            _parse_params(["oops"])
