"""Tests for the offline/online solver, residuals, scalar probe, and
model persistence."""

import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pnlevp
from pnlevp import benchmarks, paaa, solver
from pnlevp.contour import (Disk, ProbedSampleSet, build_trapezoid_rule,
                            default_sampling, probe_samples)
from pnlevp.errors import EvaluationError, ModelFormatError
from pnlevp.paaa import BarycentricModel2D, eval_collapsed, paaa_fit
from pnlevp.problems import (LinearDemoProblem, PNlevpProblem,
                             SyntheticRationalProblem, get_problem)
from pnlevp.solver import (EigenSolution, OfflineModel, load_model, offline,
                           online, residuals, save_model,
                           scalar_probe_eigenvalues, write_atomic)


@pytest.fixture(scope="module")
def linear1():
    """Offline model for the 3x3 linear problem on Disk(0, 0.6)."""
    problem = LinearDemoProblem()
    domain = Disk(0.0, 0.6)
    config = default_sampling(domain, 20, 40, (0.75, 1.25), seed=0,
                              dim=problem.dim)
    model = offline(problem, domain, config, 512)
    return problem, model


@pytest.fixture(scope="module")
def delay():
    """Offline model of the pinned delay set-up (4 theta and 1 sigma lie on
    z-node lines)."""
    problem = get_problem("delay")
    domain = Disk(0.0, 0.075)
    config = default_sampling(domain, 20, 40, (30.0, 35.0), seed=0,
                              dim=problem.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = offline(problem, domain, config, 128, fit_opts={"tol": 1e-11})
    return problem, model


@pytest.fixture(scope="module")
def synthetic3():
    """Offline model for a synthetic rational problem with 3 poles."""
    domain = Disk(0.0, 1.0)
    problem = SyntheticRationalProblem.inside_domain(domain, 3, (0.0, 1.0),
                                                     seed=21)
    config = default_sampling(domain, 8, 12, (0.0, 1.0), seed=4,
                              dim=problem.dim)
    model = offline(problem, domain, config, 256)
    return problem, model


class TestOffline:
    def test_linear_demo_m2_converged(self, linear1):
        _, model = linear1
        assert model.m == 2
        assert model.metadata["converged"]
        assert len(model.scalar_model.z_nodes) >= 3
        shape = (20, len(model.scalar_model.p_nodes), 3)
        assert model.left_vals.shape == shape
        assert model.right_vals.shape == shape

    def test_single_parameter_rejected(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 4, 1, (1.0, 1.0), seed=0,
                                  dim=problem.dim)
        with pytest.raises(ValueError):
            offline(problem, domain, config, 64)

    def test_unknown_fit_option_rejected(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 4, 4, (0.75, 1.25), seed=0,
                                  dim=problem.dim)
        with pytest.raises(ValueError):
            offline(problem, domain, config, 64, fit_opts={"bogus": 1})

    def test_nonconverged_fit_warns(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 6, 6, (0.75, 1.25), seed=0,
                                  dim=problem.dim)
        with pytest.warns(UserWarning, match="did not reach tolerance"):
            model = offline(problem, domain, config, 32, fit_opts={"tol": 0.0})
        assert not model.metadata["converged"]

    def test_offline_works_from_H_alone(self, delay, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("offline used a directional sample path")

        monkeypatch.setattr(PNlevpProblem, "solve_left", refuse)
        monkeypatch.setattr(PNlevpProblem, "solve_right", refuse)
        # nor does it build per-direction vector models
        monkeypatch.setattr(paaa, "lift_vector", refuse)
        monkeypatch.setattr(solver, "lift_vector", refuse)
        # nor does it form the (r, 2r, q, n) tangential tensors
        monkeypatch.setattr(ProbedSampleSet, "left", property(refuse))
        monkeypatch.setattr(ProbedSampleSet, "right", property(refuse))
        problem = get_problem("delay")
        domain = Disk(0.0, 0.075)
        config = default_sampling(domain, 20, 40, (30.0, 35.0), seed=0,
                                  dim=problem.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            model = offline(problem, domain, config, 128,
                            fit_opts={"tol": 1e-11})
        assert model.m == 4
        np.testing.assert_array_equal(model.scalar_model.coeffs,
                                      delay[1].scalar_model.coeffs)

    def test_fit_error_describes_lifts(self):
        # tangential_error measures what online reads against the probed
        # tangential data at every parameter sample, on both sides, and
        # converged follows it: delay's refit stack misses 1e-11, but what
        # online reads does not, so offline does not warn
        problem = get_problem("delay")
        domain = Disk(0.0, 0.075)
        config = default_sampling(domain, 20, 40, (30.0, 35.0), seed=0,
                                  dim=problem.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            model = offline(problem, domain, config, 128,
                            fit_opts={"tol": 1e-11})
        samples = probe_samples(problem, build_trapezoid_rule(domain, 128),
                                config, domain)
        want = np.concatenate([
            samples.left[np.arange(config.r), config.left_indices],
            samples.right[np.arange(config.r), config.right_indices]])
        worst = 0.0
        for j, pj in enumerate(config.parameter_points):
            got = eval_collapsed(model.collapsed, pj)
            worst = max(worst, np.max(
                np.linalg.norm(got - want[:, j], axis=1)
                / np.linalg.norm(want[:, j], axis=1)))
        error = model.metadata["tangential_error"]
        assert model.metadata["max_fit_error"] == model.scalar_model.max_error
        assert error <= 10 * model.metadata["max_fit_error"]
        np.testing.assert_allclose(error, worst, rtol=1e-3)
        assert not model.scalar_model.converged
        assert model.metadata["converged"] and error <= 1e-11

    def test_single_blas_thread_builds_same_model(self, delay):
        # the pinned delay model built in a child process on one BLAS thread
        _, model = delay
        script = (
            "import json, warnings\n"
            "from pnlevp.benchmarks import BENCHMARKS, build_offline\n"
            "from pnlevp.solver import online\n"
            "warnings.simplefilter('ignore')\n"
            "_, model = build_offline(BENCHMARKS['delay'])\n"
            "lam = online(model, 32.5).eigenvalues\n"
            "print(json.dumps({'m': model.m,\n"
            "    'degrees': [model.metadata['z_degree'],\n"
            "                model.metadata['p_degree']],\n"
            "    'converged': model.metadata['converged'],\n"
            "    'eigenvalues': [lam.real.tolist(), lam.imag.tolist()]}))\n"
        )
        src_dir = os.path.dirname(os.path.dirname(pnlevp.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child["m"] == model.m
        assert child["degrees"] == [model.metadata["z_degree"],
                                    model.metadata["p_degree"]]
        assert child["converged"] == model.metadata["converged"]
        re, im = child["eigenvalues"]
        np.testing.assert_allclose(np.array(re) + 1j * np.array(im),
                                   online(model, 32.5).eigenvalues,
                                   rtol=0, atol=1e-10)


class TestCollapsedLifts:
    @pytest.mark.parametrize("name", ["delay", "linear1"])
    def test_matches_eval_model(self, name, request):
        # against sum_j c_j d_kj v_kj / sum_j c_j d_kj, c_j = 1/(p - pi_j),
        # d_kj = sum_i a_ij/(z_k - xi_i) or a_ij on the z-node line of xi_i
        problem, model = request.getfixturevalue(name)
        config = model.config
        scalar = model.scalar_model
        samples = probe_samples(
            problem, build_trapezoid_rule(model.domain, model.metadata["N"]),
            config, model.domain)
        pj = paaa.node_indices(scalar.p_nodes, config.parameter_points)
        rng = np.random.default_rng(5)
        lo, hi = config.parameter_points.real[[0, -1]]
        p_off = list(rng.uniform(lo, hi, 5))
        p_off.append((lo + hi) / 2 + 0.01j * (hi - lo))
        on_line = 0
        # theta_1..theta_r, then sigma_1..sigma_r
        points = np.concatenate([config.left_points, config.right_points])
        vals = np.concatenate([model.left_vals, model.right_vals])
        rows = np.concatenate([
            samples.left[np.arange(config.r), config.left_indices],
            samples.right[np.arange(config.r), config.right_indices]])
        # the stored values are the exact samples at the p-nodes
        np.testing.assert_allclose(vals, rows[:, pj], rtol=1e-14, atol=0)
        for k, z in enumerate(points):
            line = np.flatnonzero(np.abs(z - scalar.z_nodes) <= 1e-14)
            on_line += len(line)
            d = (scalar.coeffs[line[0]] if len(line)
                 else (1.0 / (z - scalar.z_nodes)) @ scalar.coeffs)
            for p_hat in p_off:
                c = d / (p_hat - scalar.p_nodes)
                want = (c @ vals[k]) / np.sum(c)
                got = eval_collapsed(model.collapsed, complex(p_hat))[k]
                assert (np.linalg.norm(got - want)
                        <= 1e-13 * np.linalg.norm(want))
        for j in range(len(scalar.p_nodes)):
            np.testing.assert_allclose(
                eval_collapsed(model.collapsed, scalar.p_nodes[j]),
                rows[:, pj[j]], rtol=1e-14, atol=0)
        if name == "delay":
            assert on_line == 5

    def test_vanishing_denominator_raises(self):
        # one z-node and two p-nodes with equal coefficients: at p = 0.5 the
        # two p-terms cancel exactly in every denominator
        domain = Disk(0.0, 1.0)
        config = default_sampling(domain, 1, 2, (0.0, 1.0), seed=0, dim=1)
        coeffs = np.ones((1, 2), dtype=complex) / np.sqrt(2.0)
        scalar = BarycentricModel2D(
            z_nodes=np.array([0.0j]), p_nodes=np.array([0.0j, 1.0 + 0j]),
            coeffs=coeffs, node_values=np.ones((1, 2), dtype=complex))
        vals = np.ones((1, 2, 1), dtype=complex)
        model = OfflineModel(domain=domain, config=config, m=1,
                             scalar_model=scalar, left_vals=vals,
                             right_vals=vals)
        with pytest.raises(EvaluationError):
            eval_collapsed(model.collapsed, 0.5)
        with pytest.raises(EvaluationError, match="denominator underflow"):
            online(model, 0.5)


class TestOnline:
    @pytest.mark.parametrize("p_hat", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_parameter_rejected(self, linear1, p_hat):
        _, model = linear1
        with pytest.raises(ValueError, match=r"parameter p = .* is not finite"):
            online(model, p_hat)

    def test_linear_demo_eigenvalues(self, linear1):
        problem, model = linear1
        sol = online(model, 0.75)
        got = np.sort_complex(sol.eigenvalues)
        np.testing.assert_allclose(got, [-0.5, 0.5], atol=1e-8)
        assert max(residuals(problem, sol)) <= 1e-10
        assert sol.in_domain.all()

    def test_defective_parameter(self, linear1):
        problem, model = linear1
        sol = online(model, 1.0)
        assert len(sol.eigenvalues) == 2
        np.testing.assert_allclose(sol.eigenvalues, 0.0, atol=1e-4)
        assert max(residuals(problem, sol)) <= 1e-8

    def test_exact_recovery_chain(self, synthetic3):
        problem, model = synthetic3
        rng = np.random.default_rng(9)
        for p_hat in rng.uniform(0.0, 1.0, size=50):
            sol = online(model, p_hat)
            truth = np.sort_complex(problem.eigenvalues_at(p_hat))
            got = np.sort_complex(sol.eigenvalues)
            assert len(got) == 3
            np.testing.assert_allclose(got, truth, atol=1e-8)

    def test_determinism(self, synthetic3):
        _, model = synthetic3
        a = online(model, 0.377)
        b = online(model, 0.377)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.W, b.W)

    def test_sorted_output(self, synthetic3):
        _, model = synthetic3
        lam = online(model, 0.61).eigenvalues
        key = list(zip(lam.real, lam.imag))
        assert key == sorted(key)

    def test_sweep_answers_each_parameter_by_one_online_call(
            self, synthetic3, monkeypatch):
        # the benchmark times every answer by wrapping benchmarks.online
        problem, model = synthetic3
        asked = []

        def counted(model, p_hat):
            asked.append(p_hat)
            return online(model, p_hat)

        monkeypatch.setattr(benchmarks, "online", counted)
        p_values = np.linspace(0.1, 0.9, 5)
        data = benchmarks.sweep(problem, model, p_values)
        np.testing.assert_array_equal(asked, p_values)
        assert np.isfinite(data["max_residuals"]).all()

    def test_extrapolation_warns(self, linear1):
        _, model = linear1
        with pytest.warns(UserWarning, match="outside the sampled range"):
            online(model, 5.0)

    def test_inside_range_does_not_warn(self, linear1):
        _, model = linear1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            online(model, 1.1)


class TestResiduals:
    def test_exact_eigenpair_zero(self):
        problem = LinearDemoProblem()
        v = np.array([1.0, 0.5, -2.0], dtype=complex)
        sol = EigenSolution(
            p_hat=0.75, eigenvalues=np.array([0.5 + 0j]),
            V=v[:, None], W=v[:, None], in_domain=np.array([True]),
        )
        assert residuals(problem, sol)[0] <= 1e-14

    def test_random_vector_large_residual(self):
        problem = LinearDemoProblem()
        rng = np.random.default_rng(12)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sol = EigenSolution(
            p_hat=0.75, eigenvalues=np.array([0.123 + 0.3j]),
            V=v[:, None], W=v[:, None], in_domain=np.array([False]),
        )
        assert residuals(problem, sol)[0] > 1e-3

    def test_empty_solution_rejected(self):
        problem = LinearDemoProblem()
        sol = EigenSolution(
            p_hat=0.75, eigenvalues=np.array([], dtype=complex),
            V=np.zeros((3, 0)), W=np.zeros((3, 0)),
            in_domain=np.array([], dtype=bool),
        )
        with pytest.raises(ValueError):
            residuals(problem, sol)

    def test_zero_eigenvector_rejected(self):
        problem = LinearDemoProblem()
        sol = EigenSolution(
            p_hat=0.75, eigenvalues=np.array([0.5 + 0j]),
            V=np.zeros((3, 1)), W=np.zeros((3, 1)),
            in_domain=np.array([True]),
        )
        with pytest.raises(ValueError):
            residuals(problem, sol)


class TestScalarProbe:
    def test_moving_pole(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
        poles = scalar_probe_eigenvalues(model, 0.3)
        assert len(poles) == 1
        assert abs(poles[0] - 0.3) <= 1e-12

    def test_parameter_on_node(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
        p_node = model.p_nodes[0]
        poles = scalar_probe_eigenvalues(model, p_node)
        assert abs(poles[0] - p_node) <= 1e-10

    def test_linear_demo_model(self, linear1):
        _, model = linear1
        poles = scalar_probe_eigenvalues(model, 0.75)
        inside = [z for z in poles if model.domain.contains(z)]
        got = np.sort_complex(np.array(inside))
        np.testing.assert_allclose(got, [-0.5, 0.5], atol=1e-8)

    def test_multiplicity_not_visible(self):
        # H(z, p) = I/(z - p): two coincident eigenvalues, but the scalar
        # probe sees a single pole at p_hat
        class ShiftIdentity(PNlevpProblem):
            dim = 2

            def eval(self, z, p):
                return (z - p) * np.eye(2, dtype=complex)

        problem = ShiftIdentity()
        domain = Disk(0.0, 0.5)
        config = default_sampling(domain, 6, 6, (0.0, 0.2), seed=1,
                                  dim=problem.dim)
        model = offline(problem, domain, config, 128)
        assert model.m == 2
        sol = online(model, 0.1)
        np.testing.assert_allclose(sol.eigenvalues, [0.1, 0.1], atol=1e-8)
        poles = scalar_probe_eigenvalues(model, 0.1)
        inside = [z for z in poles if domain.contains(z)]
        assert len(inside) == 1
        assert abs(inside[0] - 0.1) <= 1e-8


    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_cancelled_poles_dropped(self, seed):
        # a semi-simple eigenvalue leaves the scalar with one distinct pole
        # but m + 1 = 3 z-nodes; the extra arrowhead pole has a negligible
        # residue and is not reported, wherever it lands
        problem = _ShiftIdentity()
        domain = Disk(0.0, 0.5)
        config = default_sampling(domain, 6, 6, (0.0, 0.2), seed=seed,
                                  dim=problem.dim)
        model = offline(problem, domain, config, 128)
        poles = scalar_probe_eigenvalues(model, 0.1)
        assert len(poles) == 1
        assert abs(poles[0] - 0.1) <= 1e-8


class _ShiftIdentity(PNlevpProblem):
    """T(z, p) = (z - p) I: one semi-simple eigenvalue p of multiplicity 2."""

    dim = 2

    def eval(self, z, p):
        return (z - p) * np.eye(2, dtype=complex)


class TestPersistence:
    def test_round_trip_field_equality(self, linear1, tmp_path):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.m == model.m
        assert loaded.domain == model.domain
        np.testing.assert_array_equal(loaded.config.sample_points,
                                      model.config.sample_points)
        np.testing.assert_array_equal(loaded.config.parameter_points,
                                      model.config.parameter_points)
        np.testing.assert_array_equal(loaded.config.left_dirs,
                                      model.config.left_dirs)
        np.testing.assert_array_equal(loaded.config.right_dirs,
                                      model.config.right_dirs)
        np.testing.assert_array_equal(loaded.scalar_model.z_nodes,
                                      model.scalar_model.z_nodes)
        np.testing.assert_array_equal(loaded.scalar_model.p_nodes,
                                      model.scalar_model.p_nodes)
        np.testing.assert_array_equal(loaded.scalar_model.coeffs,
                                      model.scalar_model.coeffs)
        np.testing.assert_array_equal(loaded.scalar_model.node_values,
                                      model.scalar_model.node_values)
        np.testing.assert_array_equal(loaded.left_vals, model.left_vals)
        np.testing.assert_array_equal(loaded.right_vals, model.right_vals)
        assert loaded.metadata == model.metadata

    def test_truncated_file_rejected(self, linear1, tmp_path):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    # version 1 stored per-direction lifts, not the exact samples
    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch_rejected(self, linear1, tmp_path, version):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format version"):
            load_model(path)

    def test_loaded_model_answers_bit_identical(self, delay, tmp_path):
        _, model = delay
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        p_values = list(np.linspace(30.0, 35.0, 8)) + [
            model.scalar_model.p_nodes[1], 32.1 + 0.05j]
        for p_hat in p_values:
            a, b = online(model, p_hat), online(loaded, p_hat)
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.V, b.V)
            np.testing.assert_array_equal(a.W, b.W)

    def test_write_atomic_leaves_umask_alone(self, tmp_path, monkeypatch):
        # the umask is process-wide; reading it by setting it would give
        # files made meanwhile by other threads mode 0o666
        umask = os.umask(0o022)
        os.umask(umask)

        def refused(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refused)
        path = tmp_path / "out.txt"
        write_atomic(path, "first")
        write_atomic(path, "second")
        assert path.read_text() == "second"
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_load_then_online_bit_exact(self, linear1, tmp_path):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        a = online(model, 0.87)
        b = online(loaded, 0.87)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.V, b.V)
        np.testing.assert_array_equal(a.W, b.W)


def test_benchmark_tracer_binds_every_wrapped_name():
    # pnlbench/spans.py wraps package functions by name; a name it wraps
    # that the package no longer has fails here
    import importlib.util

    from pnlevp import benchmarks, cli, loewner, problems

    path = os.path.join(os.path.dirname(__file__), os.pardir, "pnlbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("pnlbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    owners = (solver, cli, benchmarks, loewner, problems.PNlevpProblem)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_every_exported_name_resolves():
    # a stale entry of pnlevp.__all__ fails `from pnlevp import *`
    src_dir = os.path.dirname(os.path.dirname(pnlevp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "from pnlevp import *"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
