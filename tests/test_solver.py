"""Tests for the offline/online solver, residuals, scalar probe, and
model persistence."""

import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import pnlevp
from pnlevp import benchmarks, contour, loewner, paaa, solver
from pnlevp.contour import (Disk, Ellipse, build_trapezoid_rule,
                            default_sampling, probe_samples)
from pnlevp.errors import BranchCutError, EvaluationError, ModelFormatError
from pnlevp.paaa import BarycentricModel2D, eval_collapsed, paaa_fit
from pnlevp.problems import (DampedStringProblem, LinearDemoProblem,
                             PNlevpProblem, SyntheticRationalProblem,
                             get_problem)
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
def damped_string1():
    """Offline model of the pinned damped-string-1 set-up."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return benchmarks.build_offline(
            benchmarks.get_benchmark("damped-string-1"))


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
            offline(problem, domain, config, 32)

    @pytest.mark.parametrize("r, q", [(4, 2), (1, 4)])
    def test_too_few_parameters_or_directions_rejected(self, r, q):
        # q = 2 makes both parameter samples p-nodes, so the verdict would
        # see no held-out parameter; r = 1 makes both sample points z-nodes
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, r, q, (0.75, 1.25), seed=0,
                                  dim=problem.dim)
        with pytest.raises(ValueError, match=f"q >= 3 .* r >= 2 .* got "
                                             f"q = {q}, r = {r}"):
            offline(problem, domain, config, 64)

    def test_zero_scalar_rejected(self):
        # the last left direction cancels the others, so the mean left
        # direction, and with it the scalar the fit chooses its nodes on, is
        # exactly 0, and a fit on it would give a model constant in p
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 8, 12, (0.75, 1.25), seed=2,
                                  dim=problem.dim)
        left = config.left_dirs.copy()
        left[-1] = -left[:-1].sum(axis=0)
        config = replace(config, left_dirs=left)
        assert not np.any(config.left_dirs.mean(axis=0))
        with pytest.raises(ValueError, match="probed scalar .* is 0 at every "
                                             "sample: the probing directions "
                                             "of one side sum to zero"):
            offline(problem, domain, config, 256)

    def test_unknown_fit_option_rejected(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 4, 4, (0.75, 1.25), seed=0,
                                  dim=problem.dim)
        # the rank tolerance is loewner.RANK_TOL, not a fit option
        for opts in ({"bogus": 1}, {"rank_tol": 1e-8}):
            with pytest.raises(ValueError, match="unknown fit options"):
                offline(problem, domain, config, 64, fit_opts=opts)

    def test_nonconverged_fit_warns(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 6, 6, (0.75, 1.25), seed=0,
                                  dim=problem.dim)
        with pytest.warns(UserWarning, match="did not reach tolerance"):
            model = offline(problem, domain, config, 32, fit_opts={"tol": 0.0})
        assert not model.metadata["converged"]

    @pytest.mark.parametrize("r, fills", [(3, True), (20, False)])
    def test_rank_filling_every_direction_warns(self, caplog, r, fills):
        # delay has 4 eigenvalues in the disk: 3 directions see only 3
        problem = get_problem("delay")
        domain = Disk(0.0, 0.075)
        config = default_sampling(domain, r, 8, (30.0, 35.0), seed=0,
                                  dim=problem.dim)
        with warnings.catch_warnings(record=True) as caught, \
                caplog.at_level("DEBUG", logger="pnlevp.loewner"):
            warnings.simplefilter("always")
            model = offline(problem, domain, config, 128)
        assert model.m == min(r, 4)
        filled = [w for w in caught if issubclass(w.category, UserWarning)
                  and "more than r eigenvalues" in str(w.message)]
        assert len(filled) == fills
        [record] = [rec for rec in caplog.records
                    if rec.getMessage().startswith("rank check")]
        assert ("more than r eigenvalues" in record.getMessage()) == fills

    def test_offline_works_from_H_alone(self, delay, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("offline used a directional sample path")

        monkeypatch.setattr(PNlevpProblem, "solve_left", refuse)
        monkeypatch.setattr(PNlevpProblem, "solve_right", refuse)
        # nor does it build per-direction vector models
        monkeypatch.setattr(paaa, "lift_vector", refuse)
        monkeypatch.setattr(solver, "lift_vector", refuse)
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
        want = np.concatenate([samples.left, samples.right])
        worst = 0.0
        for j, pj in enumerate(config.parameter_points):
            got = eval_collapsed(model.collapsed, pj)[0]
            worst = max(worst, np.max(
                np.linalg.norm(got - want[:, j], axis=1)
                / np.linalg.norm(want[:, j], axis=1)))
        error = model.metadata["tangential_error"]
        assert model.metadata["max_fit_error"] == model.scalar_model.max_error
        assert error <= 10 * model.metadata["max_fit_error"]
        np.testing.assert_allclose(error, worst, rtol=1e-3)
        assert model.scalar_model.max_error > 1e-11
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
        rows = np.concatenate([samples.left, samples.right])
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
                got = eval_collapsed(model.collapsed, complex(p_hat))[0][k]
                assert (np.linalg.norm(got - want)
                        <= 1e-13 * np.linalg.norm(want))
        for j in range(len(scalar.p_nodes)):
            np.testing.assert_allclose(
                eval_collapsed(model.collapsed, scalar.p_nodes[j])[0],
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
        # the verdict evaluates every parameter sample at once and refuses
        # the same point
        config = default_sampling(domain, 1, 3, (0.0, 1.0), seed=0, dim=1)
        model = replace(model, config=config)
        with pytest.raises(EvaluationError,
                           match=r"denominator underflow at p=\(0\.5\+0j\)"):
            solver._tangential_error(model, np.ones((2, 3, 1)))

    @pytest.mark.parametrize("name", ["delay", "damped_string1"])
    def test_verdict_is_online_at_every_sample(self, name, request):
        # the tangential error evaluates all q samples with one Cauchy
        # matrix: the same values as eval_collapsed, one sample at a time
        _, model = request.getfixturevalue(name)
        p = model.config.parameter_points
        shape = (2 * model.config.r, len(p), model.config.left_dirs.shape[1])
        want = np.random.default_rng(3).standard_normal(shape) + 1j
        got = np.stack([eval_collapsed(model.collapsed, pj)[0] for pj in p],
                       axis=1)
        err = (np.linalg.norm(got - want, axis=2)
               / np.linalg.norm(want, axis=2)).max()
        assert solver._tangential_error(model, want) == pytest.approx(
            err, rel=1e-13)


class TestOnline:
    @pytest.mark.parametrize("p_hat", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_non_finite_parameter_rejected(self, linear1, p_hat):
        _, model = linear1
        with pytest.raises(ValueError, match=r"parameter p = .* is not finite"):
            online(model, p_hat)

    def test_saved_rank_tol_is_not_read(self, delay, tmp_path):
        # metadata["rank_tol"] records the build's loewner.RANK_TOL; online
        # truncates at RANK_TOL whatever the file says
        _, model = delay
        path = tmp_path / "model.json"
        save_model(model, path)
        want = online(load_model(path), 32.5)
        doc = json.loads(path.read_text())
        for value in ("x", float("nan"), 1e-8, None):
            if value is None:
                del doc["metadata"]["rank_tol"]
            else:
                doc["metadata"]["rank_tol"] = value
            path.write_text(json.dumps(doc))
            got = online(load_model(path), 32.5)
            np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
            np.testing.assert_array_equal(got.V, want.V)
            np.testing.assert_array_equal(got.W, want.W)

    @pytest.mark.parametrize("name", ["linear1", "delay", "synthetic3"])
    def test_rank_counts_every_eigenvalue(self, name, request):
        # kept and discarded eigenvalues make up the truncation rank, which
        # the model order caps
        _, model = request.getfixturevalue(name)
        lo, hi, mid = model.p_window
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # extrapolation
            for p_hat in [*np.linspace(lo, hi, 7),
                          model.scalar_model.p_nodes[1],
                          complex(0.5 * (lo + hi), mid + 0.1 * (hi - lo)),
                          hi + 2.0 * (hi - lo)]:
                sol = online(model, p_hat)
                d = sol.diagnostics
                assert (d["rank"] == len(sol.eigenvalues)
                        + d["discarded_infinite"] <= model.m)

    def test_answers_without_numpy_and_scipy_wrappers(self, delay, tmp_path,
                                                      monkeypatch):
        # a saved model answers with SciPy unimportable and without the
        # NumPy wrappers it does not need: no QR, least squares or
        # Hermitian solver
        path = tmp_path / "delay.model"
        save_model(delay[1], path)
        want = online(load_model(path), 32.5)

        def refuse(*args, **kwargs):
            raise AssertionError("online called a NumPy or SciPy wrapper")

        for name in ("cholesky", "eigh", "eigvals", "eigvalsh", "lstsq",
                     "qr"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("eig", "eigvals", "qr", "solve", "svd"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        for name in [m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")]:
            monkeypatch.setitem(sys.modules, name, None)
        got = online(load_model(path), 32.5)
        assert len(got.eigenvalues) == 4
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)

    @pytest.mark.parametrize("fixture", ["delay", "damped_string1"])
    def test_one_call_of_each_lapack_routine(self, fixture, request, tmp_path,
                                             monkeypatch):
        # r' = 20 and 16 < 32: one exact SVD of L, no sketch QR, and one
        # standard eig of the projected pencil
        path = tmp_path / "saved.model"
        save_model(request.getfixturevalue(fixture)[1], path)
        model = load_model(path)
        p_hat = np.mean(model.config.parameter_points)
        want = online(model, p_hat)
        calls = []

        def counted(name, routine):
            def call(*args, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)
            return call

        for name in ("cholesky", "eig", "eigh", "eigvals", "eigvalsh",
                     "lstsq", "qr", "svd"):
            monkeypatch.setattr(np.linalg, name,
                                counted(name, getattr(np.linalg, name)))
        got = online(model, p_hat)
        assert calls == ["svd", "eig"]
        assert len(got.eigenvalues) == model.m == 4
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)

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


def _eigensolution(name):
    """(problem, solution) at an oracle eigenpair per eigenvalue, null
    vectors from the SVD of T, plus one pair that is no eigenpair."""
    problem = (SyntheticRationalProblem([(0.1, 0.2), (-0.2, -0.1)], dim=6,
                                        seed=0)
               if name == "synthetic" else get_problem(name))
    p, domain = {"linear-demo": (0.75, None),
                 "delay": (32.0, Disk(0.0, 0.075)),
                 "damped-string": (3.5, Ellipse(-3.0, 2.5, 10.0)),
                 "synthetic": (0.3, None)}[name]
    lams = problem.true_eigenvalues(p, domain)
    V = np.column_stack([np.linalg.svd(problem.eval(lam, p))[2][-1].conj()
                         for lam in lams])
    rng = np.random.default_rng(13)
    lams = np.append(lams, lams[0] + 0.1j)
    V = np.column_stack([V, rng.standard_normal(problem.dim)
                         + 1j * rng.standard_normal(problem.dim)])
    return problem, EigenSolution(p_hat=p, eigenvalues=lams, V=V, W=V,
                                  in_domain=np.ones(len(lams), dtype=bool))


_RESIDUAL_PROBLEMS = ("linear-demo", "delay", "damped-string", "synthetic")


class TestResiduals:
    @pytest.mark.parametrize("name", _RESIDUAL_PROBLEMS)
    def test_batched_matches_pair_by_pair(self, name):
        problem, sol = _eigensolution(name)
        got = residuals(problem, sol)
        assert isinstance(got, list)
        assert all(type(x) is float for x in got)
        assert len(got) == len(sol.eigenvalues)
        # the reference: one eval and one product per eigenpair
        for g, lam, v in zip(got, sol.eigenvalues, sol.V.T):
            T = problem.eval(lam, sol.p_hat)
            want = np.linalg.norm(T @ v) / np.linalg.norm(v)
            # exact pairs give residuals near 1e-15, so the match is
            # absolute, to a few rounding errors of T
            assert abs(g - want) <= 4 * np.finfo(float).eps * np.linalg.norm(
                T, 2)
        assert max(got[:-1]) <= 1e-13 < got[-1]

    @pytest.mark.parametrize("name", _RESIDUAL_PROBLEMS)
    def test_one_eval_nodes_call_per_answer(self, name, monkeypatch):
        problem, sol = _eigensolution(name)
        calls = []
        for method in ("eval", "eval_nodes"):
            def counted(z, p, _f=getattr(problem, method), _name=method):
                calls.append(_name)
                return _f(z, p)
            monkeypatch.setattr(problem, method, counted)
        residuals(problem, sol)
        assert calls.count("eval_nodes") == 1
        if name != "synthetic":
            # the benchmark problems assemble the stack; synthetic stays
            # on the default, which stacks eval
            assert calls == ["eval_nodes"]

    def test_eigenvalue_on_branch_cut_named(self):
        problem = DampedStringProblem()
        lams = np.array([-1.0 + 0.5j, 0.5 + 0j, -7.0 + 0j])
        V = np.ones((4, 3), dtype=complex)
        sol = EigenSolution(p_hat=3.0, eigenvalues=lams, V=V, W=V,
                            in_domain=np.zeros(3, dtype=bool))
        with pytest.raises(BranchCutError, match=r"z=\(0\.5\+0j\)"):
            residuals(problem, sol)

    def test_sweep_names_the_cut_of_its_own_parameter(self, monkeypatch):
        # -6.5 is on the cut (-inf, -2p] of p = 3.0, not of p = 3.5; the
        # message gives the cut of p = 3.0, not the whole parameter stack
        problem = DampedStringProblem()
        lams = {3.5: [-1.0 + 0.5j, -6.5 + 0j], 3.0: [-6.5 + 0j]}

        def answer(model, p_hat):
            lam = np.array(lams[p_hat.real], dtype=complex)
            V = np.ones((4, len(lam)), dtype=complex)
            return EigenSolution(p_hat=p_hat, eigenvalues=lam, V=V, W=V,
                                 in_domain=np.ones(len(lam), dtype=bool))

        monkeypatch.setattr(benchmarks, "online", answer)
        model = SimpleNamespace(m=2, config=SimpleNamespace(
            left_dirs=np.ones((1, 4))))
        with pytest.raises(BranchCutError,
                           match=r"z=\(-6\.5\+0j\) .* outside \(-6\.0, 0\)\)$"):
            benchmarks.sweep(problem, model, [3.5, 3.0])

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
        with pytest.raises(ValueError, match=r"eigenvalue \(0\.5\+0j\) at "
                                             r"p = 0\.75 is zero"):
            residuals(problem, sol)


def _one_by_one_max_residuals(problem, model, p_values):
    """The sweep's residual column computed answer by answer, from the
    answers the sweep reads (benchmarks.online)."""
    out = []
    for p_hat in p_values:
        sol = benchmarks.online(model, p_hat)
        out.append(max(residuals(problem, sol)) if len(sol.eigenvalues)
                   else np.nan)
    return np.array(out)


def _eval_nodes_calls(problem, monkeypatch):
    """Sizes of the stacks that problem.eval_nodes is asked for."""
    sizes = []
    eval_nodes = problem.eval_nodes

    def counted(z, p):
        sizes.append(len(z))
        return eval_nodes(z, p)

    monkeypatch.setattr(problem, "eval_nodes", counted)
    return sizes


class TestSweep:
    @pytest.mark.parametrize("name, n_test", [("delay", 300),
                                              ("damped_string1", 200)])
    def test_residuals_bit_identical_to_one_by_one(self, name, n_test,
                                                   request, monkeypatch):
        problem, model = request.getfixturevalue(name)
        p_values = np.linspace(*model.config.parameter_points[[0, -1]].real,
                               n_test)
        want = _one_by_one_max_residuals(problem, model, p_values)
        # chunks of about 30 eigenvalues, so the sweep crosses boundaries
        n = problem.dim
        monkeypatch.setattr(benchmarks, "_RESIDUAL_STACK_BYTES",
                            30 * 16 * n * n)
        sizes = _eval_nodes_calls(problem, monkeypatch)
        data = benchmarks.sweep(problem, model, p_values)
        assert len(sizes) > 2
        np.testing.assert_array_equal(data["max_residuals"], want)
        for k in (0, n_test // 2, n_test - 1):
            sol = online(model, p_values[k])
            np.testing.assert_array_equal(
                data["eigenvalues"][k, :len(sol.eigenvalues)],
                sol.eigenvalues[:model.m])

    def test_one_eval_nodes_call_per_chunk(self, delay, monkeypatch):
        problem, model = delay
        p_values = np.linspace(30.0, 35.0, 500)
        sizes = _eval_nodes_calls(problem, monkeypatch)
        data = benchmarks.sweep(problem, model, p_values)
        chunk_points = benchmarks._RESIDUAL_STACK_BYTES // (16 * problem.dim
                                                            ** 2)
        answered = np.count_nonzero(np.isfinite(data["eigenvalues"]))
        assert sum(sizes) == answered
        # every chunk but the last reaches the bound by less than an answer
        assert all(chunk_points <= k < chunk_points + model.m
                   for k in sizes[:-1])
        assert len(sizes) <= len(p_values) // 10

    def test_row_without_eigenvalues_keeps_nan(self, delay, monkeypatch):
        problem, model = delay
        p_values = np.linspace(30.0, 35.0, 100)
        empty = {7, 50, 99}

        def answer(model, p_hat):
            sol = online(model, p_hat)
            if int(np.argmin(np.abs(p_values - p_hat))) in empty:
                sol = replace(sol, eigenvalues=sol.eigenvalues[:0],
                              V=sol.V[:, :0])
            return sol

        monkeypatch.setattr(benchmarks, "online", answer)
        want = _one_by_one_max_residuals(problem, model, p_values)
        data = benchmarks.sweep(problem, model, p_values)
        assert np.isnan(data["max_residuals"][sorted(empty)]).all()
        assert np.isnan(data["eigenvalues"][sorted(empty)]).all()
        np.testing.assert_array_equal(data["max_residuals"], want)

    def test_problem_with_only_eval_sweeps(self, linear1):
        problem, model = linear1

        class OnlyEval(PNlevpProblem):
            dim = 3

            def eval(self, z, p):
                return problem.eval(z, p)

        p_values = np.linspace(0.75, 1.25, 40)
        data = benchmarks.sweep(OnlyEval(), model, p_values)
        np.testing.assert_array_equal(
            data["max_residuals"],
            benchmarks.sweep(problem, model, p_values)["max_residuals"])
        assert np.isfinite(data["max_residuals"]).all()

    def test_memory_bounded_by_chunk(self, delay):
        # the T stack of all 2,000 answers at once is 12.8 MB
        problem, model = delay
        p_values = np.linspace(30.0, 35.0, 2000)
        tracemalloc.start()
        try:
            benchmarks.sweep(problem, model, p_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


def _reciprocal_fit_model():
    """The fit of 1/(z - p) on a 10 x 10 grid as the scalar_model of a
    stand-in for an OfflineModel, the one field the scalar probe reads."""
    s = np.linspace(1.0, 2.0, 10)
    p = np.linspace(4.0, 5.0, 10)
    D = 1.0 / (s[:, None] - p[None, :])
    return SimpleNamespace(scalar_model=paaa_fit(D, s, p, 2))


class TestScalarProbe:
    def test_moving_pole(self):
        model = _reciprocal_fit_model()
        poles = scalar_probe_eigenvalues(model, 0.3)
        assert len(poles) == 1
        assert abs(poles[0] - 0.3) <= 1e-12

    def test_parameter_on_node(self):
        model = _reciprocal_fit_model()
        p_node = model.scalar_model.p_nodes[0]
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

    @pytest.mark.parametrize("fixture", ["linear1", "delay", "damped_string1"])
    def test_zeros_match_the_arrowhead_pencil(self, fixture, request):
        # the finite eigenvalues of the arrowhead pencil
        # ([0, beta^T; 1, diag(xi)], diag(0, I)) by QZ are the same zeros;
        # an even count of points misses linear-1's double zero at p = 1
        scalar = request.getfixturevalue(fixture)[1].scalar_model
        xi, k = scalar.z_nodes, len(scalar.z_nodes)
        for p_hat in np.linspace(scalar.p_nodes.real.min(),
                                 scalar.p_nodes.real.max(), 8):
            beta = scalar.coeffs @ paaa._cauchy(p_hat, scalar.p_nodes)[0][0]
            A = np.zeros((k + 1, k + 1), dtype=complex)
            A[0, 1:], A[1:, 0], A[1:, 1:] = beta, 1.0, np.diag(xi)
            B = np.diag(np.r_[0.0, np.ones(k)]).astype(complex)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = scipy.linalg.eigvals(A, B)
            want = want[np.isfinite(want)]
            got = solver._barycentric_zeros(beta, xi)
            assert len(got) == len(want) == k - 1
            d = np.abs(got[:, None] - want[None, :])
            assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= (
                1e-10 * np.max(np.abs(want)))

    def test_weights_summing_to_zero(self):
        # beta = (1, -2, 1) / p_hat at the z-nodes 0, 1, 3 sums to 0:
        # d(z) = (z + 3) / (z (z - 1) (z - 3) p_hat) has one zero at -3 and
        # one at infinity, which must go without a division by 0
        scalar = SimpleNamespace(
            z_nodes=np.array([0.0, 1.0, 3.0], dtype=complex),
            p_nodes=np.zeros(1, dtype=complex),
            coeffs=np.array([[1.0], [-2.0], [1.0]], dtype=complex),
            node_values=np.array([[1.0], [2.0], [3.0]], dtype=complex))
        poles = scalar_probe_eigenvalues(SimpleNamespace(scalar_model=scalar),
                                         0.5)
        np.testing.assert_allclose(poles, [-3.0], rtol=1e-14)

    @pytest.mark.parametrize("p_hat", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_parameter_rejected(self, delay, p_hat):
        _, model = delay
        with pytest.raises(ValueError, match=r"parameter p = .* is not finite"):
            scalar_probe_eigenvalues(model, p_hat)


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

    @pytest.mark.parametrize("domain, doc", [
        (Disk(0.1 + 0.2j, 0.7),
         {"type": "disk", "center": [0.1, 0.2], "radius": 0.7}),
        (Ellipse(-0.1, 0.7, 0.8),
         {"type": "ellipse", "center": [-0.1, 0.0], "semi_real": 0.7,
          "semi_imag": 0.8}),
    ])
    def test_round_domain_saved_as_disk(self, linear1, tmp_path, domain,
                                        doc):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(replace(model, domain=domain), path)
        assert json.loads(path.read_text())["domain"] == doc
        assert load_model(path).domain == domain

    def test_one_convergence_verdict_saved(self, linear1, tmp_path):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "converged" not in doc["scalar_fit"]
        assert doc["metadata"]["converged"] is True

    def test_old_scalar_fit_verdict_ignored(self, delay, tmp_path):
        # a scalar_fit.converged, which save_model does not write, is not
        # read: metadata holds the one verdict
        _, model = delay
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["scalar_fit"]["converged"] = False
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.metadata == model.metadata
        assert loaded.scalar_model.max_error == model.scalar_model.max_error
        assert (loaded.scalar_model.error_history
                == model.scalar_model.error_history)
        np.testing.assert_array_equal(online(loaded, 32.5).eigenvalues,
                                      online(model, 32.5).eigenvalues)

    def test_one_record_per_fact(self, delay, tmp_path):
        # the problem name and the fit error live only in metadata; a file
        # that also holds them at the top level and in scalar_fit loads
        _, model = delay
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert "problem_name" not in doc
        assert set(doc["scalar_fit"]) == {"error_history"}
        assert (load_model(path).scalar_model.max_error
                == model.metadata["max_fit_error"]
                == model.scalar_model.max_error)
        doc["problem_name"] = "delay"
        doc["scalar_fit"]["max_error"] = 1.0
        path.write_text(json.dumps(doc))
        loaded = load_model(path)
        assert loaded.metadata == model.metadata
        assert loaded.scalar_model.max_error == model.scalar_model.max_error

    def test_truncated_file_rejected(self, linear1, tmp_path):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    # version 1 stored per-direction lifts, not the exact samples; version 2
    # stored the arrays as [re, im] decimal pairs
    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_version_mismatch_rejected(self, linear1, tmp_path, version):
        _, model = linear1
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="format version"):
            load_model(path)

    def test_round_trip_is_byte_exact(self, delay, tmp_path):
        # -0.0, a subnormal and +-1e308 go into the scalar's node values,
        # which the collapsed tensor does not read (1e308 would overflow it)
        _, model = delay
        values = model.scalar_model.node_values.copy()
        values.flat[:3] = [complex(-0.0, 5e-324), complex(1e308, -1e308),
                           complex(-5e-324, -0.0)]
        model = replace(model, scalar_model=replace(model.scalar_model,
                                                    node_values=values))
        path, again = tmp_path / "model.json", tmp_path / "again.json"
        save_model(model, path)
        loaded = load_model(path)
        for name, get in _STORED_ARRAYS.items():
            want, got = np.ascontiguousarray(get(model)), get(loaded)
            assert got.dtype == np.complex128 and got.flags.writeable, name
            np.testing.assert_array_equal(got.view(np.uint8),
                                          want.view(np.uint8), err_msg=name)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_arrays_stored_in_binary(self, delay, tmp_path):
        # base64 takes 21.3 bytes per complex entry; [re, im] decimal pairs
        # took about 40
        _, model = delay
        path = tmp_path / "model.json"
        save_model(model, path)
        entries = sum(get(model).size for get in _STORED_ARRAYS.values())
        metadata = len(json.dumps(json.loads(path.read_text())["metadata"]))
        assert path.stat().st_size - metadata <= 22 * entries

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


# every array a model file stores
_STORED_ARRAYS = {
    "sample_points": lambda m: m.config.sample_points,
    "parameter_points": lambda m: m.config.parameter_points,
    "left_dirs": lambda m: m.config.left_dirs,
    "right_dirs": lambda m: m.config.right_dirs,
    "z_nodes": lambda m: m.scalar_model.z_nodes,
    "p_nodes": lambda m: m.scalar_model.p_nodes,
    "coeffs": lambda m: m.scalar_model.coeffs,
    "node_values": lambda m: m.scalar_model.node_values,
    "left_vals": lambda m: m.left_vals,
    "right_vals": lambda m: m.right_vals,
}


def _benchmark_spans():
    """pnlbench/spans.py, loaded as a module."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "pnlbench",
                        "spans.py")
    spec = importlib.util.spec_from_file_location("pnlbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_binds_every_wrapped_name():
    # pnlbench/spans.py wraps package functions by name; a name it wraps
    # that the package no longer has fails here
    from pnlevp import benchmarks, cli, loewner, problems

    spans = _benchmark_spans()
    owners = (solver, cli, benchmarks, loewner, problems.PNlevpProblem)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_tracer_reads_what_the_probe_returns():
    # the traced sample size is that of b and c, (r, q, n) each, and
    # reading it builds nothing larger
    spans = _benchmark_spans()
    problem = LinearDemoProblem()
    domain = Disk(0.0, 0.6)
    r, q = 6, 6
    config = default_sampling(domain, r, q, (0.75, 1.25), seed=0,
                              dim=problem.dim)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            solver.offline(problem, domain, config, 32)
    finally:
        tracer.restore()
    sample_mb = spans.layer_metrics(tracer)["contour.sample_mb"]["value"]
    assert 0 < sample_mb <= 2 * r * q * problem.dim * 16 / 2**20
    assert spans.nesting_errors(tracer.spans) == []


def test_every_exported_name_resolves():
    # a stale entry of pnlevp.__all__ fails `from pnlevp import *`
    src_dir = os.path.dirname(os.path.dirname(pnlevp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "from pnlevp import *"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _build_with_samples(bench, monkeypatch, **changes):
    """Offline model of a pinned benchmark (with `changes` to its fields),
    its sampling config and the tangential samples (b, c) at every
    parameter sample over all r directions, as offline computed them."""
    bench = replace(bench, **changes)
    problem = get_problem(bench.problem_name)
    config = default_sampling(bench.domain, bench.r, bench.q, bench.p_range,
                              bench.seed, problem.dim,
                              sampling_domain=bench.sampling_domain)
    seen = []

    def recorded(*args):
        seen.append(contour.probe_samples(*args))
        return seen[-1]

    monkeypatch.setattr(solver, "probe_samples", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = offline(problem, bench.domain, config, bench.N,
                        fit_opts=dict(bench.fit_opts))
    monkeypatch.undo()
    return model, config, (seen[-1].left, seen[-1].right)


def _all_directions(model, config, samples):
    """The model of the same fit that keeps all r directions."""
    b, c = samples
    pj = paaa.node_indices(model.scalar_model.p_nodes,
                           config.parameter_points)
    return OfflineModel(domain=model.domain, config=config, m=model.m,
                        scalar_model=model.scalar_model, left_vals=b[:, pj],
                        right_vals=c[:, pj], metadata=model.metadata)


def _delay40(monkeypatch):
    """The delay benchmark with r = 40 probing directions, enough for the
    selection to run (2m + 8 = 16 < r / 2)."""
    return _build_with_samples(benchmarks.get_benchmark("delay"),
                               monkeypatch, r=40)


class TestDirectionSelection:
    @pytest.mark.parametrize("name, seed, r_online", [
        ("damped-string-1", 0, 16), ("damped-string-1", 4, 16),
        ("damped-string-1", 5, 16), ("damped-string-2", 0, 22)])
    def test_answers_match_all_directions(self, name, seed, r_online,
                                          monkeypatch):
        model, config, samples = _build_with_samples(
            benchmarks.get_benchmark(name), monkeypatch, seed=seed)
        assert model.metadata["r_online"] == model.config.r == r_online
        assert model.metadata["r_probed"] == config.r == 250
        full = _all_directions(model, config, samples)
        p = config.parameter_points
        worst = 0.0
        for p_hat in np.concatenate([p, (p[1:] + p[:-1]) / 2]):
            got = online(model, p_hat).eigenvalues
            want = online(full, p_hat).eigenvalues
            assert len(got) == len(want) == model.m
            d = np.abs(got[:, None] - want[None, :])
            worst = max(worst, max(d.min(axis=0).max(), d.min(axis=1).max())
                        / np.max(np.abs(want)))
        assert worst <= 1e-10

    # linear-2 (m = 1) sits on the boundary: 2m + 8 = r / 2 keeps all r
    @pytest.mark.parametrize("name", ["delay", "linear-1", "linear-2"])
    def test_small_r_keeps_every_direction(self, name, monkeypatch):
        model, config, (b, c) = _build_with_samples(
            benchmarks.get_benchmark(name), monkeypatch)
        assert model.metadata["r_online"] == model.metadata["r_probed"] == 20
        for field in ("sample_points", "parameter_points", "left_dirs",
                      "right_dirs"):
            np.testing.assert_array_equal(getattr(model.config, field),
                                          getattr(config, field))
        full = _all_directions(model, config, (b, c))
        np.testing.assert_array_equal(model.left_vals, full.left_vals)
        np.testing.assert_array_equal(model.right_vals, full.right_vals)

    def test_selection_on_delay_with_more_directions(self, monkeypatch):
        model, config, _ = _delay40(monkeypatch)
        assert model.metadata["r_online"] == 16 < config.r
        # the kept points are the probed ones at the kept directions
        rows = [int(np.flatnonzero(np.all(config.left_dirs == d, axis=1))[0])
                for d in model.config.left_dirs]
        assert rows == sorted(rows)
        np.testing.assert_array_equal(model.config.left_points,
                                      config.left_points[rows])

    def test_check_that_cannot_pass_keeps_every_direction(self, monkeypatch):
        tried = []

        def never(config, B, C, m, want):
            tried.append(config.r)
            return False

        monkeypatch.setattr(loewner, "_subset_matches", never)
        model, config, _ = _build_with_samples(
            benchmarks.get_benchmark("damped-string-1"), monkeypatch)
        assert model.metadata["r_online"] == model.config.r == 250
        # 16, then 32 and 64 directions are tried; 128 exceeds r / 2
        assert sorted(set(tried)) == [16, 32, 64]
        np.testing.assert_array_equal(model.config.sample_points,
                                      config.sample_points)

    def test_subset_round_trip_answers_bit_identical(self, monkeypatch,
                                                    tmp_path):
        model, _, _ = _delay40(monkeypatch)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.metadata["r_online"] == loaded.config.r == 16
        for p_hat in (30.0, 31.7, 35.0, model.scalar_model.p_nodes[2]):
            a, b = online(model, p_hat), online(loaded, p_hat)
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
            np.testing.assert_array_equal(a.V, b.V)
            np.testing.assert_array_equal(a.W, b.W)

    def test_selection_is_deterministic(self, monkeypatch):
        first, _, _ = _delay40(monkeypatch)
        second, _, _ = _delay40(monkeypatch)
        for field in ("sample_points", "left_dirs", "right_dirs"):
            np.testing.assert_array_equal(getattr(first.config, field),
                                          getattr(second.config, field))
        np.testing.assert_array_equal(first.left_vals, second.left_vals)
        np.testing.assert_array_equal(first.right_vals, second.right_vals)

    def test_keeps_the_directions_that_carry_data(self):
        # H(z, p) acts on the first 3 of n = 6 coordinates only, so a
        # direction supported on the last 3 gives a zero row or column of
        # every L(p_j); six directions per side carry the data
        rng = np.random.default_rng(5)
        r, n, q = 60, 6, 5
        informative = {"left": [3, 17, 25, 40, 41, 58],
                       "right": [0, 9, 22, 33, 47, 51]}
        dirs = {}
        for side, keep in informative.items():
            d = np.zeros((r, n), dtype=complex)
            d[:, 3:] = rng.standard_normal((r, 3))
            d[keep] = rng.standard_normal((6, n)) \
                + 1j * rng.standard_normal((6, n))
            dirs[side] = d
        config = replace(
            default_sampling(Disk(0.0, 1.0), r, q, (0.0, 1.0), seed=0,
                             dim=n, sampling_domain=Disk(0.0, 2.0)),
            left_dirs=dirs["left"], right_dirs=dirs["right"])
        U, W = np.zeros((2, 2, n), dtype=complex)
        U[:, :3], W[:, :3] = rng.standard_normal((2, 2, 3))
        s = config.sample_points
        H = np.zeros((2 * r, q, n, n), dtype=complex)
        for j, p in enumerate(config.parameter_points):
            for pole, u, w in zip((0.3 + 0.2 * p, -0.4j - 0.1 * p), U, W):
                H[:, j] += np.outer(u, w)[None] / (s - pole)[:, None, None]
        b = np.einsum("ka,kjab->kjb", config.left_dirs, H[0::2])
        c = np.einsum("kjab,kb->kja", H[1::2], config.right_dirs)
        m, _, bases = loewner.consistency_rank_check(config, b, c)
        rows, cols = loewner.select_directions(config, m, b, c, bases)
        assert m == 2 and len(rows) == len(cols) == 2 * m + 8
        assert set(informative["left"]) <= set(rows.tolist())
        assert set(informative["right"]) <= set(cols.tolist())

    def test_rank_gap_in_metadata(self, delay):
        problem, model = delay
        domain = Disk(0.0, 0.075)
        config = default_sampling(domain, 20, 40, (30.0, 35.0), seed=0,
                                  dim=problem.dim)
        samples = probe_samples(problem, build_trapezoid_rule(domain, 128),
                                config, domain)
        b, c = samples.left, samples.right
        gaps = []
        for j in range(config.q):
            L, _ = loewner.build_loewner(config, b[:, j], c[:, j])
            s = np.linalg.svd(L, compute_uv=False)
            gaps.append(s[model.m - 1] / s[model.m])
        # r = 20 < 32: every L(p_j) takes the exact SVD, so the gap is exact
        assert model.metadata["rank_gap"] == pytest.approx(min(gaps),
                                                           rel=1e-12)

    @pytest.mark.parametrize("fixture", ["delay", "damped_string1"])
    def test_realize_counts_with_the_rank_check(self, fixture, request):
        # realize over all r probed directions reports, bit for bit, the
        # rank and gap of the rank check's routine at every p_j, and their
        # smallest gap is the model's
        problem, model = request.getfixturevalue(fixture)
        bench = benchmarks.get_benchmark(
            "delay" if fixture == "delay" else "damped-string-1")
        config = default_sampling(bench.domain, bench.r, bench.q,
                                  bench.p_range, bench.seed, problem.dim,
                                  sampling_domain=bench.sampling_domain)
        samples = probe_samples(
            problem, build_trapezoid_rule(bench.domain, bench.N), config,
            bench.domain)
        b, c = samples.left, samples.right
        gaps = []
        for j in range(config.q):
            diagnostics = loewner.realize(config, b[:, j], c[:, j],
                                          config.r)[3]
            L, _ = loewner.build_loewner(config, b[:, j], c[:, j])
            rank, gap, _, _ = loewner._sketched_rank(L)
            assert diagnostics["rank"] == rank == model.m
            assert diagnostics["rank_gap"] == gap
            gaps.append(gap)
        assert min(gaps) == model.metadata["rank_gap"]


class TestOnlineDiagnostics:
    @pytest.mark.parametrize("p_hat", [32.5, 31.0 + 0.2j, "node"])
    def test_min_denominator(self, delay, p_hat):
        _, model = delay
        if p_hat == "node":
            p_hat = model.scalar_model.p_nodes[0]
        cp = paaa._cauchy(complex(p_hat), model.collapsed.p_nodes)[0][0]
        want = np.min(np.abs(model.collapsed.denom @ cp))
        got = online(model, p_hat).diagnostics["min_denominator"]
        assert got == pytest.approx(want, rel=1e-14)
        assert eval_collapsed(model.collapsed, p_hat)[1] == got
