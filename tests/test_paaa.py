"""Tests for bivariate barycentric fitting."""

import tracemalloc

import numpy as np
import pytest

from pnlevp import paaa
from pnlevp.contour import Disk, build_trapezoid_rule, default_sampling, \
    probe_samples
from pnlevp.paaa import (eval_model, lift_vector, node_indices, paaa_fit,
                         refit_coefficients)
from pnlevp.problems import LinearDemoProblem


def _grid_eval(model, s, p):
    return np.array([[eval_model(model, z, w) for w in p] for z in s])


def _residual_rows(G, s, p, zi, pj):
    """The linearized-residual matrix M that _solve_coefficients reduces,
    formed in full: one row per grid point (s_a, p_b), b fastest, for each
    grid function G[:, :, f] in turn, holding (D(s_a, p_b) - D(xi_i, pi_j))
    Cz[a, i] Cp[b, j] at coefficient (i, j)."""
    G = G.reshape(G.shape[:2] + (-1,))
    Cz = paaa._cauchy(s, s[zi])[0]
    Cp = paaa._cauchy(p, p[pj])[0]
    diff = G[:, :, None, None, :] - G[np.ix_(zi, pj)][None, None]
    rows = diff * Cz[:, None, :, None, None] * Cp[None, :, None, :, None]
    return np.moveaxis(rows, 4, 0).reshape(-1, len(zi) * len(pj))


class TestPaaaFit:
    def test_reciprocal_difference_exact(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        assert model.max_error <= 1e-12
        assert len(model.z_nodes) == 2
        assert len(model.p_nodes) == 2
        held_s = np.linspace(1.05, 1.95, 7)
        held_p = np.linspace(4.05, 4.95, 7)
        got = _grid_eval(model, held_s, held_p)
        truth = 1.0 / (held_s[:, None] - held_p[None, :])
        np.testing.assert_allclose(got, truth, atol=1e-12)

    def test_constant_data(self):
        s = np.linspace(0.0, 1.0, 6)
        p = np.linspace(2.0, 3.0, 6)
        D = np.full((6, 6), 3.5 - 1.25j)
        model = paaa_fit(D, s, p, 1)
        assert len(model.z_nodes) == 1
        assert len(model.p_nodes) == 1
        assert abs(eval_model(model, 0.37, 2.61) - (3.5 - 1.25j)) <= 1e-13

    def test_linear_demo_scalar_entry(self):
        # entry (1,1) of the closed-form pole part, z/(z^2 + p - 1), over the
        # benchmark sampling grids
        s = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)
        p = np.linspace(0.75, 1.25, 40)
        D = s[:, None] / (s[:, None] ** 2 + p[None, :] - 1.0)
        model = paaa_fit(D, s, p, 3)
        assert model.max_error <= 1e-12
        assert len(model.z_nodes) == 3
        E = np.abs(_grid_eval(model, s, p) - D)
        assert np.max(E) <= 1e-12 * np.max(np.abs(D))

    def test_min_z_nodes_enforced(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, z_nodes=4)
        assert len(model.z_nodes) == 4
        assert model.max_error <= 1e-12

    def test_exact_recovery_bivariate_rational(self):
        # z-degree 2 and p-degree 1 denominators, poles away from the grids
        s = np.linspace(-1.0, 1.0, 12)
        p = np.linspace(0.0, 1.0, 8)

        def f(z, w):
            return (1.0 + z * w) / ((z * z - 2.0) * (w + 3.0))

        D = f(s[:, None], p[None, :])
        model = paaa_fit(D, s, p, 3)
        assert model.max_error <= 1e-12
        held_s = np.linspace(-0.93, 0.93, 9)
        held_p = np.linspace(0.03, 0.97, 9)
        got = _grid_eval(model, held_s, held_p)
        truth = f(held_s[:, None], held_p[None, :])
        scale = np.max(np.abs(truth))
        np.testing.assert_allclose(got, truth, atol=1e-10 * scale)

    def test_error_history_monotone(self):
        s = np.linspace(-1.0, 1.0, 12)
        p = np.linspace(0.0, 1.0, 10)
        D = (s[:, None] + 2.0 * p[None, :]) / ((s[:, None] - 3.0)
                                               * (p[None, :] + 2.0))
        model = paaa_fit(D, s, p, 2)
        hist = model.error_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 10 * np.finfo(float).eps

    def test_unit_norm_coefficients(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        assert abs(np.linalg.norm(model.coeffs) - 1.0) <= 1e-14

    def test_interpolation_at_nodes(self):
        s = np.linspace(-1.0, 1.0, 9)
        p = np.linspace(2.0, 3.0, 9)
        D = np.sin(s)[:, None] * np.exp(1j * p)[None, :]
        model = paaa_fit(D, s, p, 4, tol=1e-8)
        for a, xi in enumerate(model.z_nodes):
            for b, pi in enumerate(model.p_nodes):
                assert eval_model(model, xi, pi) == model.node_values[a, b]

    def test_degenerate_grids_rejected(self):
        s = np.array([1.0, 1.0, 2.0])
        p = np.array([4.0, 5.0, 6.0])
        D = np.ones((3, 3))
        with pytest.raises(ValueError):
            paaa_fit(D, s, p, 2)
        # 3 z-nodes on 3 sample points would leave the coefficients unsolved
        for k in (0, 3):
            with pytest.raises(ValueError, match=r"outside \[1, 2\]"):
                paaa_fit(np.ones((3, 3)), np.array([1.0, 2.0, 3.0]), p,
                         z_nodes=k)
        with pytest.raises(ValueError):
            paaa_fit(np.ones((2, 3)), np.array([1.0, 2.0, 3.0]), p, 1)

    def test_zero_data_refused(self):
        s = np.linspace(0.0, 1.0, 6)
        p = np.linspace(2.0, 3.0, 6)
        with pytest.raises(ValueError, match="0 at every sample"):
            paaa_fit(np.zeros((6, 6)), s, p, 3)

    @pytest.mark.parametrize("data", ["smooth", "noise"])
    @pytest.mark.parametrize("k", [1, 3, 6, 12])
    def test_z_nodes_is_the_z_node_count(self, data, k):
        # the greedy alone stops at 2 z-nodes on the smooth data and never
        # meets tol on the noise, where a model with fewer z-nodes than k
        # can have the least error; a z-node at each of the 12 sample
        # points leaves no solvable fit
        s = np.linspace(1.0, 2.0, 12)
        p = np.linspace(4.0, 5.0, 10)
        rng = np.random.default_rng(0)
        D = {"smooth": 1.0 / (s[:, None] - p[None, :]),
             "noise": rng.standard_normal((12, 10))
             + 1j * rng.standard_normal((12, 10))}[data]
        if k == len(s):
            with pytest.raises(ValueError, match=r"outside \[1, 11\]"):
                paaa_fit(D, s, p, z_nodes=k)
            return
        model = paaa_fit(D, s, p, z_nodes=k)
        assert len(model.z_nodes) == k
        assert model.max_error in model.error_history


    def test_fewer_than_three_parameter_points_rejected(self):
        # the linear-demo scalar z/(z^2 + p - 1): on two points, both
        # p-nodes, a fit of the grid to 5e-14 was off by 1.5 relative at
        # p = 1.0, since nothing tied the values between the nodes
        s = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)

        def f(p):
            return s[:, None] / (s[:, None] ** 2 + p[None, :] - 1.0)

        for p in (np.array([0.75, 1.25]), np.array([1.0])):
            with pytest.raises(ValueError, match="needs at least 3 parameter "
                               f"points, got {len(p)}"):
                paaa_fit(f(p), s, p, 3)
        # a third point, off the p-nodes, ties them
        model = paaa_fit(f(np.array([0.75, 1.0, 1.25])), s,
                         np.array([0.75, 1.0, 1.25]), 3)
        held_p = np.array([0.8, 0.9, 1.1, 1.2])
        np.testing.assert_allclose(_grid_eval(model, s, held_p), f(held_p),
                                   rtol=1e-12)

    def test_every_sample_point_a_z_node_rejected(self):
        s = np.linspace(1.0, 2.0, 4)
        p = np.linspace(4.0, 5.0, 6)
        D = 1.0 / (s[:, None] - p[None, :])
        with pytest.raises(ValueError, match="all 4 sample points are z-nodes"):
            paaa._solve_coefficients(D, s, p, [0, 1, 2, 3], [0, 5])
        # paaa_fit refuses such a count before any solve
        with pytest.raises(ValueError, match=r"outside \[1, 0\]"):
            paaa_fit(D[:1], s[:1], p, 1)

    @pytest.mark.parametrize("probed", ["delay_probed", "linear1_probed"])
    def test_reused_factors_give_the_same_bytes(self, probed, request,
                                                monkeypatch):
        # the greedy keeps the triangular factors of its z-nodes while an
        # iteration adds only a p-node; factoring at every iteration gives
        # the same model, bit for bit
        config, samples = request.getfixturevalue(probed)
        args = (samples.stack[:, :, 0], config.sample_points,
                config.parameter_points, 3)
        factored = []
        z_factors = paaa._z_factors

        def counted(D, s, zi):
            factored.append(len(zi))
            return z_factors(D, s, zi)

        monkeypatch.setattr(paaa, "_z_factors", counted)
        kept = paaa_fit(*args)
        assert len(factored) < len(kept.error_history)
        assert factored == sorted(set(factored))
        solve = paaa._solve_coefficients
        monkeypatch.setattr(
            paaa, "_solve_coefficients",
            lambda D, s, p, zi, pj, factors=None: solve(D, s, p, zi, pj))
        fresh = paaa_fit(*args)
        for field in ("z_nodes", "p_nodes", "coeffs", "node_values"):
            assert (getattr(kept, field).tobytes()
                    == getattr(fresh, field).tobytes())
        assert kept.error_history == fresh.error_history
        assert kept.max_error == fresh.max_error


class TestLiftVector:
    def test_scalar_lift_matches_parent(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        lifted = lift_vector(model, model.node_values[:, :, None])
        z, w = 1.37, 4.81
        got = eval_model(lifted, z, w)[0]
        want = eval_model(model, z, w)
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_zero_vectors(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        shape = model.node_values.shape + (3,)
        lifted = lift_vector(model, np.zeros(shape, dtype=complex))
        np.testing.assert_array_equal(eval_model(lifted, 1.4, 4.6), 0.0)

    def test_wrong_shape_rejected(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        with pytest.raises(ValueError):
            lift_vector(model, np.zeros((1, 1, 3), dtype=complex))

    def test_probed_lift_reproduces_samples(self):
        problem = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        config = default_sampling(domain, 8, 12, (0.75, 1.25), seed=2,
                                  dim=problem.dim)
        rule = build_trapezoid_rule(domain, 512)
        samples = probe_samples(problem, rule, config, domain)
        model = paaa_fit(samples.stack[:, :, 0], config.sample_points,
                         config.parameter_points, z_nodes=3)
        assert model.max_error <= 1e-12
        zi = [int(np.argmin(np.abs(config.sample_points - x)))
              for x in model.z_nodes]
        pj = [int(np.argmin(np.abs(config.parameter_points - x)))
              for x in model.p_nodes]
        # the sketches are vector samples of H at every sample point
        G = samples.stack[:, :, 1:]
        lifted = lift_vector(model, G[np.ix_(zi, pj)])
        scale = np.max(np.abs(G))
        for i, si in enumerate(config.sample_points):
            for j, pjv in enumerate(config.parameter_points):
                got = eval_model(lifted, si, pjv)
                np.testing.assert_allclose(got, G[i, j], atol=1e-10 * scale)


class TestRefitCoefficients:
    @staticmethod
    def _two_functions():
        # f1 has a pole at z = 3 that f0 lacks; both fit a degree-2 z
        # denominator, but the greedy fit of f0 alone places its second pole
        # where f0 happens to cancel it
        s = np.linspace(1.0, 2.0, 12)
        p = np.linspace(4.0, 5.0, 10)
        f0 = 1.0 / (s[:, None] - p[None, :])
        f1 = f0 + 1.0 / (s[:, None] - 3.0)
        model = paaa_fit(f0, s, p, z_nodes=3)
        zi = [int(np.argmin(np.abs(s - x))) for x in model.z_nodes]
        pj = [int(np.argmin(np.abs(p - x))) for x in model.p_nodes]
        return s, p, f0, f1, model, np.ix_(zi, pj)

    def test_shared_coefficients_fit_every_function(self):
        s, p, f0, f1, model, nodes = self._two_functions()
        greedy_lift = lift_vector(model, f1[nodes][:, :, None])
        assert np.max(np.abs(_grid_eval(greedy_lift, s, p)[..., 0] - f1)) \
            > 1e-3 * np.max(np.abs(f1))
        refit = refit_coefficients(model, np.stack([f0, f1], axis=2), s, p)
        assert refit.max_error <= 1e-12
        np.testing.assert_array_equal(refit.z_nodes, model.z_nodes)
        np.testing.assert_array_equal(refit.p_nodes, model.p_nodes)
        np.testing.assert_array_equal(refit.node_values, model.node_values)
        assert abs(np.linalg.norm(refit.coeffs) - 1.0) <= 1e-14
        lift = lift_vector(refit, f1[nodes][:, :, None])
        np.testing.assert_allclose(_grid_eval(lift, s, p)[..., 0], f1,
                                   atol=1e-12 * np.max(np.abs(f1)))
        np.testing.assert_allclose(_grid_eval(refit, s, p), f0,
                                   atol=1e-12 * np.max(np.abs(f0)))

    def test_error_is_worst_relative_error_over_stack(self):
        s, p, f0, f1, model, nodes = self._two_functions()
        # noise on a large scale cannot be fitted; each function counts
        # relative to its own scale
        f2 = 1e3 * np.random.default_rng(0).standard_normal(f0.shape)
        stack = np.stack([f0, f1, f2], axis=2)
        refit = refit_coefficients(model, stack, s, p)
        errs = []
        for k in range(stack.shape[2]):
            lift = lift_vector(refit, stack[nodes][:, :, k:k + 1])
            f = stack[:, :, k]
            errs.append(np.max(np.abs(_grid_eval(lift, s, p)[..., 0] - f))
                        / np.max(np.abs(f)))
        assert refit.max_error > 1e-12
        assert refit.max_error == pytest.approx(max(errs), rel=1e-6)
        assert refit.error_history == model.error_history

    def test_wrong_shape_rejected(self):
        s, p, f0, _, model, _ = self._two_functions()
        with pytest.raises(ValueError):
            refit_coefficients(model, f0, s, p)
        with pytest.raises(ValueError):
            refit_coefficients(model, f0[:-1, :, None], s, p)


class TestSolveCoefficients:
    def test_qr_first_matches_full_svd_on_delay_refit_stack(self,
                                                             delay_probed):
        config, samples = delay_probed
        s, p = config.sample_points, config.parameter_points
        greedy = paaa_fit(samples.stack[:, :, 0], s, p, tol=1e-11, z_nodes=5)
        G = samples.stack / np.max(np.abs(samples.stack), axis=(0, 1))
        zi = node_indices(greedy.z_nodes, s)
        pj = node_indices(greedy.p_nodes, p)
        alpha = paaa._solve_coefficients(G, s, p, zi, pj)

        M = _residual_rows(G, s, p, zi, pj)
        assert M.shape[0] > M.shape[1]
        _, sv, Vh = np.linalg.svd(M, full_matrices=False)
        eps = np.finfo(float).eps
        # the residual is minimal up to rounding of M
        assert np.linalg.norm(M @ alpha.ravel()) <= sv[-1] + 10 * eps * sv[0]
        # this stack's last two singular values lie 4.7e-11 sigma_0 apart,
        # so the null vector is defined only to the first-order (Wedin)
        # bound eps sigma_0 / (sigma_{n-1} - sigma_n) on its rounding
        v = Vh[-1].conj().reshape(alpha.shape)
        phase = np.vdot(v, alpha)
        phase /= abs(phase)
        assert (np.linalg.norm(alpha - phase * v)
                <= eps * sv[0] / (sv[-2] - sv[-1]))

    @staticmethod
    def _exactly_rational():
        # two functions with the common denominator Q of degree (2, 2),
        # exactly rational on 3 x 3 nodes, so that the null vector is well
        # separated
        s = 1j * np.linspace(-1.0, 1.0, 12)
        p = np.linspace(1.0, 2.0, 9)
        z, w = s[:, None], p[None, :]
        Q = (z - w - 3.0) * (z * w + 2.0)
        G = np.stack([1.0 / Q, (z + w) / Q], axis=2)
        return s, p, G, [0, 5, 11], [1, 4, 8]

    @pytest.mark.parametrize("k", [1, 2])
    def test_exactly_rational_matches_full_svd(self, k):
        # k = 1 passes one grid function as a 2-D array
        s, p, G, zi, pj = self._exactly_rational()
        D = G[:, :, 0] if k == 1 else G
        alpha = paaa._solve_coefficients(D, s, p, zi, pj)
        v = np.linalg.svd(_residual_rows(D, s, p, zi, pj))[2][-1].conj()
        v = v.reshape(alpha.shape)
        phase = np.vdot(v, alpha)
        phase /= abs(phase)
        assert np.max(np.abs(alpha - phase * v)) <= 1e-12

    def test_parameter_factors_give_the_rows(self):
        # the ns rows of parameter p_b and function f are A E, A = [U, Cz]
        # and E as in _solve_coefficients; z-node lines give indicator rows
        # of Cz and p-node lines indicator rows of Cp, and node pairs zero
        # rows, all of which the product must keep
        s, p, G, zi, pj = self._exactly_rational()
        M = _residual_rows(G, s, p, zi, pj)
        Cz = paaa._cauchy(s, s[zi])[0]
        Cp = paaa._cauchy(p, p[pj])[0]
        nz, npj = len(zi), len(pj)
        for f in range(G.shape[2]):
            for b in range(len(p)):
                g = G[:, b, f]
                A = np.hstack([Cz * (g[:, None] - g[zi][None, :]), Cz])
                E = np.zeros((2 * nz, nz, npj), dtype=complex)
                for i in range(nz):
                    E[i, i] = Cp[b]
                    E[nz + i, i] = Cp[b] * (g[zi[i]] - G[zi[i], pj, f])
                want = M[(f * len(s) + np.arange(len(s))) * len(p) + b]
                got = A @ E.reshape(2 * nz, -1)
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * np.max(np.abs(M)))
                zero = np.all(want == 0, axis=1)
                np.testing.assert_array_equal(got[zero], 0)
        # the grid holds node lines and node pairs
        assert np.count_nonzero(np.all(M == 0, axis=1)) == 2 * nz * npj

    def test_solve_memory_stays_in_blocks(self):
        # a stack of damped-string-1's size: 5 functions on 500 x 25 points,
        # 5 x 11 nodes, so M would be 62,500 x 55 complex (55 MB)
        rng = np.random.default_rng(0)
        shape = (500, 25, 5)
        G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = np.exp(2j * np.pi * np.arange(500) / 500)
        p = np.linspace(3.0, 4.0, 25)
        zi, pj = list(range(0, 500, 100)), list(range(0, 22, 2))
        tracemalloc.start()
        try:
            alpha = paaa._solve_coefficients(G, s, p, zi, pj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alpha.shape == (5, 11)
        assert peak <= 16 * 2**20

    def test_wide_rows_give_unit_null_vector(self):
        # 9 coefficients against 16 grid points, 9 of them node pairs whose
        # rows are zero: the 7 others leave a null space
        rng = np.random.default_rng(5)
        s = np.arange(4.0)
        p = 10.0 + np.arange(4.0)
        D = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        zi, pj = [0, 1, 2], [0, 1, 2]
        M = _residual_rows(D, s, p, zi, pj)
        assert M.shape == (16, 9)
        assert np.count_nonzero(np.any(M != 0, axis=1)) == 7
        alpha = paaa._solve_coefficients(D, s, p, zi, pj)
        assert abs(np.linalg.norm(alpha) - 1.0) <= 1e-14
        assert np.linalg.norm(M @ alpha.ravel()) <= 1e-12 * np.linalg.norm(M)


class TestEvalModel:
    def test_node_line_is_one_dimensional_barycentric(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        xi = model.z_nodes[0]
        w_test = 4.44
        got = eval_model(model, xi, w_test)
        # 1-D barycentric in p over the matching node row
        weights = model.coeffs[0, :] / (w_test - model.p_nodes)
        expected = np.sum(weights * model.node_values[0]) / np.sum(weights)
        assert abs(got - expected) <= 1e-14
        assert abs(got - 1.0 / (xi - w_test)) <= 1e-12

    @pytest.mark.parametrize("n", [None, 3])
    def test_grid_matches_pointwise(self, n):
        # off-node points, then the nodes: z-node rows, p-node columns and
        # node pairs
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        model = paaa_fit(1.0 / (s[:, None] - p[None, :]), s, p, 2)
        if n is not None:
            rng = np.random.default_rng(3)
            shape = model.node_values.shape + (n,)
            model = lift_vector(model, rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape))
        zs = np.concatenate([[1.05, 1.5 + 0.1j], model.z_nodes])
        ps = np.concatenate([[4.33, 4.7 - 0.2j], model.p_nodes])
        F = paaa._eval_grid(model, zs, ps)[0]
        assert F.shape == (len(zs), len(ps)) + model.node_values.shape[2:]
        for a, z in enumerate(zs):
            for b, w in enumerate(ps):
                want = eval_model(model, z, w)
                assert np.all(np.abs(F[a, b] - want) <= 1e-14 * np.abs(want))
        np.testing.assert_array_equal(F[2:, 2:], model.node_values)

    def test_analytic_value_off_grid(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p, 2)
        assert abs(eval_model(model, 5.0, 2.0) - 1.0 / 3.0) <= 1e-13
