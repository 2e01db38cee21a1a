"""Tests for bivariate barycentric fitting and for the Loewner rank
consistency check that precedes it."""

import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pnlevp import loewner, paaa
from pnlevp.contour import Disk, build_trapezoid_rule, default_sampling, \
    probe_samples
from pnlevp.errors import RankConsistencyError
from pnlevp.loewner import (TangentialData, build_loewner,
                            consistency_rank_check)
from pnlevp.paaa import (eval_model, lift_vector, node_indices, paaa_fit,
                         refit_coefficients)
from pnlevp.problems import (LinearDemoProblem, SyntheticRationalProblem,
                             get_problem)


def _grid_eval(model, s, p):
    return np.array([[eval_model(model, z, w) for w in p] for z in s])


def _probed(problem, domain, r, q, p_range, N):
    config = default_sampling(domain, r, q, p_range, seed=0, dim=problem.dim)
    rule = build_trapezoid_rule(domain, N)
    return config, probe_samples(problem, rule, config, domain)


@pytest.fixture(scope="module")
def linear1_probed():
    return _probed(LinearDemoProblem(), Disk(0.0, 0.6), 20, 40, (0.75, 1.25),
                   512)


@pytest.fixture(scope="module")
def delay_probed():
    return _probed(get_problem("delay"), Disk(0.0, 0.075), 20, 40,
                   (30.0, 35.0), 128)


@pytest.fixture
def full_svd_calls(monkeypatch):
    """Shapes of the full SVDs the rank check runs (its fallback)."""
    calls = []
    svd_rank = loewner._svd_rank

    def counted(L, rank_tol):
        calls.append(L.shape)
        return svd_rank(L, rank_tol)

    monkeypatch.setattr(loewner, "_svd_rank", counted)
    return calls


def _rank_check(config, samples, rank_tol=1e-10):
    """consistency_rank_check on the probed tangential samples."""
    return consistency_rank_check(config, samples.left, samples.right,
                                  rank_tol)


def _rank_check_of(monkeypatch, L):
    """consistency_rank_check over the single Loewner matrix L."""
    monkeypatch.setattr(loewner, "_loewner", lambda *args: L)
    r = len(L)
    config = SimpleNamespace(left_points=np.zeros(r), right_points=np.ones(r),
                             left_dirs=None, right_dirs=None)
    one = np.zeros((r, 1, 1))
    return consistency_rank_check(config, one, one, 1e-10)


def _probed_loewner(config, samples):
    """build_loewner's L at each parameter sample, over all r directions."""
    b, c = samples.left, samples.right
    return [build_loewner(TangentialData(
        theta=config.left_points, sigma=config.right_points,
        left_dirs=config.left_dirs, right_dirs=config.right_dirs,
        left_vals=b[:, j], right_vals=c[:, j]))[0] for j in range(config.q)]


def _svd_count(L, rank_tol=1e-10):
    """Count of the singular values of L above rank_tol times the largest,
    from a full SVD."""
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0


def _record_blocks(monkeypatch):
    """Copies of the row blocks that _solve_coefficients fills, in order."""
    blocks = []
    fill = paaa._residual_rows

    def recorded(*args):
        rows = fill(*args)
        blocks.append(rows.copy())
        return rows

    monkeypatch.setattr(paaa, "_residual_rows", recorded)
    return blocks


def _planted(singular_values, seed=0):
    """Square matrix with the given singular values and random unitary
    singular vectors."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    U, V = (np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    return (U * singular_values) @ V.conj().T


class TestConsistencyRankCheck:
    def test_linear_demo_m2(self, linear1_probed):
        config, samples = linear1_probed
        assert _rank_check(config, samples)[0] == 2

    def test_delay_m4(self, delay_probed):
        config, samples = delay_probed
        assert _rank_check(config, samples)[0] == 4

    def test_crossing_pole_raises(self):
        # one eigenvalue moves from inside the disk to outside across P
        domain = Disk(0.0, 1.0)
        problem = SyntheticRationalProblem([(0.2, 0.0), (-0.5, 2.0)], dim=4,
                                           seed=3)
        config = default_sampling(domain, 4, 2, (0.0, 1.0), seed=1,
                                  dim=problem.dim, inflation=2.0)
        rule = build_trapezoid_rule(domain, 128)
        samples = probe_samples(problem, rule, config, domain)
        with pytest.raises(RankConsistencyError) as info:
            _rank_check(config, samples)
        assert info.value.ranks == [2, 1]

    def test_debug_record(self, linear1_probed, caplog):
        config, samples = linear1_probed
        with caplog.at_level(logging.DEBUG, logger="pnlevp.loewner"):
            assert _rank_check(config, samples)[0] == 2
        records = [r for r in caplog.records if r.name == "pnlevp.loewner"]
        assert len(records) == 1
        message = records[0].getMessage()
        assert f"ranks {[2] * config.q}" in message
        assert f"full-SVD fallbacks 0 of {config.q}" in message


    @pytest.mark.parametrize("fallback", [False, True])
    def test_info_holds_gap_and_bases(self, linear1_probed, fallback,
                                      monkeypatch):
        config, samples = linear1_probed
        if fallback:
            monkeypatch.setattr(loewner, "_sketched_rank", lambda L, tol: None)
        m, rank_gap, bases = _rank_check(config, samples)
        assert m == 2 and len(bases) == config.q
        gaps = []
        for L, (X, s, Vh) in zip(_probed_loewner(config, samples), bases):
            full = np.linalg.svd(L, compute_uv=False)
            gaps.append(full[m - 1] / full[m])
            assert X.shape == (config.r, m) and Vh.shape == (m, config.r)
            np.testing.assert_allclose(s, full[:m], rtol=1e-12)
            np.testing.assert_allclose(X.conj().T @ X, np.eye(m), atol=1e-14)
            np.testing.assert_allclose(X @ (s[:, None] * Vh), L,
                                       atol=1e-10 * full[0])
        if fallback:
            assert rank_gap == pytest.approx(min(gaps), rel=1e-10)
        else:
            assert 1.0 < rank_gap <= min(gaps)


class TestSketchedRank:
    @pytest.mark.parametrize("probed", ["linear1_probed", "delay_probed"])
    def test_parameter_loewner_is_build_loewner(self, probed, request,
                                                monkeypatch):
        # the L that the rank check hands to _sketched_rank, bit for bit
        config, samples = request.getfixturevalue(probed)
        seen = []
        sketched = loewner._sketched_rank

        def recorded(L, rank_tol):
            seen.append(L.copy())
            return sketched(L, rank_tol)

        monkeypatch.setattr(loewner, "_sketched_rank", recorded)
        _rank_check(config, samples)
        want = _probed_loewner(config, samples)
        assert len(seen) == len(want) == config.q
        for L, L_want in zip(seen, want):
            np.testing.assert_array_equal(L, L_want)

    @pytest.mark.parametrize("probed", ["linear1_probed", "delay_probed"])
    def test_probed_loewner_matrices(self, probed, request, full_svd_calls):
        config, samples = request.getfixturevalue(probed)
        for L in _probed_loewner(config, samples):
            rank, gap, _ = loewner._sketched_rank(L, 1e-10)
            assert rank == _svd_count(L)
            s = np.linalg.svd(L, compute_uv=False)
            assert 1.0 < gap <= s[rank - 1] / s[rank]
        assert full_svd_calls == []

    @pytest.mark.parametrize("singular_values, rank", [
        # clean gap
        (np.r_[np.logspace(0, -3, 5), np.zeros(55)], 5),
        # a singular value 1% above, then 1% below the threshold 1e-10
        (np.r_[np.logspace(0, -3, 5), 1.01e-10, np.zeros(54)], 6),
        (np.r_[np.logspace(0, -3, 5), 0.99e-10, np.zeros(54)], 5),
        # rank above the initial sketch width
        (np.r_[np.logspace(0, -4, 24), np.zeros(36)], 24),
        # the zero matrix
        (np.zeros(60), 0),
    ])
    def test_planted_spectra(self, singular_values, rank, full_svd_calls,
                             monkeypatch):
        widths = []
        sketch = loewner._dominant_left

        def recorded(A, G):
            widths.append(G.shape[1])
            return sketch(A, G)

        monkeypatch.setattr(loewner, "_dominant_left", recorded)
        L = _planted(singular_values)
        assert _svd_count(L) == rank
        assert loewner._sketched_rank(L, 1e-10)[0] == rank
        assert full_svd_calls == []
        assert widths[-1] > rank

    def test_slow_tail_falls_back(self, full_svd_calls, monkeypatch):
        # the tail lies below the threshold, but beyond any sketch its
        # energy exceeds it, so the sketch cannot certify the count
        L = _planted(np.r_[1.0, 0.1, 0.1, 0.1, 5e-11 * 0.99 ** np.arange(56)])
        assert loewner._sketched_rank(L, 1e-10) is None
        m, rank_gap, bases = _rank_check_of(monkeypatch, L)
        assert m == 4
        assert full_svd_calls == [L.shape]
        s = np.linalg.svd(L, compute_uv=False)
        # s[4] ~ 5e-11 s[0] carries only about 1e-16 / 5e-11 relative accuracy
        assert rank_gap == pytest.approx(s[3] / s[4], rel=1e-5)
        X, sx, Vh = bases[0]
        np.testing.assert_allclose(X @ (sx[:, None] * Vh), L, atol=1e-10)

    def test_sketch_as_wide_as_matrix_falls_back(self, full_svd_calls,
                                                 monkeypatch):
        L = _planted(np.logspace(0, -5, 20))
        assert loewner._sketched_rank(L, 1e-10) is None
        m, rank_gap, _ = _rank_check_of(monkeypatch, L)
        assert m == 20
        assert full_svd_calls == [L.shape]
        assert rank_gap == np.inf


class TestPaaaFit:
    def test_reciprocal_difference_exact(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
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
        model = paaa_fit(D, s, p)
        assert len(model.z_nodes) == 1
        assert len(model.p_nodes) == 1
        assert abs(eval_model(model, 0.37, 2.61) - (3.5 - 1.25j)) <= 1e-13

    def test_linear_demo_scalar_entry(self):
        # entry (1,1) of the closed-form pole part, z/(z^2 + p - 1), over the
        # benchmark sampling grids
        s = 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)
        p = np.linspace(0.75, 1.25, 40)
        D = s[:, None] / (s[:, None] ** 2 + p[None, :] - 1.0)
        model = paaa_fit(D, s, p)
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
        model = paaa_fit(D, s, p)
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
        model = paaa_fit(D, s, p)
        hist = model.error_history
        assert len(hist) >= 2
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 10 * np.finfo(float).eps

    def test_unit_norm_coefficients(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
        assert abs(np.linalg.norm(model.coeffs) - 1.0) <= 1e-14

    def test_interpolation_at_nodes(self):
        s = np.linspace(-1.0, 1.0, 9)
        p = np.linspace(2.0, 3.0, 9)
        D = np.sin(s)[:, None] * np.exp(1j * p)[None, :]
        model = paaa_fit(D, s, p, tol=1e-8)
        for a, xi in enumerate(model.z_nodes):
            for b, pi in enumerate(model.p_nodes):
                assert eval_model(model, xi, pi) == model.node_values[a, b]

    def test_degenerate_grids_rejected(self):
        s = np.array([1.0, 1.0, 2.0])
        p = np.array([4.0, 5.0, 6.0])
        D = np.ones((3, 3))
        with pytest.raises(ValueError):
            paaa_fit(D, s, p)
        for k in (0, 4):
            with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
                paaa_fit(np.ones((3, 3)), np.array([1.0, 2.0, 3.0]), p,
                         z_nodes=k)
        with pytest.raises(ValueError):
            paaa_fit(np.ones((2, 3)), np.array([1.0, 2.0, 3.0]), p)

    @pytest.mark.parametrize("data", ["smooth", "noise"])
    @pytest.mark.parametrize("k", [1, 3, 6, 12])
    def test_z_nodes_is_the_z_node_count(self, data, k):
        # the greedy alone stops at 2 z-nodes on the smooth data and never
        # meets tol on the noise, where a model with fewer z-nodes than k
        # can have the least error
        s = np.linspace(1.0, 2.0, 12)
        p = np.linspace(4.0, 5.0, 10)
        rng = np.random.default_rng(0)
        D = {"smooth": 1.0 / (s[:, None] - p[None, :]),
             "noise": rng.standard_normal((12, 10))
             + 1j * rng.standard_normal((12, 10))}[data]
        model = paaa_fit(D, s, p, z_nodes=k)
        assert len(model.z_nodes) == k
        assert model.max_error in model.error_history


class TestLiftVector:
    def test_scalar_lift_matches_parent(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
        lifted = lift_vector(model, model.node_values[:, :, None])
        z, w = 1.37, 4.81
        got = eval_model(lifted, z, w)[0]
        want = eval_model(model, z, w)
        assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_zero_vectors(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
        shape = model.node_values.shape + (3,)
        lifted = lift_vector(model, np.zeros(shape, dtype=complex))
        np.testing.assert_array_equal(eval_model(lifted, 1.4, 4.6), 0.0)

    def test_wrong_shape_rejected(self):
        s = np.linspace(1.0, 2.0, 10)
        p = np.linspace(4.0, 5.0, 10)
        D = 1.0 / (s[:, None] - p[None, :])
        model = paaa_fit(D, s, p)
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
                                                             delay_probed,
                                                             monkeypatch):
        config, samples = delay_probed
        s, p = config.sample_points, config.parameter_points
        greedy = paaa_fit(samples.stack[:, :, 0], s, p, tol=1e-11, z_nodes=5)
        G = samples.stack / np.max(np.abs(samples.stack), axis=(0, 1))
        zi = node_indices(greedy.z_nodes, s)
        pj = node_indices(greedy.p_nodes, p)
        blocks = _record_blocks(monkeypatch)
        alpha = paaa._solve_coefficients(G, s, p, zi, pj)

        # the stack's rows, concatenated from the blocks, are those of its
        # functions, one after the other
        assert len(blocks) > 1
        M = np.vstack(blocks)
        np.testing.assert_array_equal(M, np.vstack([
            paaa._residual_rows(G[:, :, f:f + 1], s, p, zi, pj)
            for f in range(G.shape[2])]))
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

    @pytest.mark.parametrize("block_rows", [7, 50])
    def test_block_boundaries_leave_coefficients(self, block_rows,
                                                 monkeypatch):
        # two functions with the common denominator Q of degree (2, 2),
        # exactly rational on 3 x 3 nodes, so that the null vector is well
        # separated; 12 x 9 points give 216 rows, a multiple of neither
        # block size, and node lines of q = 9 rows that blocks of 7 cut
        s = 1j * np.linspace(-1.0, 1.0, 12)
        p = np.linspace(1.0, 2.0, 9)
        z, w = s[:, None], p[None, :]
        Q = (z - w - 3.0) * (z * w + 2.0)
        G = np.stack([1.0 / Q, (z + w) / Q], axis=2)
        zi, pj = [0, 5, 11], [1, 4, 8]
        monkeypatch.setattr(paaa, "_BLOCK_ROWS", G.size)
        whole = paaa._solve_coefficients(G, s, p, zi, pj)
        monkeypatch.setattr(paaa, "_BLOCK_ROWS", block_rows)
        blocks = _record_blocks(monkeypatch)
        alpha = paaa._solve_coefficients(G, s, p, zi, pj)
        assert max(len(b) for b in blocks) == block_rows
        np.testing.assert_array_equal(
            np.vstack(blocks), paaa._residual_rows(G, s, p, zi, pj))
        phase = np.vdot(whole, alpha)
        phase /= abs(phase)
        assert np.max(np.abs(alpha - phase * whole)) <= 1e-12

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
        M = paaa._residual_rows(D[:, :, None], s, p, zi, pj)
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
        model = paaa_fit(D, s, p)
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
        model = paaa_fit(1.0 / (s[:, None] - p[None, :]), s, p)
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
        model = paaa_fit(D, s, p)
        assert abs(eval_model(model, 5.0, 2.0) - 1.0 / 3.0) <= 1e-13
