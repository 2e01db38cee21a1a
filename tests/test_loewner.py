"""Tests for Loewner matrix assembly, the rank consistency check and
eigenvalue realization."""

import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from numpy.linalg import _umath_linalg

from pnlevp import loewner
from pnlevp.contour import (Disk, SamplingConfig, build_trapezoid_rule,
                            default_sampling, probe_samples, scale_domain)
from pnlevp.errors import RankConsistencyError, RealizationError
from pnlevp.loewner import (_sketch, build_loewner,
                            consistency_rank_check, eigenvalue_order, realize)
from pnlevp.problems import SyntheticRationalProblem


def _pencil_config(theta, sigma, left_dirs, right_dirs):
    """SamplingConfig of the left points theta, the right points sigma and
    the probing directions, at the one parameter point 0."""
    return SamplingConfig(
        sample_points=np.column_stack([theta, sigma]).ravel(),
        parameter_points=[0.0], left_dirs=np.asarray(left_dirs),
        right_dirs=np.asarray(right_dirs))


def _scalar_reciprocal():
    """H(z) = 1/z sampled at theta=2, sigma=3 with unit directions, as
    (config, B, C)."""
    return (_pencil_config([2.0], [3.0], [[1.0]], [[1.0]]),
            np.array([[0.5]]), np.array([[1.0 / 3.0]]))


def _pole_data(poles, residues, theta, sigma, left_dirs, right_dirs):
    """Exact tangential samples of H(z) = sum_j u_j w_j^T / (z - mu_j), as
    (config, B, C), and H."""
    n = left_dirs.shape[1]

    def H(z):
        out = np.zeros((n, n), dtype=complex)
        for mu, (u, w) in zip(poles, residues):
            out += np.outer(u, w) / (z - mu)
        return out

    b = np.array([H(t).T @ l for t, l in zip(theta, left_dirs)])
    c = np.array([H(s) @ r for s, r in zip(sigma, right_dirs)])
    return (_pencil_config(theta, sigma, left_dirs, right_dirs), b, c), H


def _random_dirs(rng, r, n):
    return rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))


class TestBuildLoewner:
    def test_scalar_reciprocal(self):
        L, Ls = build_loewner(*_scalar_reciprocal())
        np.testing.assert_allclose(L, [[-1.0 / 6.0]], atol=1e-15)
        np.testing.assert_allclose(Ls, [[0.0]], atol=1e-15)

    def test_zero_data(self):
        rng = np.random.default_rng(0)
        config = _pencil_config([1.0, 2.0], [3.0, 4.0],
                                _random_dirs(rng, 2, 3),
                                _random_dirs(rng, 2, 3))
        zero = np.zeros((2, 3), dtype=complex)
        L, Ls = build_loewner(config, zero, zero)
        np.testing.assert_array_equal(L, 0.0)
        np.testing.assert_array_equal(Ls, 0.0)

    def test_shift_identities(self):
        rng = np.random.default_rng(1)
        r, n = 5, 4
        config = _pencil_config(
            rng.standard_normal(r) + 2.0, rng.standard_normal(r) - 2.0,
            _random_dirs(rng, r, n), _random_dirs(rng, r, n))
        B, C = _random_dirs(rng, r, n), _random_dirs(rng, r, n)
        L, Ls = build_loewner(config, B, C)
        P = B @ config.right_dirs.T
        Q = config.left_dirs @ C.T
        scale = max(np.max(np.abs(P)), np.max(np.abs(Q)))
        np.testing.assert_allclose(Ls - config.right_points[None, :] * L, P,
                                   atol=1e-13 * scale)
        np.testing.assert_allclose(Ls - config.left_points[:, None] * L, Q,
                                   atol=1e-13 * scale)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            _pencil_config([1.0, 2.0], [2.0, 3.0], np.ones((2, 1)),
                           np.ones((2, 1)))

    def test_signed_zero_tie_rejected(self):
        # |0.0 - (-0.0)| == 0: a tie, whatever the sign of the zero
        with pytest.raises(ValueError, match="pairwise distinct"):
            _pencil_config([0.0, 1.0], [-0.0, 3.0], np.ones((2, 1)),
                           np.ones((2, 1)))

    def test_near_tie_accepted(self):
        near = np.nextafter(2.0, 3.0)
        config = _pencil_config([1.0, 2.0], [near, 3.0 + 1j],
                                np.ones((2, 1)), np.ones((2, 1)))
        assert config.right_points[0] == near


class TestNumericalRank:
    def test_two_pole_loewner_rank(self):
        rng = np.random.default_rng(2)
        n, r = 3, 4
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                    for _ in range(2)]
        data, _ = _pole_data(
            [0.3, -0.2], residues,
            theta=np.array([1.5, 2.0, 2.5, 3.0]),
            sigma=np.array([-1.5, -2.0, -2.5, -3.0]),
            left_dirs=_random_dirs(rng, r, n),
            right_dirs=_random_dirs(rng, r, n),
        )
        L, _ = build_loewner(*data)
        s = np.linalg.svd(L, compute_uv=False)
        assert np.count_nonzero(s > 1e-10 * s[0]) == 2


class TestRealize:
    def test_scalar_reciprocal_eigenvalue(self):
        lam, _, _, diagnostics = realize(*_scalar_reciprocal(), 1)
        assert diagnostics["rank"] == 1
        assert abs(lam[0]) <= 1e-14

    def test_two_pole_recovery_with_residues(self):
        rng = np.random.default_rng(3)
        n, r = 3, 4
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                    for _ in range(2)]
        poles = [0.3, -0.2]
        data, H = _pole_data(
            poles, residues,
            theta=np.array([1.5, 2.0, 2.5, 3.0]),
            sigma=np.array([-1.5, -2.0, -2.5, -3.0]),
            left_dirs=_random_dirs(rng, r, n),
            right_dirs=_random_dirs(rng, r, n),
        )
        lam, V, W, diagnostics = realize(*data, r)
        assert diagnostics["rank"] == 2
        np.testing.assert_allclose(sorted(lam.real), sorted(poles),
                                   atol=1e-10)
        np.testing.assert_allclose(lam.imag, 0.0, atol=1e-10)
        # residues of V (z I - J)^{-1} W^* must match u_j w_j^T after pairing
        for mu, (u, w) in zip(poles, residues):
            j = int(np.argmin(np.abs(lam - mu)))
            res = np.outer(V[:, j], W[:, j].conj())
            truth = np.outer(u, w)
            np.testing.assert_allclose(res, truth, atol=1e-8)

    def test_rank_deficient_truncation(self):
        rng = np.random.default_rng(4)
        n, r = 3, 4
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])]
        data, _ = _pole_data(
            [0.1], residues,
            theta=np.array([1.5, 2.0, 2.5, 3.0]),
            sigma=np.array([-1.5, -2.0, -2.5, -3.0]),
            left_dirs=_random_dirs(rng, r, n),
            right_dirs=_random_dirs(rng, r, n),
        )
        diagnostics = realize(*data, r)[3]
        assert diagnostics["rank"] == 1
        s = diagnostics["singular_values"]
        assert np.count_nonzero(s > 1e-10 * s[0]) == 1

    def test_zero_data_realizes_nothing(self):
        rng = np.random.default_rng(5)
        n, r = 3, 4
        config = _pencil_config(
            [1.5, 2.0, 2.5, 3.0], [-1.5, -2.0, -2.5, -3.0],
            _random_dirs(rng, r, n), _random_dirs(rng, r, n))
        zero = np.zeros((r, n), dtype=complex)
        lam, V, W, diagnostics = realize(config, zero, zero, r)
        assert lam.shape == (0,)
        assert V.shape == W.shape == (n, 0)
        assert diagnostics["rank"] == 0
        assert "rank_gap" not in diagnostics

    def test_exact_recovery_and_tangential_interpolation(self):
        domain = Disk(0.0, 1.0)
        for m, seed in ((2, 10), (3, 11), (5, 12)):
            prob = SyntheticRationalProblem.inside_domain(
                domain, m, (0.0, 1.0), seed=seed
            )
            p = 0.4
            rng = np.random.default_rng(seed + 100)
            r = m + 2
            theta = 1.5 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
            sigma = 1.5 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
            ld = _random_dirs(rng, r, prob.dim)
            rd = _random_dirs(rng, r, prob.dim)
            b = np.array([prob.exact_H(t, p).T @ l for t, l in zip(theta, ld)])
            c = np.array([prob.exact_H(s, p) @ v for s, v in zip(sigma, rd)])
            lam, V, W, diagnostics = realize(
                _pencil_config(theta, sigma, ld, rd), b, c, r)
            truth = np.sort_complex(prob.eigenvalues_at(p))
            assert diagnostics["rank"] == m
            got = np.sort_complex(lam)
            np.testing.assert_allclose(got, truth, atol=1e-9)

            def G(z):
                return V @ np.diag(1.0 / (z - lam)) @ W.conj().T

            scale = np.max(np.abs(b))
            for i in range(r):
                np.testing.assert_allclose(ld[i] @ G(theta[i]), b[i],
                                           atol=1e-8 * scale)
                np.testing.assert_allclose(G(sigma[i]) @ rd[i], c[i],
                                           atol=1e-8 * scale)

    def test_direction_scaling_invariance(self):
        rng = np.random.default_rng(5)
        n, r = 4, 5
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                    for _ in range(3)]
        poles = [0.2, -0.3, 0.1j]
        theta = 2.0 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
        sigma = 2.0 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
        ld, rd = _random_dirs(rng, r, n), _random_dirs(rng, r, n)
        data, _ = _pole_data(poles, residues, theta, sigma, ld, rd)
        a = 3.7 - 1.2j
        scaled, _ = _pole_data(poles, residues, theta, sigma, a * ld, a * rd)
        e1 = np.sort_complex(realize(*data, r)[0])
        e2 = np.sort_complex(realize(*scaled, r)[0])
        np.testing.assert_allclose(e1, e2, atol=1e-9)

    def test_order_truncation(self):
        # noisy rank-1 data: an explicit order caps the realization size
        rng = np.random.default_rng(6)
        n, r = 3, 4
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])]
        data, _ = _pole_data(
            [0.1], residues,
            theta=np.array([1.5, 2.0, 2.5, 3.0]),
            sigma=np.array([-1.5, -2.0, -2.5, -3.0]),
            left_dirs=_random_dirs(rng, r, n),
            right_dirs=_random_dirs(rng, r, n),
        )
        config, B, C = data
        lam, _, _, diagnostics = realize(
            config, B + 1e-6 * _random_dirs(rng, r, n),
            C + 1e-6 * _random_dirs(rng, r, n), 1)
        assert diagnostics["rank"] == 1
        assert abs(lam[0] - 0.1) <= 1e-4

    def test_sketched_truncation_matches_exact(self):
        # r = 40 >= 2 * 16, so L is sketched 16 wide; r = 14 < 32 takes the
        # exact SVD.  Exact data of a 3-pole problem lose nothing to the
        # sketch
        data = _three_pole_data(40)
        sketched = realize(*data, 3)
        exact = realize(*_three_pole_data(), 3)
        assert sketched[3]["rank"] == exact[3]["rank"] == 3
        assert len(sketched[3]["singular_values"]) == 16
        assert len(exact[3]["singular_values"]) == 14
        truth = np.sort_complex(_three_pole_problem().eigenvalues_at(0.6))
        np.testing.assert_allclose(np.sort_complex(sketched[0]), truth,
                                   atol=1e-9)
        np.testing.assert_allclose(sketched[0], exact[0], atol=1e-12)
        again = realize(*data, 3)
        for got, want in zip(again[:3], sketched[:3]):
            np.testing.assert_array_equal(got, want)


def _three_pole_problem():
    return SyntheticRationalProblem.inside_domain(Disk(0.0, 1.0), 3,
                                                  (0.0, 1.0), seed=13)


def _three_pole_data(r=14):
    """Exact tangential data (config, B, C) of _three_pole_problem at
    p = 0.6, from r directions per side."""
    prob = _three_pole_problem()
    p = 0.6
    rng = np.random.default_rng(113)
    theta = 1.5 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
    sigma = 1.5 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
    ld = _random_dirs(rng, r, prob.dim)
    rd = _random_dirs(rng, r, prob.dim)
    b = np.array([prob.exact_H(t, p).T @ l for t, l in zip(theta, ld)])
    c = np.array([prob.exact_H(s, p) @ v for s, v in zip(sigma, rd)])
    return _pencil_config(theta, sigma, ld, rd), b, c


def _explicit_realize(data, m, k):
    """Eigenvalues and singular values of the pencil formed explicitly: L
    and Ls from build_loewner, the leading singular pairs X, s, Y of L
    through NumPy's QR and SVD (of a sketch k wide from the same Gaussian
    draws, or of L itself for k as wide as L), and the eigenvalues of
    (X^H Ls Y, X^H L Y)."""
    L, Ls = build_loewner(*data)
    Q = (np.linalg.qr(L @ _sketch(L.shape[1], k))[0] if k < min(L.shape)
         else np.eye(len(L)))
    U, s, Vh = np.linalg.svd(Q.conj().T @ L, full_matrices=False)
    Xh, Y = (Q @ U[:, :m]).conj().T, Vh[:m].conj().T
    lam = scipy.linalg.eigvals(Xh @ Ls @ Y, Xh @ L @ Y)
    return lam[eigenvalue_order(lam)], s


def _two_block_realize(data, m):
    """Eigenvalues of the pencil truncated by the full SVDs of the two
    blocks [L Ls] and [L; Ls], which also serves improper (descriptor) data
    (Antoulas, Lefteriu & Ionita, SIAM 2017): X and Y are the leading m left
    singular vectors of [L Ls] and right singular vectors of [L; Ls]."""
    L, Ls = build_loewner(*data)
    X = np.linalg.svd(np.hstack([L, Ls]))[0][:, :m]
    Y = np.linalg.svd(np.vstack([L, Ls]))[2][:m].conj().T
    Xh = X.conj().T
    lam = scipy.linalg.eigvals(Xh @ Ls @ Y, Xh @ L @ Y)
    return lam[eigenvalue_order(lam)]


class TestStructuredRealize:
    """realize forms only L; the pencil it projects must be the one formed
    explicitly from L and Ls."""

    # with noise the trailing sketched values and the projected eigenvalues
    # depend on the sketch draws and on which singular vectors are kept;
    # lengths is the shape of the computed spectrum: the 14 of the exact
    # SVD of a 14-wide L, 16 of a sketch of a 40-wide one, and all 40 where
    # noise fills the sketch
    @pytest.mark.parametrize("order, lengths, noise", [(3, [14], 0.0),
                                                       (14, [14], 0.0),
                                                       (3, [14], 1e-6),
                                                       (3, [16], 0.0),
                                                       (40, [16], 0.0),
                                                       (3, [40], 1e-6)])
    def test_matches_explicit_pencil(self, order, lengths, noise):
        config, B, C = _three_pole_data(14 if lengths == [14] else 40)
        rng = np.random.default_rng(8)
        data = (config, B + noise * _random_dirs(rng, *B.shape),
                C + noise * _random_dirs(rng, *C.shape))
        got, _, _, diagnostics = realize(*data, order)
        lam, svals = _explicit_realize(data, diagnostics["rank"], *lengths)
        assert diagnostics["rank"] == 3
        assert list(diagnostics["singular_values"].shape) == lengths
        np.testing.assert_allclose(got, lam, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(diagnostics["singular_values"], svals,
                                   rtol=0.0, atol=1e-13 * svals[0])

    @pytest.mark.parametrize("order", [3, 14])
    def test_matches_two_block_truncation(self, order):
        # strictly proper data: L alone carries the pencil of [L Ls], [L; Ls]
        data = _three_pole_data()
        lam, _, _, diagnostics = realize(*data, order)
        assert diagnostics["rank"] == 3
        np.testing.assert_allclose(lam, _two_block_realize(data, 3),
                                   rtol=1e-12, atol=0.0)

    def test_pole_at_zero(self):
        # a pole at 0 drops the rank of Ls = -O J R below that of L = -O R
        rng = np.random.default_rng(19)
        n, r = 4, 8
        poles = [0.0, 0.3, -0.2j]
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                    for _ in poles]
        theta = 1.5 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
        sigma = 1.5 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
        data, _ = _pole_data(poles, residues, theta, sigma,
                             _random_dirs(rng, r, n), _random_dirs(rng, r, n))
        L, Ls = build_loewner(*data)
        s, ss = (np.linalg.svd(M, compute_uv=False) for M in (L, Ls))
        assert np.count_nonzero(s > 1e-10 * s[0]) == 3
        assert np.count_nonzero(ss > 1e-10 * ss[0]) == 2
        lam, V, W, diagnostics = realize(*data, r)
        assert diagnostics["rank"] == 3
        for mu, (u, w) in zip(poles, residues):
            j = int(np.argmin(np.abs(lam - mu)))
            assert abs(lam[j] - mu) <= 1e-13
            truth = np.outer(u, w)
            np.testing.assert_allclose(
                np.outer(V[:, j], W[:, j].conj()), truth,
                rtol=0.0, atol=1e-13 * np.max(np.abs(truth)))

    def test_rank_gap(self):
        # the gap is the rank routine's: s_3 / s_4 of the exact SVD of a
        # 14-wide L, a certified lower bound from the sketch of a 40-wide
        # one.  The mirrored data have L^T for L, with the same singular
        # values; each reads its gap off its own spectrum
        for r in (14, 40):
            data = _three_pole_data(r)
            config, B, C = data
            mirror = (_pencil_config(config.right_points, config.left_points,
                                     config.right_dirs, config.left_dirs),
                      C, B)
            for d in (data, mirror):
                diagnostics = realize(*d, 3)[3]
                s = diagnostics["singular_values"]
                gap = diagnostics["rank_gap"]
                assert gap == loewner._sketched_rank(build_loewner(*d)[0])[1]
                assert gap == s[2] / s[3] if r == 14 else gap < s[2] / s[3]
                assert gap > 1e8
        # an order below the rank reads s_m / s_{m+1} of the computed values
        diagnostics = realize(*_three_pole_data(), 2)[3]
        s = diagnostics["singular_values"]
        assert diagnostics["rank_gap"] == s[1] / s[2]
        # a 1x1 pencil holds no value past m = 1
        assert realize(*_scalar_reciprocal(), 1)[3]["rank_gap"] == np.inf

    def test_memory_stays_below_four_r_by_r_matrices(self):
        rng = np.random.default_rng(17)
        n, r = 3, 250
        residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                    for _ in range(4)]
        theta = 2.0 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
        sigma = 2.0 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
        data, _ = _pole_data([0.3, -0.2, 0.1j, -0.4j], residues, theta, sigma,
                             _random_dirs(rng, r, n), _random_dirs(rng, r, n))
        tracemalloc.start()
        try:
            diagnostics = realize(*data, 4)[3]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diagnostics["rank"] == 4
        assert peak <= 4 * r * r * 16


# the gufuncs behind numpy.linalg.qr's two LAPACK calls
_QR_HALVES = {"zgeqrf": "qr_r_raw", "zungqr": "qr_reduced"}


def _two_pole_data():
    rng = np.random.default_rng(5)
    n, r = 3, 6
    residues = [(_random_dirs(rng, 1, n)[0], _random_dirs(rng, 1, n)[0])
                for _ in range(2)]
    data, _ = _pole_data([0.3, -0.2], residues,
                         theta=1.5 + 0.25 * np.arange(r),
                         sigma=-1.5 - 0.25 * np.arange(r),
                         left_dirs=_random_dirs(rng, r, n),
                         right_dirs=_random_dirs(rng, r, n))
    return data


class TestLapackErrors:
    @pytest.mark.parametrize("side, value", [("left_vals", np.nan),
                                             ("right_vals", np.inf)])
    def test_non_finite_data_raises(self, side, value):
        data = list(_two_pole_data())
        k = 1 if side == "left_vals" else 2
        data[k] = data[k].copy()
        data[k][1, 2] = value
        with pytest.raises(RealizationError, match="non-finite"):
            realize(*data, 2)

    @pytest.mark.parametrize("routine",
                             ["zgeqrf", "zungqr", "svd", "eig", "solve"])
    def test_failed_routine_raises(self, monkeypatch, routine):
        # 40 >= 2 * 16 directions: L is sketched, which calls qr, svd and
        # eig; the left eigenvectors take one solve
        data = _three_pole_data(40)
        assert len(realize(*data, 3)[0]) == 3
        if routine in _QR_HALVES:
            # a failed LAPACK half of numpy.linalg.qr raises the
            # floating-point invalid flag, which qr turns into LinAlgError
            name, call = "qr", getattr(_umath_linalg, _QR_HALVES[routine])

            def failing(*args, **kwargs):
                out = call(*args, **kwargs)
                np.sqrt(-1.0)
                return out

            monkeypatch.setattr(_umath_linalg, _QR_HALVES[routine], failing)
        else:
            name = routine

            def failing(*args, **kwargs):
                raise np.linalg.LinAlgError("did not converge")

            monkeypatch.setattr(np.linalg, routine, failing)
        with pytest.raises(RealizationError,
                           match=rf"numpy\.linalg\.{name} failed"):
            realize(*data, 3)

    def test_overflowing_eigenvalue_is_discarded(self, monkeypatch):
        data = _two_pole_data()
        want, _, _, diagnostics = realize(*data, 2)
        assert diagnostics["discarded_infinite"] == 0
        eig = np.linalg.eig

        def overflowing_first(A):
            lam, S = eig(A)
            lam[0] = np.inf
            return lam, S

        monkeypatch.setattr(np.linalg, "eig", overflowing_first)
        got, V, _, diagnostics = realize(*data, 2)
        assert diagnostics["discarded_infinite"] == 1
        assert len(got) == 1 and V.shape[1] == 1
        assert got[0] in want


class TestEigenvalueOrder:
    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_conjugate_pair_one_ulp_apart(self, direction):
        # whichever member of the pair rounds to the larger real part, the
        # one with negative imaginary part comes first
        x = -2.2180397288321116
        values = np.array([complex(np.nextafter(x, direction), 6.25),
                           complex(x, -6.25)])
        for pair in (values, values[::-1]):
            ordered = pair[eigenvalue_order(pair)]
            assert ordered[0].imag == -6.25
            assert ordered[1].imag == 6.25

    def test_distinct_real_parts_ascend(self):
        values = np.array([3.0 - 1j, -1.0 + 2j, 1.0 + 0j, -1.0 - 2j])
        ordered = values[eigenvalue_order(values)]
        np.testing.assert_array_equal(
            ordered, [-1.0 - 2j, -1.0 + 2j, 1.0 + 0j, 3.0 - 1j])

    def test_empty_and_single(self):
        assert eigenvalue_order(np.array([], dtype=complex)).size == 0
        assert eigenvalue_order(np.array([1.0 + 1j])).tolist() == [0]


def _rank_check(config, samples):
    """consistency_rank_check on the probed tangential samples."""
    return consistency_rank_check(config, samples.left, samples.right)


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
                                  dim=problem.dim,
                                  sampling_domain=scale_domain(domain, 2.0))
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
        assert f"exact SVDs 0 of {config.q}" in message

    @pytest.mark.parametrize("full_width", [False, True])
    def test_info_holds_gap_and_bases(self, linear1_probed, full_width,
                                      probed_loewner, full_width_calls,
                                      monkeypatch):
        config, samples = linear1_probed
        if full_width:
            # no sketch fits: every L(p_j) takes the exact SVD
            monkeypatch.setattr(loewner, "_RANK_SKETCH", config.r)
        m, rank_gap, bases = _rank_check(config, samples)
        assert m == 2 and len(bases) == config.q
        assert len(full_width_calls) == (config.q if full_width else 0)
        gaps = []
        for L, (X, s, Vh) in zip(probed_loewner(config, samples), bases):
            full = np.linalg.svd(L, compute_uv=False)
            gaps.append(full[m - 1] / full[m])
            assert X.shape == (config.r, m) and Vh.shape == (m, config.r)
            np.testing.assert_allclose(s, full[:m], rtol=1e-12)
            np.testing.assert_allclose(X.conj().T @ X, np.eye(m), atol=1e-14)
            np.testing.assert_allclose(X @ (s[:, None] * Vh), L,
                                       atol=1e-10 * full[0])
        if full_width:
            # sigma_m is at rounding level here, so the exact gap is the one
            # of realize's own exact SVD (realize with order r), not a
            # second SVD's
            want = [realize(config, samples.left[:, j], samples.right[:, j],
                            config.r)[3]["rank_gap"]
                    for j in range(config.q)]
            assert rank_gap == min(want)
        else:
            assert 1.0 < rank_gap <= min(gaps)


def _planted(singular_values, seed=0):
    """Square matrix with the given singular values and random unitary
    singular vectors."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    U, V = (np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
            for _ in range(2))
    return (U * singular_values) @ V.conj().T


def _rank_check_of(monkeypatch, L):
    """consistency_rank_check over the single Loewner matrix L."""
    monkeypatch.setattr(loewner, "_loewner", lambda *args: L)
    r = len(L)
    config = SimpleNamespace(cauchy=None, left_dirs=None, right_dirs=None)
    one = np.zeros((r, 1, 1))
    return consistency_rank_check(config, one, one)


def _svd_count(L, rank_tol=1e-10):
    """Count of the singular values of L above rank_tol times the largest,
    from a full SVD."""
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0


class TestSketchedRank:
    @pytest.mark.parametrize("probed", ["linear1_probed", "delay_probed"])
    def test_parameter_loewner_is_build_loewner(self, probed, request,
                                                probed_loewner, monkeypatch):
        # the L that the rank check hands to _sketched_rank, bit for bit
        config, samples = request.getfixturevalue(probed)
        seen = []
        sketched = loewner._sketched_rank

        def recorded(L):
            seen.append(L.copy())
            return sketched(L)

        monkeypatch.setattr(loewner, "_sketched_rank", recorded)
        consistency_rank_check(config, samples.left, samples.right)
        want = probed_loewner(config, samples)
        assert len(seen) == len(want) == config.q
        for L, L_want in zip(seen, want):
            np.testing.assert_array_equal(L, L_want)

    @pytest.mark.parametrize("probed", ["linear1_probed", "delay_probed"])
    def test_probed_loewner_matrices(self, probed, request, probed_loewner,
                                     full_width_calls):
        # linear-1's r = 40 is sketched and certified; delay's r = 20 < 32
        # takes the exact SVD, whose gap is exact
        config, samples = request.getfixturevalue(probed)
        exact = config.r < 2 * loewner._RANK_SKETCH
        for L in probed_loewner(config, samples):
            rank, gap, _, full = loewner._sketched_rank(L)
            assert rank == _svd_count(L) and full == exact
            s = np.linalg.svd(L, compute_uv=False)
            if exact:
                assert gap == pytest.approx(s[rank - 1] / s[rank], rel=1e-12)
            else:
                assert 1.0 < gap <= s[rank - 1] / s[rank]
        assert full_width_calls == ([L.shape] * config.q if exact else [])

    @pytest.mark.parametrize("singular_values, rank", [
        # clean gap
        (np.r_[np.logspace(0, -3, 5), np.zeros(95)], 5),
        # a singular value 1% above, then 1% below the threshold 1e-10
        (np.r_[np.logspace(0, -3, 5), 1.01e-10, np.zeros(94)], 6),
        (np.r_[np.logspace(0, -3, 5), 0.99e-10, np.zeros(94)], 5),
        # rank above the initial sketch width: a sketch 32 wide, L 100
        (np.r_[np.logspace(0, -4, 24), np.zeros(76)], 24),
        # the zero matrix
        (np.zeros(100), 0),
    ])
    def test_planted_spectra(self, singular_values, rank, full_width_calls,
                             monkeypatch):
        widths = []
        sketch = loewner._dominant_left

        def recorded(A, G):
            widths.append(G.shape[1])
            return sketch(A, G)

        monkeypatch.setattr(loewner, "_dominant_left", recorded)
        L = _planted(singular_values)
        assert _svd_count(L) == rank
        assert loewner._sketched_rank(L)[0] == rank
        assert full_width_calls == []
        assert widths[-1] > rank

    def test_sketch_residual_is_the_projection_residual(self):
        # the norm the sketch returns, ||L - Q (Q^H L)|| from the product
        # Q^H L it already formed, is ||L - X X^H L|| of its basis X = Q U
        L = _planted(np.r_[np.logspace(0, -3, 10), 1e-6 * np.ones(90)])
        X, _, _, rest = loewner._dominant_left(L, _sketch(100, 16))
        want = np.linalg.norm(L - X @ (X.conj().T @ L))
        assert rest == pytest.approx(want, rel=1e-8)
        assert want > 1e-6

    def test_slow_tail_falls_back(self, full_width_calls, monkeypatch):
        # the tail lies below the threshold, but beyond any sketch its
        # energy exceeds it, so the sketch cannot certify the count, and the
        # exact SVD of L counts it
        L = _planted(np.r_[1.0, 0.1, 0.1, 0.1, 5e-11 * 0.99 ** np.arange(56)])
        m, rank_gap, bases = _rank_check_of(monkeypatch, L)
        assert m == 4
        assert full_width_calls == [L.shape]
        s = np.linalg.svd(L, compute_uv=False)
        # s[4] ~ 5e-11 s[0] carries only about 1e-16 / 5e-11 relative accuracy
        assert rank_gap == pytest.approx(s[3] / s[4], rel=1e-5)
        X, sx, Vh = bases[0]
        np.testing.assert_allclose(X @ (sx[:, None] * Vh), L, atol=1e-10)

    def test_sketch_as_wide_as_matrix_falls_back(self, full_width_calls,
                                                 monkeypatch):
        # 20 < 2 * 16: no sketch is half as wide as L, so L takes the exact
        # SVD at once
        L = _planted(np.logspace(0, -5, 20))
        assert loewner._sketched_rank(L)[::3] == (20, True)
        m, rank_gap, _ = _rank_check_of(monkeypatch, L)
        assert m == 20
        assert full_width_calls == [L.shape] * 2
        assert rank_gap == np.inf
