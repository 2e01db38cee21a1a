"""Tests for the problem interface and the benchmark problems."""

import numpy as np
import pytest

from pnlevp.contour import Disk, Ellipse
from pnlevp.errors import (BranchCutError, SingularMatrixError,
                           UnsupportedProblemError)
from pnlevp.problems import (DampedStringProblem, DelayProblem,
                             LinearDemoProblem, PNlevpProblem,
                             SyntheticRationalProblem, get_problem)


def _synthetic():
    """The two-pole synthetic problem that the residual tests share."""
    return SyntheticRationalProblem([(0.1, 0.2), (-0.2, -0.1)], dim=6, seed=0)


class TestLinearDemo:
    def test_determinant_identity(self):
        prob = LinearDemoProblem()
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            det = np.linalg.det(prob.eval(z, p))
            expected = (p - z) * (1 - p - z * z)
            assert abs(det - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_singular_at_origin_for_p_one(self):
        prob = LinearDemoProblem()
        det = np.linalg.det(prob.eval(0.0, 1.0))
        assert abs(det) <= 1e-14

    def test_solve_at_eigenvalue_raises(self):
        prob = LinearDemoProblem()
        p = 0.75
        lam2 = np.sqrt(1.0 - p + 0j)
        with pytest.raises(SingularMatrixError):
            prob.solve_right(lam2, p, np.ones(3))

    def test_true_eigenvalues_formulas(self):
        prob = LinearDemoProblem()
        lams = prob.true_eigenvalues(0.75)
        assert any(abs(z - 0.5) <= 1e-14 for z in lams)
        assert any(abs(z + 0.5) <= 1e-14 for z in lams)

    def test_true_eigenvalues_double_at_p_one(self):
        prob = LinearDemoProblem()
        lams = prob.true_eigenvalues(1.0, domain=Disk(0.0, 0.6))
        assert len(lams) == 2
        np.testing.assert_allclose(lams, [0.0, 0.0], atol=1e-14)


class TestDelay:
    def test_eval_at_zero(self):
        prob = DelayProblem()
        T = prob.eval(0.0, 30.0)
        np.testing.assert_allclose(np.diag(T), 0.01 + prob.E, rtol=0, atol=0)
        assert np.count_nonzero(T - np.diag(np.diag(T))) == 0

    def test_solve_right_scalar_oracle(self):
        prob = DelayProblem()
        e1 = np.zeros(10)
        e1[0] = 1.0
        x = prob.solve_right(0.05, 30.0, e1)
        expected = 1.0 / (0.05 + 0.01 * np.exp(-1.5) + 1e-4)
        assert abs(x[0] - expected) <= 1e-13 * abs(expected)
        np.testing.assert_allclose(x[1:], 0.0, atol=0)

    def test_solve_left_equals_solve_right_for_symmetric(self):
        prob = DelayProblem()
        rng = np.random.default_rng(3)
        B = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        np.testing.assert_array_equal(
            prob.solve_left(0.03, 32.0, B), prob.solve_right(0.03, 32.0, B)
        )

    def test_diagonal_solve_is_entrywise_division(self):
        prob = DelayProblem()
        rng = np.random.default_rng(4)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        z, p = 0.02 + 0.01j, 31.0
        x = prob.solve_right(z, p, b)
        d = z + 0.01 * np.exp(-p * z) + prob.E
        np.testing.assert_allclose(x, b / d, rtol=1e-14, atol=0)

    def test_four_roots_in_benchmark_domain(self):
        prob = DelayProblem()
        lams = prob.true_eigenvalues(30.0, domain=Disk(0.0, 0.075))
        assert len(lams) == 4
        # Newton oracle roots actually solve a diagonal entry equation
        for lam in lams:
            vals = lam + 0.01 * np.exp(-30.0 * lam) + prob.E
            assert np.min(np.abs(vals)) <= 1e-10


class TestDampedString:
    def test_branch_square_identity(self):
        rng = np.random.default_rng(5)
        prob = DampedStringProblem()
        for _ in range(50):
            z = complex(rng.uniform(-10, 5), rng.uniform(-20, 20))
            if abs(z.imag) < 1e-3:
                z += 0.5j
            p = rng.uniform(2.0, 6.0)
            zh = prob.branch(z, p)
            target = z * z + 2 * p * z
            assert abs(zh * zh - target) <= 1e-13 * max(1.0, abs(target))

    def test_branch_value_at_minus_p(self):
        prob = DampedStringProblem()
        zh = prob.branch(-3.0, 3.0)
        assert abs(zh - 3j) <= 1e-14 or abs(zh + 3j) <= 1e-14

    def test_branch_continuity_inside_segment(self):
        prob = DampedStringProblem()
        p = 3.0
        eps, delta = 1e-8, 0.1
        xs = np.linspace(-2 * p + delta, -delta, 11)
        for x in xs:
            above = prob.branch(x + 1j * eps, p)
            below = prob.branch(x - 1j * eps, p)
            assert abs(above - below) <= 1e-6

    def test_branch_cut_rejected(self):
        prob = DampedStringProblem()
        with pytest.raises(BranchCutError):
            prob.eval(1.0, 3.0)
        with pytest.raises(BranchCutError):
            prob.eval(-7.0, 3.0)

    def test_eval_nodes_matches_stacked_eval(self):
        from pnlevp.contour import build_trapezoid_rule

        prob = DampedStringProblem()
        nodes = build_trapezoid_rule(Ellipse(-3.0, 2.5, 10.0), 1000).nodes
        for p in (3.0, 3.5, 4.0):
            batch = prob.eval_nodes(nodes, p)
            stacked = np.array([prob.eval(z, p) for z in nodes])
            assert batch.shape == (1000, 4, 4)
            # eval is the one-point case of the same assembly; SIMD array
            # loops may still round a lone point and a long stack apart, so
            # the match is to rounding, not bit for bit
            assert (np.linalg.norm(batch - stacked)
                    <= 1e-15 * np.linalg.norm(stacked))

    def test_eval_nodes_rejects_cut_in_batch(self):
        prob = DampedStringProblem()
        z = np.array([-1.0 + 0.5j, -2.0 - 1.0j, 1.0, -7.0])
        with pytest.raises(BranchCutError, match=r"z=\(1\+0j\)"):
            prob.eval_nodes(z, 3.0)
        prob.eval_nodes(z[:2], 3.0)


class TestSynthetic:
    def test_det_vanishes_at_prescribed_eigenvalues(self):
        prob = SyntheticRationalProblem(
            [(0.1, 0.2), (-0.2, -0.1), (0.05j, 0.1)], dim=6, seed=2
        )
        rng = np.random.default_rng(6)
        scale = abs(np.linalg.det(prob.eval(2.0, 0.0)))
        for _ in range(100):
            p = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for lam in prob.eigenvalues_at(p):
                det = np.linalg.det(prob.eval(lam, p))
                assert abs(det) <= 1e-10 * scale

    def test_eval_nodes_is_the_closed_form(self):
        # Q diag(z - lam_1(p), z - lam_2(p), 1, 1, 1) Z at each point
        prob = SyntheticRationalProblem([(0.1, 0.2), (-0.2, -0.1)], dim=5,
                                        seed=7)
        z = np.array([0.3 + 0.1j, -0.2j, 1.5])
        p = 0.4 - 0.1j
        lams = prob.eigenvalues_at(p)
        want = [prob.Q @ np.diag(np.r_[zt - lams, np.ones(3)]) @ prob.Z
                for zt in z]
        np.testing.assert_allclose(prob.eval_nodes(z, p), want, rtol=0,
                                   atol=1e-13)

    def test_exact_pole_part(self):
        prob = SyntheticRationalProblem([(0.1, 0.2), (-0.2, -0.1)], dim=5, seed=7)
        p = 0.3
        # the pole part of T^{-1} shares each residue: compare the contour
        # integrals of T^{-1} and of the closed form on circles around poles
        for lam in prob.eigenvalues_at(p):
            rad = 1e-2
            w = np.exp(2j * np.pi * np.arange(64) / 64)
            zs = lam + rad * w
            res_true = sum(
                np.linalg.inv(prob.eval(z, p)) * rad * wi / 64
                for z, wi in zip(zs, w)
            )
            res_H = sum(
                prob.exact_H(z, p) * rad * wi / 64 for z, wi in zip(zs, w)
            )
            np.testing.assert_allclose(res_true, res_H, atol=1e-8)
        assert prob.exact_H(2.0 + 1.0j, p).shape == (5, 5)

    def test_inside_domain_generator(self):
        domain = Disk(0.2 + 0.1j, 0.5)
        prob = SyntheticRationalProblem.inside_domain(
            domain, 3, (0.0, 1.0), seed=11
        )
        for p in np.linspace(0.0, 1.0, 17):
            for lam in prob.eigenvalues_at(p):
                assert domain.contains(lam)


class TestConjugation:
    @pytest.mark.parametrize("name, signs", [
        ("linear-demo", [1, 1, 1]), ("delay", [1] * 10),
        ("damped-string", [1, -1, 1, 1])])
    def test_identity_at_random_points(self, name, signs):
        # T(conj(z), p) = conj(T(z, p)) diag(s) for real p, off the real
        # axis (the damped string's cut lies on it)
        prob = get_problem(name)
        np.testing.assert_array_equal(
            np.broadcast_to(prob.conjugation, (prob.dim,)), signs)
        rng = np.random.default_rng(11)
        z = rng.uniform(-6, 1, 20) + 1j * rng.uniform(-10, 10, 20)
        for p in rng.uniform(0.5, 4.0, 3):
            T = prob.eval_nodes(z, p)
            np.testing.assert_allclose(
                prob.eval_nodes(z.conj(), p),
                T.conj() * np.asarray(signs, dtype=float),
                rtol=1e-14, atol=1e-14 * np.max(np.abs(T)))

    def test_undeclared_for_synthetic_and_custom(self):
        assert _synthetic().conjugation is None
        assert PNlevpProblem.conjugation is None


class TestInterface:
    def test_identity_solve(self):
        class Identity(PNlevpProblem):
            dim = 4

            def eval(self, z, p):
                return np.eye(4, dtype=complex)

        rng = np.random.default_rng(8)
        B = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        np.testing.assert_array_equal(Identity().solve_right(0.0, 0.0, B), B)

    def test_solve_left_matches_transpose(self):
        prob = SyntheticRationalProblem([(0.1, 0.2)], dim=4, seed=9)
        rng = np.random.default_rng(10)
        L = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        z, p = 1.5, 0.4
        X = prob.solve_left(z, p, L)
        T = prob.eval(z, p)
        assert np.linalg.norm(T.T @ X - L) <= 1e-10 * np.linalg.norm(L)

    def test_eval_nodes_default_stacks_eval(self):
        z = np.array([0.3 + 0.1j, -0.2j, 1.5, 0.7 - 0.4j])
        for prob in (LinearDemoProblem(), DelayProblem(),
                     SyntheticRationalProblem([(0.1, 0.2)], dim=4, seed=9)):
            batch = prob.eval_nodes(z, 0.4)
            assert batch.dtype == complex
            np.testing.assert_array_equal(
                batch, np.array([prob.eval(zt, 0.4) for zt in z]))

    @pytest.mark.parametrize("name", ["linear-demo", "delay", "damped-string",
                                      "synthetic"])
    def test_eval_nodes_takes_one_parameter_per_point(self, name):
        prob = _synthetic() if name == "synthetic" else get_problem(name)
        rng = np.random.default_rng(4)
        # off the real axis, so off the damped string's cuts
        z = -3.0 + rng.standard_normal(9) + 1j * rng.standard_normal(9)
        p = 3.0 + rng.random(9) + 0.1j * rng.standard_normal(9)
        batch = prob.eval_nodes(z, p)
        assert batch.shape == (9, prob.dim, prob.dim)
        for t in range(len(z)):
            np.testing.assert_array_equal(
                batch[t], prob.eval_nodes(z[t:t + 1], p[t])[0])

    def test_default_eval_nodes_pairs_points_and_parameters(self):
        seen = []

        class Custom(PNlevpProblem):
            dim = 2

            def eval(self, z, p):
                seen.append((z, p))
                return (z - p) * np.eye(2, dtype=complex)

        z = np.array([0.1, 0.2j, 0.3 - 0.1j])
        p = np.array([1.0, 2.0, 3.0])
        batch = Custom().eval_nodes(z, p)
        assert seen == list(zip(z, p))
        np.testing.assert_array_equal(
            batch, (z - p)[:, None, None] * np.eye(2))

    def test_eval_deterministic(self):
        for prob in (LinearDemoProblem(), DelayProblem(),
                     DampedStringProblem()):
            z = -1.0 + 0.7j if prob.name == "damped-string" else 0.03 + 0.01j
            T1 = prob.eval(z, 3.0)
            T2 = prob.eval(z, 3.0)
            np.testing.assert_array_equal(T1, T2)

    def test_registry(self):
        assert get_problem("linear-demo").name == "linear-demo"
        assert get_problem("delay").dim == 10
        assert get_problem("damped-string").dim == 4
        # a synthetic problem takes constructor arguments, so no name
        # stands for one
        for name in ("synthetic", "no-such-problem"):
            with pytest.raises(UnsupportedProblemError):
                get_problem(name)
        assert _synthetic().name == "synthetic"

    def test_oracle_unsupported_on_custom_problem(self):
        class Custom(PNlevpProblem):
            dim = 2

            def eval(self, z, p):
                return z * np.eye(2, dtype=complex)

        with pytest.raises(UnsupportedProblemError):
            Custom().true_eigenvalues(0.0)

    def test_custom_problem_implements_eval_or_eval_nodes(self):
        class Stacked(PNlevpProblem):
            dim = 2

            def eval_nodes(self, z, p):
                return (np.asarray(z)[:, None, None] - p) * np.eye(2)

        np.testing.assert_array_equal(Stacked().eval(0.5j, 0.25),
                                      (0.5j - 0.25) * np.eye(2))
        with pytest.raises(NotImplementedError):
            PNlevpProblem().eval(0.5j, 0.25)
        with pytest.raises(NotImplementedError):
            PNlevpProblem().eval_nodes(np.array([0.5j]), 0.25)
