"""Tests for domains, boundary quadrature, and probed resolvent sampling."""

import re
import tracemalloc

import numpy as np
import pytest

from pnlevp import benchmarks
from pnlevp.contour import (Disk, Ellipse, _sketch_weights,
                            build_trapezoid_rule, default_sampling,
                            probe_samples, scale_domain)
from pnlevp.errors import SingularMatrixError
from pnlevp.problems import (LinearDemoProblem, PNlevpProblem,
                             SyntheticRationalProblem)


class ScalarShift(PNlevpProblem):
    """T(z, p) = z - mu, a 1x1 problem with a single eigenvalue mu."""

    dim = 1

    def __init__(self, mu):
        self.mu = mu

    def eval(self, z, p):
        return np.array([[z - self.mu]], dtype=complex)


def _linear_demo_pole_part(z, p):
    """Closed-form pole part of the 3x3 linear demo resolvent for the two
    square-root eigenvalue branches (the branch z = p is excluded)."""
    d = z * z + p - 1.0
    e = p * p + p - 1.0
    return np.array(
        [
            [z / d, 1.0 / d, 0.0],
            [(1.0 - p) / d, z / d, 0.0],
            [(p + z) * (p - 1.0) / (e * d), (-p * z + p - 1.0) / (e * d), 0.0],
        ],
        dtype=complex,
    )


def _contracted(config, H):
    """What probe_samples returns, (left, right, scalar, sketches), with the
    scalar and sketches the columns of its stack, formed from pole-part
    samples H of shape (2r, q, n, n) held in one piece."""
    lbar = config.left_dirs.mean(axis=0)
    rbar = config.right_dirs.mean(axis=0)
    return (np.einsum("ka,kjab->kjb", config.left_dirs, H[0::2]),
            np.einsum("kjab,kb->kja", H[1::2], config.right_dirs),
            np.einsum("a,ijab,b->ij", lbar, H, rbar),
            np.einsum("ijab,tab->ijt", H, _sketch_weights(config)))


def _fields(samples):
    """left, right, and the scalar and sketch columns of the stack."""
    return (samples.left, samples.right, samples.stack[..., 0],
            samples.stack[..., 1:])


def _probe_config(domain, points, dirs_l, dirs_r, p_points):
    from pnlevp.contour import SamplingConfig

    return SamplingConfig(
        sample_points=np.asarray(points, dtype=complex),
        parameter_points=np.asarray(p_points, dtype=complex),
        left_dirs=np.asarray(dirs_l, dtype=complex),
        right_dirs=np.asarray(dirs_r, dtype=complex),
    )


class TestDomains:
    def test_disk_contains_strict_interior(self):
        disk = Disk(0.0, 1.0)
        assert disk.contains(0.5)
        assert not disk.contains(1.0)       # boundary point
        assert not disk.contains(1.0 + 1e-16)
        assert not disk.contains(2.0)

    def test_ellipse_contains(self):
        ell = Ellipse(-3.0, 2.5, 10.0)
        assert ell.contains(-3.0)
        assert ell.contains(-3.0 + 9.9j)
        assert not ell.contains(-3.0 + 10.0j)
        assert not ell.contains(0.0)

    def test_invalid_radii_rejected(self):
        with pytest.raises(ValueError):
            Disk(0.0, 0.0)
        with pytest.raises(ValueError):
            Disk(0.0, -1.0)
        with pytest.raises(ValueError):
            Ellipse(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_disk_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Disk(0.0, bad)
        with pytest.raises(ValueError, match="finite"):
            Disk(complex(bad, 0.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            Disk(complex(0.0, bad), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ellipse_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Ellipse(complex(bad, 0.0), 1.0, 2.0)
        with pytest.raises(ValueError, match="finite"):
            Ellipse(0.0, bad, 2.0)
        with pytest.raises(ValueError, match="finite"):
            Ellipse(0.0, 1.0, bad)

    def test_disk_is_a_round_ellipse(self):
        assert Disk(0.5j, 0.25) == Ellipse(0.5j, 0.25, 0.25)

    def test_disk_contains_matches_modulus_test(self):
        # the ellipse test (1 - rho) r > 1e-14 and |z - c| < r - 1e-14 may
        # differ only by rounding, within the 1e-14 band of the boundary
        c, r = 0.3 + 0.2j, 1.7
        x = np.linspace(-2 * r, 2 * r, 301)
        phi = np.linspace(0.0, 2 * np.pi, 50)
        z = np.concatenate([
            c + (x[:, None] + 1j * x[None, :]).ravel(),
            c + (r + 1e-11) * np.exp(1j * phi),
            c + (r - 1e-11) * np.exp(1j * phi),
        ])
        z = z[np.abs(np.abs(z - c) - (r - 1e-14)) > 1e-12]
        got = Disk(c, r).contains(z)
        np.testing.assert_array_equal(got, np.abs(z - c) < r - 1e-14)
        assert 0 < np.count_nonzero(got) < len(z)

    def test_scale_domain(self):
        d = scale_domain(Disk(1.0j, 0.075), 4.0 / 3.0)
        assert abs(d.semi_real - 0.1) <= 1e-15
        assert d.center == 1.0j
        e = scale_domain(Ellipse(-3.0, 3.0, 11.0), 2.0)
        assert (e.semi_real, e.semi_imag) == (6.0, 22.0)


class TestTrapezoidRule:
    def test_unit_disk_four_nodes(self):
        rule = build_trapezoid_rule(Disk(0.0, 1.0), 4)
        np.testing.assert_allclose(rule.nodes, [1.0, 1.0j, -1.0, -1.0j],
                                   atol=1e-15)
        np.testing.assert_allclose(rule.weights,
                                   [0.25, 0.25j, -0.25, -0.25j], atol=1e-15)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            build_trapezoid_rule(Ellipse(-3.0, 2.5, 10.0), 1)

    def test_ellipse_two_nodes(self):
        rule = build_trapezoid_rule(Ellipse(-3.0, 2.5, 10.0), 2)
        np.testing.assert_allclose(rule.nodes, [-0.5, -5.5], atol=1e-14)

    @pytest.mark.parametrize("name", ["linear-1", "linear-2", "delay"])
    def test_pinned_disk_rule_is_the_closed_form(self, name):
        bench = benchmarks.BENCHMARKS[name]
        c, r = bench.domain.center, bench.domain.semi_real
        assert bench.domain.semi_imag == r
        rule = build_trapezoid_rule(Disk(c, r), bench.N)
        # gamma(t) = c + r e^{it} and gamma'(t) = i r e^{it}, bit for bit
        t = 2 * np.pi * np.arange(bench.N) / bench.N
        nodes = c + r * np.exp(1j * t)
        weights = 1j * r * np.exp(1j * t) / (1j * bench.N)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()

    def test_disk_weights_sum_to_zero(self):
        for N in (2, 7, 16, 33):
            rule = build_trapezoid_rule(Disk(0.3 + 0.2j, 1.7), N)
            assert abs(np.sum(rule.weights)) <= 1e-13
            assert len(rule) == N

    def test_analytic_integrand_vanishes(self):
        theta = 2.0
        errs = {}
        for N in (16, 32):
            rule = build_trapezoid_rule(Disk(0.0, 1.0), N)
            errs[N] = abs(np.sum(rule.weights / (theta - rule.nodes)))
        assert errs[16] <= 1e-4
        assert errs[32] <= 1e-9


class TestProbeSamples:
    def test_scalar_pole_inside(self):
        prob = ScalarShift(0.0)
        domain = Disk(0.0, 1.0)
        rule = build_trapezoid_rule(domain, 32)
        config = _probe_config(domain, [2.0, 3.0], [[1.0]], [[1.0]], [0.0])
        samples = probe_samples(prob, rule, config, domain)
        # H(s) = 1/(s - 0): value 0.5 at theta = 2, 1/3 at sigma = 3
        assert abs(samples.left[0, 0, 0] - 0.5) <= 1e-9
        assert abs(samples.right[0, 0, 0] - 1 / 3) <= 1e-9
        assert np.max(np.abs(samples.stack[:, 0, 0] - [0.5, 1 / 3])) <= 1e-9

    def test_scalar_pole_outside_gives_zero(self):
        prob = ScalarShift(5.0)
        domain = Disk(0.0, 1.0)
        rule = build_trapezoid_rule(domain, 32)
        config = _probe_config(domain, [2.0, 3.0], [[1.0]], [[1.0]], [0.0])
        samples = probe_samples(prob, rule, config, domain)
        for got in _fields(samples):
            assert np.max(np.abs(got)) <= 1e-9

    def test_linear_demo_matches_closed_form(self):
        prob = LinearDemoProblem()
        domain = Disk(0.0, 0.6)
        rule = build_trapezoid_rule(domain, 256)
        p = 0.75
        s_points = 0.8 * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
        rng = np.random.default_rng(0)
        ell = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        rvec = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        config = _probe_config(domain, s_points, ell, rvec, [p])
        samples = probe_samples(prob, rule, config, domain)
        H = np.array([[_linear_demo_pole_part(s, p)] for s in s_points])
        assert samples.stack.shape == (4, 1, 5)
        shapes = [(2, 1, 3), (2, 1, 3), (4, 1), (4, 1, 4)]
        for got, want, shape in zip(_fields(samples),
                                    _contracted(config, H), shapes):
            assert got.shape == shape
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_error_decreases_with_n_doubling(self):
        domain = Disk(0.0, 1.0)
        prob = SyntheticRationalProblem.inside_domain(
            domain, 3, (0.0, 1.0), seed=5
        )
        s_points = 1.5 * np.exp(2j * np.pi * np.arange(6) / 6)
        rng = np.random.default_rng(1)
        ell = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        rvec = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        config = _probe_config(domain, s_points, ell, rvec, [0.25, 0.75])
        H = np.array([[prob.exact_H(s, p) for p in config.parameter_points]
                      for s in s_points])
        want = _contracted(config, H)
        errs = []
        for N in (32, 64, 128):
            rule = build_trapezoid_rule(domain, N)
            samples = probe_samples(prob, rule, config, domain)
            errs.append(max(np.max(np.abs(got - w))
                            for got, w in zip(_fields(samples), want)))
        for a, b in zip(errs, errs[1:]):
            assert b < a or b <= 1e-13

    def test_memory_does_not_grow_with_q(self):
        # H at all parameters, (2r, q, n, n), would be 6.4 MB per parameter
        domain = Disk(0.0, 1.0)
        prob = SyntheticRationalProblem.inside_domain(
            domain, 3, (0.0, 1.0), seed=5, dim=100)
        rule = build_trapezoid_rule(domain, 64)
        peaks = []
        for q in (10, 20):
            config = default_sampling(domain, 20, q, (0.0, 1.0), seed=0,
                                      dim=prob.dim)
            tracemalloc.start()
            try:
                probe_samples(prob, rule, config, domain)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_probe_linearity_in_directions(self):
        domain = Disk(0.0, 1.0)
        prob = SyntheticRationalProblem.inside_domain(
            domain, 2, (0.0, 1.0), seed=6
        )
        rule = build_trapezoid_rule(domain, 64)
        s_points = np.array([1.7, 2.1 + 0.3j])
        rng = np.random.default_rng(2)
        l1 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        l2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a, b = 1.3 - 0.4j, -0.7 + 2.2j
        outs = []
        for left in (l1, l2, a * l1 + b * l2):
            config = _probe_config(domain, s_points, [left], [l1], [0.5])
            outs.append(probe_samples(prob, rule, config, domain).left[0])
        combo = a * outs[0] + b * outs[1]
        scale = np.max(np.abs(combo))
        np.testing.assert_allclose(outs[2], combo, atol=1e-12 * scale)

    def test_sample_point_inside_domain_rejected(self):
        domain = Disk(0.0, 1.0)
        prob = ScalarShift(0.0)
        rule = build_trapezoid_rule(domain, 8)
        config = _probe_config(domain, [0.5, 2.0], [[1.0]], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            probe_samples(prob, rule, config, domain)

    def test_singular_node_fails_fast(self):
        domain = Disk(0.0, 1.0)
        prob = ScalarShift(1.0)  # eigenvalue on the contour
        rule = build_trapezoid_rule(domain, 8)
        config = _probe_config(domain, [2.0, 3.0], [[1.0]], [[1.0]], [0.0])
        with pytest.raises(SingularMatrixError,
                           match=r"quadrature node z=\(1\+0j\)"):
            probe_samples(prob, rule, config, domain)

    def test_non_finite_inverse_names_first_bad_node(self):
        class NanAtNode(PNlevpProblem):
            dim = 2

            def eval(self, z, p):
                if abs(z - 1j) < 1e-12 or abs(z + 1) < 1e-12:
                    return np.full((2, 2), np.nan, dtype=complex)
                return np.eye(2, dtype=complex)

        domain = Disk(0.0, 1.0)
        rule = build_trapezoid_rule(domain, 8)  # node 2 is 1j, node 4 is -1
        config = _probe_config(domain, [2.0, 3.0], np.eye(2)[:1],
                               np.eye(2)[:1], [0.5])
        with pytest.raises(SingularMatrixError, match=r"node z=\(.*1j\)"):
            probe_samples(NanAtNode(), rule, config, domain)


class TestDefaultSampling:
    def test_delay_setup_inflation(self):
        config = default_sampling(Disk(0.0, 0.075), 20, 40, (30.0, 35.0),
                                  seed=0, dim=10)
        assert len(config.sample_points) == 40
        np.testing.assert_allclose(np.abs(config.sample_points), 0.1,
                                   atol=1e-15)
        assert config.q == 40
        np.testing.assert_allclose(config.parameter_points[0], 30.0)
        np.testing.assert_allclose(config.parameter_points[-1], 35.0)

    def test_interlaced_partition(self):
        config = default_sampling(Disk(0.0, 1.0), 4, 3, (0.0, 1.0), seed=1,
                                  dim=2)
        s = config.sample_points
        np.testing.assert_array_equal(config.left_points, s[0::2])
        np.testing.assert_array_equal(config.right_points, s[1::2])
        assert set(config.left_points) | set(config.right_points) == set(s)

    def test_degenerate_parameter_range(self):
        config = default_sampling(Disk(0.0, 1.0), 2, 1, (30.0, 30.0), seed=0,
                                  dim=2)
        np.testing.assert_array_equal(config.parameter_points, [30.0 + 0j])

    @pytest.mark.parametrize("p_range", [
        (30.0, np.inf), (-np.inf, 0.0), (np.nan, 35.0),
        (0.0, complex(1, np.inf))])
    def test_non_finite_parameter_range_rejected(self, p_range):
        with pytest.raises(ValueError, match="must be finite"):
            default_sampling(Disk(0.0, 1.0), 2, 4, p_range, seed=0, dim=2)

    def test_seed_determinism(self):
        a = default_sampling(Disk(0.0, 1.0), 5, 4, (0.0, 1.0), seed=7, dim=3)
        b = default_sampling(Disk(0.0, 1.0), 5, 4, (0.0, 1.0), seed=7, dim=3)
        np.testing.assert_array_equal(a.left_dirs, b.left_dirs)
        np.testing.assert_array_equal(a.right_dirs, b.right_dirs)
        c = default_sampling(Disk(0.0, 1.0), 5, 4, (0.0, 1.0), seed=8, dim=3)
        assert not np.array_equal(a.left_dirs, c.left_dirs)

    def test_sampling_domain_override(self):
        config = default_sampling(
            Ellipse(-3.0, 2.5, 10.0), 6, 3, (3.0, 4.0), seed=0, dim=4,
            sampling_domain=Ellipse(-3.0, 3.0, 11.0),
        )
        ell = Ellipse(-3.0, 3.0, 11.0)
        for s in config.sample_points:
            assert ell.boundary_distance(s) <= 1e-12

    def test_first_point_inside_is_named(self):
        # the third of 8 points on this ellipse, near 0.5i, is the first one
        # inside the unit disk
        crossing = Ellipse(0.0, 2.0, 0.5)
        s = crossing.gamma(2 * np.pi * np.arange(8) / 8)
        with pytest.raises(ValueError, match=re.escape(
                f"sample point {s[2]} is not strictly outside")):
            default_sampling(Disk(0.0, 1.0), 4, 3, (0.0, 1.0), seed=0, dim=2,
                             sampling_domain=crossing)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            default_sampling(Disk(0.0, 1.0), 0, 3, (0.0, 1.0), seed=0, dim=2)
        with pytest.raises(ValueError):
            default_sampling(Disk(0.0, 1.0), 2, 3, (0.0, 1.0), seed=0, dim=2,
                             inflation=1.0)
