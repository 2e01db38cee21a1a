"""Target domains, boundary quadrature, and probed resolvent sampling.

The quadrature rule discretizes the Cauchy-integral evaluation of the pole
part H of T^{-1} at points outside the closed domain:

    H(s) ~= sum_t w_t / (s - z_t) * T(z_t)^{-1},

so samples of H come from N dense n-by-n inverses of T per parameter, one
batched inverse over the boundary nodes (the block-resolvent sum of Beyn's
contour method, Beyn, LAA 2012).  Offline reads H only through contractions
with the probing directions, so the probe forms H at one parameter at a
time, contracts it into all of them and drops it: the tangential data
b_k(p) = l_k^T H(theta_k, p) and c_k(p) = H(sigma_k, p) r_k, each direction
at its own sample point, and the refit stack that the barycentric fit reads:
the scalar l^T H r of the direction means, followed by a few random
combinations of the tangential samples.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError

_BOUNDARY_TOL = 1e-14
# random combinations of the left (and as many of the right) samples that
# join the scalar in the coefficient refit
_LIFT_SKETCHES = 2


@dataclass(frozen=True)
class Ellipse:
    """Target domain: the open ellipse with axes along the real and
    imaginary axes; Disk(center, radius) builds the round one."""

    center: complex
    semi_real: float
    semi_imag: float

    def __post_init__(self):
        if not all(np.isfinite(x) for x in
                   (self.center, self.semi_real, self.semi_imag)):
            raise ValueError(f"ellipse center {self.center} and semi-axes "
                             f"{self.semi_real}, {self.semi_imag} must be "
                             "finite")
        if self.semi_real <= 0 or self.semi_imag <= 0:
            raise ValueError("ellipse semi-axes must be positive")

    def contains(self, z):
        """Strict interior test of a point or an array of points; points
        within 1e-14 of the boundary are outside."""
        w = z - self.center
        rho = np.hypot(w.real / self.semi_real, w.imag / self.semi_imag)
        return (1.0 - rho) * min(self.semi_real, self.semi_imag) > _BOUNDARY_TOL

    def gamma(self, t):
        return self.center + self.semi_real * np.cos(t) + 1j * self.semi_imag * np.sin(t)

    def dgamma(self, t):
        return -self.semi_real * np.sin(t) + 1j * self.semi_imag * np.cos(t)

    def boundary_distance(self, z):
        # conservative estimate via the normalized radial coordinate
        w = z - self.center
        rho = np.hypot(w.real / self.semi_real, w.imag / self.semi_imag)
        return abs(1.0 - rho) * min(self.semi_real, self.semi_imag)


def Disk(center, radius):
    """The disk |z - center| < radius, as a round Ellipse."""
    return Ellipse(center, radius, radius)


def scale_domain(domain, factor):
    """Domain with both semi-axes scaled about the same center."""
    return Ellipse(domain.center, domain.semi_real * factor,
                   domain.semi_imag * factor)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes z_t on the boundary and weights w_t with H(s) ~= sum w_t/(s-z_t) T(z_t)^{-1}."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.nodes)


def build_trapezoid_rule(domain, N):
    """Parameter-uniform trapezoidal rule on the domain boundary.

    z_t = gamma(2 pi t / N), w_t = gamma'(2 pi t / N) * (2 pi / N) / (2 pi i).
    """
    if N < 2:
        raise ValueError("trapezoid rule needs N >= 2 nodes")
    t = 2 * np.pi * np.arange(N) / N
    nodes = domain.gamma(t)
    weights = domain.dgamma(t) / (1j * N)
    return QuadratureRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class SamplingConfig:
    """Sample points, their interlaced left/right partition, parameter points,
    and probing directions for the offline phase."""

    sample_points: np.ndarray      # (2r,) off the closed domain
    parameter_points: np.ndarray   # (q,)
    left_dirs: np.ndarray          # (r, n)
    right_dirs: np.ndarray         # (r, n)
    seed: int = 0

    def __post_init__(self):
        s = np.asarray(self.sample_points, dtype=complex)
        if len(s) % 2 != 0 or len(s) < 2:
            raise ValueError("need an even, positive number of sample points")
        r = len(s) // 2
        if not set(s[0::2].tolist()).isdisjoint(s[1::2].tolist()):
            raise ValueError(
                "left and right sample points must be pairwise distinct")
        if self.left_dirs.shape[0] != r or self.right_dirs.shape[0] != r:
            raise ValueError("need r left and r right probing directions")
        if self.left_dirs.shape != self.right_dirs.shape:
            raise ValueError(
                "left and right probing directions differ in shape: "
                f"{self.left_dirs.shape} and {self.right_dirs.shape}")
        object.__setattr__(self, "sample_points", s)
        object.__setattr__(
            self, "parameter_points", np.asarray(self.parameter_points, dtype=complex)
        )

    @property
    def r(self):
        return len(self.sample_points) // 2

    @property
    def q(self):
        return len(self.parameter_points)

    @property
    def left_points(self):
        """theta_i = s_{2i-1} (interlaced odd positions, 1-based)."""
        return self.sample_points[0::2]

    @property
    def right_points(self):
        """sigma_i = s_{2i} (interlaced even positions, 1-based)."""
        return self.sample_points[1::2]


def default_sampling(domain, r, q, p_range, seed, dim, inflation=4.0 / 3.0,
                     sampling_domain=None):
    """Standard sampling setup: 2r points uniformly spaced on an inflated copy
    of the domain boundary, interlaced into theta/sigma; q uniformly spaced
    parameter points; complex standard-normal probing directions."""
    if r < 1 or q < 1:
        raise ValueError("need r >= 1 and q >= 1")
    if not (np.isfinite(inflation) and inflation > 1.0):
        raise ValueError(f"inflation factor {inflation} must be a finite "
                         "number exceeding 1")
    p0, p1 = p_range
    if not (np.isfinite(p0) and np.isfinite(p1)):
        raise ValueError(f"parameter range bounds {p0}, {p1} must be finite")
    boundary = sampling_domain if sampling_domain is not None else scale_domain(domain, inflation)
    t = 2 * np.pi * np.arange(2 * r) / (2 * r)
    s = boundary.gamma(t)
    _check_outside(domain, s)
    p = np.linspace(complex(p0), complex(p1), q)
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
    right = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
    return SamplingConfig(
        sample_points=s,
        parameter_points=p,
        left_dirs=left,
        right_dirs=right,
        seed=seed,
    )


def _check_outside(domain, points):
    """Raise ValueError for the first point that is not strictly outside the
    closed domain (inside, or within 1e-10 of its boundary)."""
    bad = domain.contains(points) | (domain.boundary_distance(points) <= 1e-10)
    if np.any(bad):
        raise ValueError(f"sample point {points[np.argmax(bad)]} is not "
                         "strictly outside the domain")


@dataclass(frozen=True)
class ProbedSampleSet:
    """What offline reads of the pole part H(s_i, p_j), which is not kept:
    left[k, j] = l_k^T H(theta_k, p_j) and right[k, j] = H(sigma_k, p_j) r_k,
    (r, q, n) each; and the refit stack, (2r, q, 1 + 2 * _LIFT_SKETCHES),
    whose column stack[i, j, 0] = lbar^T H(s_i, p_j) rbar is the scalar,
    with lbar, rbar the means of the probing directions, and whose column
    stack[i, j, 1 + t] is the sum of H(s_i, p_j) times the t-th matrix of
    _sketch_weights(config), entry by entry."""

    left: np.ndarray
    right: np.ndarray
    stack: np.ndarray


def probe_samples(problem, rule, config, domain):
    """Approximate H at every sample point and parameter by boundary
    quadrature, and contract it into a ProbedSampleSet.

    For each parameter, T is evaluated at all N nodes as one stack
    (problem.eval_nodes) and inverted with one batched dense inverse; H at
    the 2r sample points, (2r, n, n), is the weighted sum of those inverses.
    It is contracted into that parameter's share of every field and dropped
    before the next parameter, so memory grows with r q n, not r q n^2.
    Raises ValueError for a sample point that is not strictly outside the
    domain or for non-finite samples, and SingularMatrixError naming the
    first node where T is singular.
    """
    s = config.sample_points
    n = problem.dim
    _check_outside(domain, s)
    C = np.subtract.outer(s, rule.nodes)  # (2r, N), divided in place
    np.divide(rule.weights, C, out=C)
    lbar = config.left_dirs.mean(axis=0)
    rbar = config.right_dirs.mean(axis=0)
    M = _sketch_weights(config)
    b, c = np.empty((2, config.r, config.q, n), dtype=complex)
    stack = np.empty((len(s), config.q, 1 + len(M)), dtype=complex)
    for j, pj in enumerate(config.parameter_points):
        Tinv = _invert_nodes(problem, rule.nodes, pj)
        H = (C @ Tinv.reshape(len(rule), n * n)).reshape(-1, n, n)
        if not np.all(np.isfinite(H)):
            raise ValueError("probed samples contain non-finite entries")
        b[:, j] = np.einsum("ka,kab->kb", config.left_dirs, H[0::2])
        c[:, j] = np.einsum("kab,kb->ka", H[1::2], config.right_dirs)
        stack[:, j, 0] = lbar @ H @ rbar
        stack[:, j, 1:] = np.tensordot(H, M, axes=([1, 2], [1, 2]))
    return ProbedSampleSet(left=b, right=c, stack=stack)


def _sketch_weights(config):
    """The n-by-n matrices (2 * _LIFT_SKETCHES, n, n) whose contractions
    with H are random combinations of the left samples and of the right
    samples, each over all directions and vector components.

    A combination sum_k g_k^T (l_k^T H) of left rows is H contracted with
    sum_k l_k g_k^T; of right columns, with sum_k g_k r_k^T.  The weights g
    come from a child stream of config.seed, independent of the stream that
    drew the probing directions."""
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed).spawn(1)[0])
    shape = (_LIFT_SKETCHES,) + config.left_dirs.shape
    g_left, g_right = (rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape) for _ in range(2))
    return np.concatenate(
        [np.einsum("ka,skb->sab", config.left_dirs, g_left),
         np.einsum("ska,kb->sab", g_right, config.right_dirs)])


def _invert_nodes(problem, nodes, p):
    """T(z_t, p)^{-1} for all nodes z_t, (N, n, n)."""
    T = problem.eval_nodes(nodes, p)
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        # the batched inverse does not say which matrix failed: invert node
        # by node up to the first failure and leave the rest non-finite
        Tinv = np.full(T.shape, np.nan, dtype=complex)
        for t, Tt in enumerate(T):
            try:
                Tinv[t] = np.linalg.inv(Tt)
            except np.linalg.LinAlgError:
                break
    bad = ~np.all(np.isfinite(Tinv), axis=(1, 2))
    if np.any(bad):
        zt = nodes[np.argmax(bad)]
        raise SingularMatrixError(
            f"T is singular at quadrature node z={zt}, p={p}; an eigenvalue "
            f"may lie on the contour -- change the node count N or the contour"
        )
    return Tinv
