"""Target domains, boundary quadrature, and probed resolvent sampling.

The quadrature rule discretizes the Cauchy-integral evaluation of the pole
part H of T^{-1} at points outside the closed domain:

    H(s) ~= sum_t w_t / (s - z_t) * T(z_t)^{-1},

so samples of H come from linear solves against T at the boundary nodes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularMatrixError

_BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and np.isfinite(self.radius)):
            raise ValueError(f"disk center {self.center} and radius "
                             f"{self.radius} must be finite")
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")

    def contains(self, z):
        """Strict interior test; boundary points (within 1e-14) are outside."""
        return abs(z - self.center) < self.radius - _BOUNDARY_TOL

    def gamma(self, t):
        return self.center + self.radius * np.exp(1j * np.asarray(t))

    def dgamma(self, t):
        return 1j * self.radius * np.exp(1j * np.asarray(t))

    def boundary_distance(self, z):
        return abs(abs(z - self.center) - self.radius)


@dataclass(frozen=True)
class Ellipse:
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
        w = z - self.center
        rho = np.hypot(w.real / self.semi_real, w.imag / self.semi_imag)
        return (1.0 - rho) * min(self.semi_real, self.semi_imag) > _BOUNDARY_TOL

    def gamma(self, t):
        t = np.asarray(t)
        return self.center + self.semi_real * np.cos(t) + 1j * self.semi_imag * np.sin(t)

    def dgamma(self, t):
        t = np.asarray(t)
        return -self.semi_real * np.sin(t) + 1j * self.semi_imag * np.cos(t)

    def boundary_distance(self, z):
        # conservative estimate via the normalized radial coordinate
        w = z - self.center
        rho = np.hypot(w.real / self.semi_real, w.imag / self.semi_imag)
        return abs(1.0 - rho) * min(self.semi_real, self.semi_imag)


def scale_domain(domain, factor):
    """Domain with all radii/semi-axes scaled about the same center."""
    if factor == 1.0:
        return domain
    if isinstance(domain, Disk):
        return Disk(domain.center, domain.radius * factor)
    if isinstance(domain, Ellipse):
        return Ellipse(domain.center, domain.semi_real * factor, domain.semi_imag * factor)
    raise TypeError(f"unsupported domain type: {type(domain)!r}")


def bounding_box(domain):
    """(lower-left, upper-right) corners of the domain's bounding box."""
    if isinstance(domain, Disk):
        r = domain.radius
        return domain.center - r - 1j * r, domain.center + r + 1j * r
    if isinstance(domain, Ellipse):
        w = domain.semi_real + 1j * domain.semi_imag
        return domain.center - w, domain.center + w
    raise TypeError(f"unsupported domain type: {type(domain)!r}")


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
        if self.left_dirs.shape[0] != r or self.right_dirs.shape[0] != r:
            raise ValueError("need r left and r right probing directions")
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

    @property
    def left_indices(self):
        return np.arange(0, len(self.sample_points), 2)

    @property
    def right_indices(self):
        return np.arange(1, len(self.sample_points), 2)


def default_sampling(domain, r, q, p_range, seed, dim, inflation=4.0 / 3.0,
                     sampling_domain=None):
    """Standard sampling setup: 2r points uniformly spaced on an inflated copy
    of the domain boundary, interlaced into theta/sigma; q uniformly spaced
    parameter points; complex standard-normal probing directions."""
    if r < 1 or q < 1:
        raise ValueError("need r >= 1 and q >= 1")
    if inflation <= 1.0:
        raise ValueError("inflation factor must exceed 1")
    boundary = sampling_domain if sampling_domain is not None else scale_domain(domain, inflation)
    t = 2 * np.pi * np.arange(2 * r) / (2 * r)
    s = boundary.gamma(t)
    for si in s:
        if domain.contains(si) or domain.boundary_distance(si) <= 1e-10:
            raise ValueError(f"sample point {si} is not strictly outside the domain")
    p0, p1 = p_range
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


@dataclass(frozen=True)
class ProbedSampleSet:
    """Tangential samples of H over directions x sample points x parameters.

    left[k, i, j]  = l_k^T H(s_i, p_j)   (an n-vector),
    right[k, i, j] = H(s_i, p_j) r_k     (an n-vector).
    """

    left: np.ndarray   # (r, 2r, q, n)
    right: np.ndarray  # (r, 2r, q, n)
    config: SamplingConfig
    provenance: dict = field(default_factory=dict)


def probe_samples(problem, rule, config, domain=None):
    """Approximate the tangential samples of H by boundary quadrature.

    For each quadrature node and parameter this performs one left and one
    right multi-RHS solve (2Nq solves with r right-hand sides each) and
    accumulates w_t/(s_i - z_t) contributions in ascending node order.
    """
    s = config.sample_points
    p = config.parameter_points
    n = problem.dim
    r, q, N = config.r, config.q, len(rule)
    if domain is not None:
        for si in s:
            if domain.contains(si) or domain.boundary_distance(si) <= 1e-10:
                raise ValueError(
                    f"sample point {si} is not strictly outside the domain"
                )
    C = rule.weights[None, :] / (s[:, None] - rule.nodes[None, :])  # (2r, N)
    Ldirs = np.ascontiguousarray(config.left_dirs.T)   # (n, r)
    Rdirs = np.ascontiguousarray(config.right_dirs.T)  # (n, r)
    left = np.empty((r, 2 * r, q, n), dtype=complex)
    right = np.empty((r, 2 * r, q, n), dtype=complex)
    for j in range(q):
        QL = np.empty((N, n, r), dtype=complex)
        QR = np.empty((N, n, r), dtype=complex)
        for t in range(N):
            zt = rule.nodes[t]
            try:
                QR[t] = problem.solve_right(zt, p[j], Rdirs)
                QL[t] = problem.solve_left(zt, p[j], Ldirs)
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"T is singular at quadrature node z={zt}, p={p[j]}; "
                    f"an eigenvalue may lie on the contour -- change the node "
                    f"count N or the contour"
                ) from exc
        # sum over t in ascending order: (2r, N) @ (N, n*r) -> (2r, n, r)
        accL = np.tensordot(C, QL, axes=(1, 0))
        accR = np.tensordot(C, QR, axes=(1, 0))
        left[:, :, j, :] = np.moveaxis(accL, (0, 1, 2), (1, 2, 0))
        right[:, :, j, :] = np.moveaxis(accR, (0, 1, 2), (1, 2, 0))
    if not (np.all(np.isfinite(left)) and np.all(np.isfinite(right))):
        raise ValueError("probed samples contain non-finite entries")
    return ProbedSampleSet(
        left=left,
        right=right,
        config=config,
        provenance={"N": N, "domain": domain, "seed": config.seed},
    )
