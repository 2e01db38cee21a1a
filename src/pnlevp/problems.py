"""Parametric nonlinear eigenvalue problems T(z, p) and benchmark instances.

A problem exposes ``eval(z, p)`` returning an n-by-n complex matrix,
``eval_nodes(z, p)`` returning the stack of T at many points (the contour
probe inverts that stack and the residuals multiply by it), plus left/right
linear solves against T(z, p).  ``eval_nodes`` takes p as one parameter for
every point (the probe) or as a 1-D array of one parameter per point (the
residuals of a sweep, many answers in one stack).  The built-in problems
assemble T for an array of points with array arithmetic; their ``eval`` is
the one-point case.
A problem may declare the conjugation symmetry of T for real p (the
``conjugation`` signs), which lets the probe invert half the quadrature
nodes.  The benchmark problems also carry independent eigenvalue oracles
used for validation.
"""

import numpy as np

from .contour import scale_domain
from .errors import BranchCutError, SingularMatrixError, UnsupportedProblemError

_CUT_TOL = 1e-14


class PNlevpProblem:
    """Base class: a matrix-valued function T(z, p) with linear solves.

    Subclasses set ``dim`` and implement ``eval``, ``eval_nodes`` or both.
    Everything that needs T at several points (the contour probe, the
    residuals) asks for it once, through ``eval_nodes``, whose default
    pairs ``eval(z_t, p_t)`` point by point; a problem that can assemble T
    for an array of points overrides it, accepting p as a scalar or as one
    parameter per point, and then ``eval`` defaults to its one-point case.
    Solves default to dense LU with partial pivoting of the evaluated
    matrix; problems are immutable after construction, so eval/solve are
    safe to call concurrently.

    ``conjugation`` is None, or the signs s_a = +-1 (n of them, or one for
    all columns) with T(conj(z), p) = conj(T(z, p)) diag(s) for every real
    p.  Then T^{-1}(conj(z), p) = diag(s) conj(T^{-1}(z, p)), and the
    contour probe inverts T at only one node of each conjugate pair.
    """

    dim = None
    name = "custom"
    conjugation = None

    def eval(self, z, p):
        """T(z, p), n-by-n."""
        if type(self).eval_nodes is PNlevpProblem.eval_nodes:
            raise NotImplementedError("implement eval or eval_nodes")
        return self.eval_nodes(np.array([z], dtype=complex), p)[0]

    def eval_nodes(self, z, p):
        """T(z_t, p_t) for every point z_t of the 1-D array z, (len(z), n, n);
        p is one parameter for all points or a 1-D array of len(z)."""
        p = np.broadcast_to(p, np.shape(z))
        return np.array([self.eval(zt, pt) for zt, pt in zip(z, p)],
                        dtype=complex)

    def solve_right(self, z, p, B):
        """Solve T(z, p) X = B."""
        T = self.eval(z, p)
        return _lu_solve(T, B, z, p)

    def solve_left(self, z, p, L):
        """Solve T(z, p)^T X = L."""
        T = self.eval(z, p)
        return _lu_solve(T.T, L, z, p)

    def true_eigenvalues(self, p, domain=None, margin=1.0):
        raise UnsupportedProblemError(
            f"problem {self.name!r} has no eigenvalue oracle"
        )


def _lu_solve(T, B, z, p):
    B = np.asarray(B, dtype=complex)
    squeeze = B.ndim == 1
    if squeeze:
        B = B[:, None]
    try:
        X = np.linalg.solve(T, B)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"T(z, p) singular to working precision at z={z}, p={p}"
        ) from exc
    if not np.all(np.isfinite(X)):
        raise SingularMatrixError(
            f"T(z, p) singular to working precision at z={z}, p={p}"
        )
    return X[:, 0] if squeeze else X


class LinearDemoProblem(PNlevpProblem):
    """Fixed 3x3 linear pencil with det T(z, p) = (p - z)(1 - p - z^2)."""

    dim = 3
    name = "linear-demo"
    conjugation = 1  # T is real for real z and p

    def eval_nodes(self, z, p):
        z = np.asarray(z, dtype=complex)
        p = np.broadcast_to(p, z.shape)
        A = np.zeros((len(z), 3, 3), dtype=complex)
        A[:, 0, 1] = A[:, 2, 1] = 1.0
        A[:, 1, 0] = 1.0 - p
        A[:, 2, 2] = p
        return z[:, None, None] * np.eye(3, dtype=complex) - A

    def true_eigenvalues(self, p, domain=None, margin=1.0):
        """All three roots of the characteristic polynomial, optionally
        restricted to a domain."""
        root = np.sqrt(complex(1.0 - p))
        lams = np.array([p, root, -root], dtype=complex)
        if domain is not None:
            lams = lams[scale_domain(domain, margin).contains(lams)]
        return np.sort_complex(lams)


class DelayProblem(PNlevpProblem):
    """Diagonal delay problem T(z, p) = (z + 0.01 e^{-pz}) I + E.

    E is real diagonal with entries logarithmically spaced in [1e-4, 1e10].
    """

    dim = 10
    name = "delay"
    damping = 0.01
    conjugation = 1  # T is real for real z and p

    def __init__(self):
        self.E = np.logspace(-4, 10, self.dim)

    def eval_nodes(self, z, p):
        z = np.asarray(z, dtype=complex)
        scalar = z + self.damping * np.exp(-p * z)
        T = np.zeros((len(z), self.dim, self.dim), dtype=complex)
        i = np.arange(self.dim)
        T[:, i, i] = scalar[:, None] + self.E
        return T

    def true_eigenvalues(self, p, domain=None, margin=1.0):
        """Newton-refined roots of z + 0.01 e^{-pz} + E_ii = 0, seeded from a
        grid over the (scaled) domain and filtered to it."""
        if domain is None:
            raise UnsupportedProblemError("delay oracle needs a target domain")
        seeds = _domain_grid(domain, margin)
        roots = []
        for e in self.E:
            f = lambda z: z + self.damping * np.exp(-p * z) + e
            df = lambda z: 1.0 - self.damping * p * np.exp(-p * z)
            roots.append(_newton_batch(f, df, seeds))
        roots = np.concatenate(roots)
        roots = roots[scale_domain(domain, margin).contains(roots)]
        return np.sort_complex(_merge_close(roots))


class DampedStringProblem(PNlevpProblem):
    """4x4 boundary-condition system for a string with interior damping.

    The multivalued square root zh(z, p), zh^2 = z^2 + 2pz, is realized as
    i*sqrt(-z)*sqrt(z + 2p) with principal square roots.  This puts the
    branch cut on (-inf, -2p] U [0, inf) and keeps zh continuous on the
    segment (-2p, 0) where the eigenvalues of interest live.  The other
    branch, -zh, would negate one column of T: det T changes sign, and its
    zeros, the eigenvalues, stay where they are.  For real p,
    zh(conj(z)) = -conj(zh(z)) off the cut, and only column 1 is odd in zh:
    T(conj(z), p) = conj(T(z, p)) diag(1, -1, 1, 1).
    """

    dim = 4
    name = "damped-string"
    conjugation = (1, -1, 1, 1)

    def branch(self, z, p):
        z = np.asarray(z, dtype=complex)
        return 1j * np.sqrt(-z) * np.sqrt(z + 2 * p)

    def _check_cut(self, z, p):
        """Raise BranchCutError for the first point of z on the cut of its
        own parameter."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        x = z.real
        cut = -2 * np.real(np.broadcast_to(p, z.shape))
        on_cut = (np.abs(z.imag) <= _CUT_TOL) & (
            (x >= -_CUT_TOL) | (x <= cut + _CUT_TOL))
        if np.any(on_cut):
            t = np.argmax(on_cut)
            raise BranchCutError(
                f"z={z[t]} lies on the branch cut of the damped string "
                f"problem (real axis outside ({cut[t]}, 0))"
            )

    def eval_nodes(self, z, p):
        self._check_cut(z, p)
        return self._build(z, p)

    def _build(self, z, p):
        """Assemble T for the array z; no branch-cut check."""
        z = np.asarray(z, dtype=complex)
        zh = self.branch(z, p)
        s4, c4 = np.sinh(z / 4), np.cosh(z / 4)
        sh, ch = np.sinh(zh / 4), np.cosh(zh / 4)
        sh3, ch3 = np.sinh(3 * zh / 4), np.cosh(3 * zh / 4)
        zero = np.zeros_like(z)
        T = np.array(
            [
                [-s4, sh, ch, zero],
                [-z * c4, zh * ch, zh * sh, zero],
                [zero, -sh3, -ch3, s4],
                [zero, -zh * ch3, -zh * sh3, -z * c4],
            ]
        )
        # move the trailing z-axis to the front: (len(z), 4, 4)
        return np.moveaxis(T, (0, 1), (-2, -1))

    def _det_batch(self, z, p):
        return np.linalg.det(self._build(z, p))

    def true_eigenvalues(self, p, domain=None, margin=1.0):
        """Newton-refined zeros of det T(., p), seeded from a grid over the
        (scaled) domain."""
        if domain is None:
            raise UnsupportedProblemError(
                "damped string oracle needs a target domain"
            )
        seeds = _domain_grid(domain, margin)
        h = 1e-7

        def f(z):
            return self._det_batch(z, p)

        def df(z):
            step = h * np.maximum(1.0, np.abs(z))
            return (f(z + step) - f(z - step)) / (2 * step)

        roots = _newton_batch(f, df, seeds)
        roots = roots[scale_domain(domain, margin).contains(roots)]
        return np.sort_complex(_merge_close(roots))


class SyntheticRationalProblem(PNlevpProblem):
    """Problem with prescribed simple eigenvalues, affine in the parameter.

    T(z, p) = Q diag(z - lam_1(p), ..., z - lam_m(p), 1, ..., 1) Z with fixed
    random nonsingular frames Q, Z, so det T vanishes only at the prescribed
    lam_j(p) and T^{-1} has exactly those simple poles.  The pole part of
    T^{-1} is available in closed form via ``exact_H``, making the problem
    its own oracle.
    """

    name = "synthetic"

    def __init__(self, eigen_maps, dim=6, seed=0):
        eigen_maps = [(complex(a), complex(b)) for a, b in eigen_maps]
        if len(eigen_maps) > dim:
            raise ValueError("more eigenvalue maps than dimensions")
        self.eigen_maps = eigen_maps
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.Q = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        self.Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
            (dim, dim)
        )
        self._Qinv = np.linalg.inv(self.Q)
        self._Zinv = np.linalg.inv(self.Z)

    @classmethod
    def inside_domain(cls, domain, m_inside, p_range, seed, dim=6):
        """Generate affine eigenvalue maps guaranteed to stay strictly inside
        ``domain`` for every p in ``p_range``."""
        rng = np.random.default_rng(seed)
        p0, p1 = p_range
        mid, half = (p0 + p1) / 2.0, (p1 - p0) / 2.0
        maps = []
        for _ in range(m_inside):
            u = _random_in_unit_disk(rng)
            v = _random_in_unit_disk(rng)
            # lam(p) = anchor + drift * (p - mid); |lam - center| <= 0.8 scale
            anchor = _from_unit(domain, 0.5 * u)
            drift = _from_unit(domain, 0.3 * v) - _from_unit(domain, 0.0)
            if abs(half) > 0:
                drift = drift / half
            a = anchor - drift * mid
            maps.append((a, drift))
        return cls(maps, dim=dim, seed=seed)

    def eigenvalues_at(self, p):
        """lam_j(p) for each map j: (m,) for a scalar p, (m,) + p.shape for
        an array."""
        return np.array([a + b * p for a, b in self.eigen_maps], dtype=complex)

    def eval_nodes(self, z, p):
        z = np.asarray(z, dtype=complex)
        d = np.ones((len(z), self.dim), dtype=complex)
        lams = self.eigenvalues_at(np.broadcast_to(p, z.shape))
        d[:, : len(lams)] = z[:, None] - lams.T
        return self.Q @ (d[:, :, None] * self.Z)

    def exact_H(self, z, p):
        """Pole part of T(z, p)^{-1}: sum_j u_j w_j^T / (z - lam_j(p))."""
        lams = self.eigenvalues_at(p)
        H = np.zeros((self.dim, self.dim), dtype=complex)
        for j, lam in enumerate(lams):
            H += np.outer(self._Zinv[:, j], self._Qinv[j, :]) / (z - lam)
        return H

    def true_eigenvalues(self, p, domain=None, margin=1.0):
        lams = self.eigenvalues_at(p)
        if domain is not None:
            lams = lams[scale_domain(domain, margin).contains(lams)]
        return np.sort_complex(lams)


def get_problem(name):
    """The built-in problem of this name, one of those that take no
    constructor arguments; UnsupportedProblemError for any other name."""
    for cls in (LinearDemoProblem, DelayProblem, DampedStringProblem):
        if cls.name == name:
            return cls()
    raise UnsupportedProblemError(f"unknown benchmark problem: {name!r}")


def _merge_close(roots, tol=1e-9):
    merged = []
    for z in roots:
        if not any(abs(z - w) < tol for w in merged):
            merged.append(z)
    return np.array(merged, dtype=complex)


def _newton_batch(f, df, seeds, tol=1e-13, max_steps=50):
    """Vectorized Newton iteration; returns the converged iterates."""
    z = np.asarray(seeds, dtype=complex).copy()
    active = np.ones(z.shape, dtype=bool)
    for _ in range(max_steps):
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fz = f(z[active])
            dfz = df(z[active])
            step = fz / dfz
        step = np.where(np.isfinite(step), step, 0.0)
        znew = z[active] - step
        done = np.abs(step) <= tol * np.maximum(1.0, np.abs(znew))
        z[active] = znew
        idx = np.flatnonzero(active)
        active[idx[done]] = False
    converged = ~active & np.isfinite(z)
    return z[converged]


def _domain_grid(domain, margin=1.0, n=60):
    """n-by-n complex grid over the bounding box of the scaled domain."""
    scaled = scale_domain(domain, margin)
    w = scaled.semi_real + 1j * scaled.semi_imag
    lo, hi = scaled.center - w, scaled.center + w
    xs = np.linspace(lo.real, hi.real, n)
    ys = np.linspace(lo.imag, hi.imag, n)
    X, Y = np.meshgrid(xs, ys)
    return (X + 1j * Y).ravel()


def _random_in_unit_disk(rng):
    while True:
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(w) <= 1.0:
            return w


def _from_unit(domain, w):
    """Map a point of the unit disk into the domain (affine, axis-scaled)."""
    return domain.center + domain.semi_real * w.real + 1j * domain.semi_imag * w.imag
