"""Loewner-matrix realization of eigenvalues from tangential samples.

Given left samples b_i = H^T(theta_i) l_i and right samples
c_j = H(sigma_j) r_j of the rational pole part H, the Loewner pencil

    L_ij  = (b_i^T r_j - l_i^T c_j) / (theta_i - sigma_j)
    Ls_ij = (theta_i b_i^T r_j - sigma_j l_i^T c_j) / (theta_i - sigma_j)

realizes H.  The pole part is strictly proper, so L = -O R and
Ls = -O J R share their row and column spaces (Mayo & Antoulas, LAA 2007):
the dominant singular triplet L ~ X diag(s) V^H of rank m alone carries the
pencil, and the generalized eigenvalue problem (X^H Ls V, X^H L V) yields
the eigenvalues in the target domain; the eigenvector matrices follow from
the block data.  The triplet comes from a Gaussian sketch of L's range
(a randomized range finder, Halko, Martinsson & Tropp, SIAM Rev. 2011), of
width m + 8 when the order m is known and as wide as L otherwise, which is
exact.

The shifted matrix is never formed.  With Sigma = diag(sigma), B the rows
b_i and R the rows r_j, Ls = L Sigma + B R^T, so the projected pencil is

    (diag(s) V^H Sigma V + X^H B R^T V, diag(s)).

Every factorization of realize and numerical_rank calls LAPACK directly
(zgeqrf/zungqr, zgesdd, zggev through scipy.linalg.lapack): on the small
blocks of an online answer, the checks, workspace queries and Python loops
of the NumPy and SciPy wrappers cost several times the routines themselves.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import RealizationError

# extra sketch columns beyond the requested order
_OVERSAMPLING = 8
# the sketch is drawn from this seed, the same for every call of one size,
# so answers do not depend on call order or thread
_SKETCH_SEED = 0
# eigenvalues whose real parts differ by at most this fraction of the largest
# modulus are ordered by imaginary part (a conjugate pair of a real problem
# then keeps its order whatever the rounding of its real parts)
_ORDER_RTOL = 1e-8


@dataclass(frozen=True)
class TangentialData:
    """Left/right sample points, probing directions, and tangential values."""

    theta: np.ndarray       # (r,)
    sigma: np.ndarray       # (r,)
    left_dirs: np.ndarray   # (r, n)
    right_dirs: np.ndarray  # (r, n)
    left_vals: np.ndarray   # (r, n), rows b_i = H^T(theta_i) l_i
    right_vals: np.ndarray  # (r, n), rows c_j = H(sigma_j) r_j

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=complex)
        sigma = np.asarray(self.sigma, dtype=complex)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "sigma", sigma)
        # exact equality, as |theta_i - sigma_j| == 0 is for finite points
        # (0.0 and -0.0 compare and hash equal)
        if not set(theta.tolist()).isdisjoint(sigma.tolist()):
            raise ValueError(
                "left and right sample points must be pairwise distinct"
            )


@dataclass(frozen=True)
class EigenRealization:
    eigenvalues: np.ndarray  # (m,) in eigenvalue_order
    V: np.ndarray            # (n, m) right eigenvectors
    W: np.ndarray            # (n, m) left eigenvectors
    singular_values: np.ndarray  # leading (sketched) singular values of L
    rank: int
    diagnostics: dict = field(default_factory=dict)


def _loewner(left_vals, right_dirs, left_dirs, right_vals, D):
    """The Loewner matrix L_ij = (b_i^T r_j - l_i^T c_j) / D_ij of rows b_i,
    r_j, l_i, c_j, for D_ij = theta_i - sigma_j."""
    return (left_vals @ right_dirs.T - left_dirs @ right_vals.T) / D


def build_loewner(data):
    """Loewner and shifted Loewner matrices from tangential data."""
    D = data.theta[:, None] - data.sigma[None, :]
    L = _loewner(data.left_vals, data.right_dirs, data.left_dirs,
                 data.right_vals, D)
    P = data.left_vals @ data.right_dirs.T   # P_ij = b_i^T r_j
    Q = data.left_dirs @ data.right_vals.T   # Q_ij = l_i^T c_j
    Ls = (data.theta[:, None] * P - data.sigma[None, :] * Q) / D
    return L, Ls


@functools.lru_cache(maxsize=16)
def _sketch(n, k):
    """Read-only Gaussian test matrix (n, k) of the sketch of an L with n
    columns, drawn from _SKETCH_SEED."""
    rng = np.random.default_rng(_SKETCH_SEED)
    G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    G.flags.writeable = False
    return G


def _checked(info, routine):
    if info != 0:
        raise RealizationError(
            f"LAPACK {routine} failed (info {info}); use more or different "
            "sample points")


def _qr(A):
    """Thin Q factor of A (m >= n), by zgeqrf and zungqr."""
    qr, tau, _, info = lapack.zgeqrf(A)
    _checked(info, "zgeqrf")
    Q, _, info = lapack.zungqr(qr, tau, overwrite_a=True)
    _checked(info, "zungqr")
    return Q


def _eig(A, B):
    """Eigenvalues alpha / beta of the pencil A - lambda B (non-finite where
    beta = 0 or the quotient overflows) and its right eigenvectors scaled
    to unit 2-norm by BLAS dznrm2 (as scipy.linalg.eig scales them), by one
    zggev."""
    alpha, beta, _, S, _, info = lapack.zggev(A, B, compute_vl=False)
    _checked(info, "zggev")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam = alpha / beta
    return lam, S / [blas.dznrm2(v) for v in S.T]


def numerical_rank(M, rank_tol=1e-10):
    """Count of singular values above rank_tol relative to the largest."""
    if np.size(M) == 0:
        return 0
    _, s, _, info = lapack.zgesdd(M, compute_uv=False)
    _checked(info, "zgesdd")
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def eigenvalue_order(values):
    """Indices that sort values by real part, where real parts within
    _ORDER_RTOL of the largest modulus count as equal and are ordered by
    imaginary part."""
    values = np.asarray(values, dtype=complex)
    idx = np.argsort(values.real, kind="stable")
    if len(values) < 2:
        return idx
    tol = _ORDER_RTOL * np.max(np.abs(values))
    re = values.real[idx]
    group = np.zeros(len(values), dtype=int)
    start, g = re[0], 0
    for k in range(1, len(re)):
        if re[k] - start > tol:
            start, g = re[k], g + 1
        group[k] = g
    return idx[np.lexsort((values.imag[idx], group))]


def _dominant_left(A, G):
    """Leading k left singular vectors, values and right singular vectors
    (as rows) of A, from the sketch A G of its range by a test matrix G of
    k <= min(A.shape) columns (exact for a Gaussian G as wide as A's rank):
    the thin SVD (zgesdd) of Q^H A for the Q factor of A G."""
    Q = _qr(A @ G)
    U, s, Vh, info = lapack.zgesdd(Q.conj().T @ A, full_matrices=False)
    _checked(info, "zgesdd")
    return Q @ U, s, Vh


def _pencil_eig(X, s, Vh, sigma, B, Rd):
    """Eigenvalues and right eigenvectors (see _eig) of the pencil of
    L = X diag(s) Vh projected onto X and V = Vh^H, with Ls = L Sigma + B R^T:
    (X^H Ls V, X^H L V) = (diag(s) Vh Sigma V + X^H B R^T V, diag(s))."""
    V = Vh.conj().T
    A = s[:, None] * ((Vh * sigma) @ V) + (X.conj().T @ B) @ (Rd.T @ V)
    return _eig(A, np.diag(s).astype(complex))


def realize(data, rank_tol=1e-10, order=None):
    """Recover eigenvalues and eigenvector matrices from tangential data.

    When the pole count is known in advance (e.g. fixed by the offline rank
    consistency check), pass it as `order` to truncate the pencil there even
    if noise in the data raises the numerical rank above it.  The singular
    triplet of L then comes from a sketch of width order + 8, and
    `singular_values` holds only the sketched values.  Without an order the
    sketch is as wide as L, which is exact.

    Only L is formed, and it is sketched once: the rank m counts the
    singular values above rank_tol times the largest, and the pencil is
    projected onto the leading m singular vectors (see _pencil_eig).
    `diagnostics["rank_gap"]` is s_m / s_{m+1} of L from the sketched values
    (inf when the sketch holds no value past m).  Non-finite tangential
    values, a numerically singular s_m and a failed LAPACK routine raise
    RealizationError.
    """
    sigma, B, C = data.sigma, data.left_vals, data.right_vals
    if not (np.isfinite(B).all() and np.isfinite(C).all()):
        raise RealizationError("tangential data hold a non-finite value")
    Rd = data.right_dirs
    L = _loewner(B, Rd, data.left_dirs, C, data.theta[:, None] - sigma[None, :])
    k = min(L.shape)
    if order is not None:
        k = min(k, order + _OVERSAMPLING)
    X, s, Vh = _dominant_left(L, _sketch(L.shape[1], k))
    m = int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0
    diagnostics = {}
    if order is not None:
        m = min(m, order)
        diagnostics["order"] = order
    if m == 0:
        n = B.shape[1]
        return EigenRealization(
            eigenvalues=np.array([], dtype=complex),
            V=np.zeros((n, 0), dtype=complex),
            W=np.zeros((n, 0), dtype=complex),
            singular_values=s,
            rank=0,
            diagnostics=diagnostics,
        )
    diagnostics["rank_gap"] = (float(s[m - 1] / s[m])
                               if len(s) > m and s[m] > 0 else np.inf)
    if not s[m - 1] > 1e-14 * s[0]:
        raise RealizationError(
            "projected Loewner matrix is numerically singular; use more or "
            "different sample points"
        )
    X, sm, Vh = X[:, :m], s[:m], Vh[:m]
    lam, S = _pencil_eig(X, sm, Vh, sigma, B, Rd)
    try:
        # rows w_j^* from (X^H L V) S W^* = -X^H B, with X^H L V = diag(s)
        Wstar = -np.linalg.solve(sm[:, None] * S, X.conj().T @ B)
    except np.linalg.LinAlgError as exc:
        raise RealizationError(
            "eigenvector recovery failed; use more or different sample points"
        ) from exc
    keep = np.flatnonzero(np.isfinite(lam))
    diagnostics["discarded_infinite"] = m - len(keep)
    keep = keep[eigenvalue_order(lam[keep])]
    return EigenRealization(
        eigenvalues=lam[keep],
        V=(C.T @ Vh.conj().T) @ S[:, keep],  # columns c_j
        W=Wstar[keep].conj().T,
        singular_values=s,
        rank=m,
        diagnostics=diagnostics,
    )


def filter_in_domain(realization, domain):
    """Flag each eigenvalue with strict-interior containment; nothing is
    deleted (computed eigenvalues may legitimately sit outside the domain)."""
    return np.asarray(domain.contains(realization.eigenvalues), dtype=bool)
