"""Loewner-matrix realization of eigenvalues from tangential samples.

Given left samples b_i = H^T(theta_i) l_i and right samples
c_j = H(sigma_j) r_j of the rational pole part H, the Loewner pencil

    L_ij  = (b_i^T r_j - l_i^T c_j) / (theta_i - sigma_j)
    Ls_ij = (theta_i b_i^T r_j - sigma_j l_i^T c_j) / (theta_i - sigma_j)

realizes H: after rank truncation to the dominant left singular vectors X
of [L Ls] and right singular vectors Ys of [L; Ls], the generalized
eigenvalue problem (X* Ls Ys) s = lambda (X* L Ys) s yields the eigenvalues
in the target domain, and the eigenvector matrices follow from the block
data.  When the order m is known, X and Ys come from a Gaussian sketch of
width m + 8 (a randomized range finder, Halko, Martinsson & Tropp, SIAM Rev.
2011) instead of full SVDs.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RealizationError

# extra sketch columns beyond the requested order
_OVERSAMPLING = 8
# the sketch is drawn afresh from this seed in every call, so answers do not
# depend on call order or thread
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
        if np.min(np.abs(theta[:, None] - sigma[None, :])) == 0.0:
            raise ValueError(
                "left and right sample points must be pairwise distinct"
            )


@dataclass(frozen=True)
class EigenRealization:
    eigenvalues: np.ndarray  # (m,) in eigenvalue_order
    V: np.ndarray            # (n, m) right eigenvectors
    W: np.ndarray            # (n, m) left eigenvectors
    singular_values: tuple   # leading (sketched) spectra of [L Ls], [L; Ls]
    rank: int
    diagnostics: dict = field(default_factory=dict)


def build_loewner(data):
    """Loewner and shifted Loewner matrices from tangential data."""
    P = data.left_vals @ data.right_dirs.T   # P_ij = b_i^T r_j
    Q = data.left_dirs @ data.right_vals.T   # Q_ij = l_i^T c_j
    D = data.theta[:, None] - data.sigma[None, :]
    L = (P - Q) / D
    Ls = (data.theta[:, None] * P - data.sigma[None, :] * Q) / D
    return L, Ls


def numerical_rank(M, rank_tol=1e-10):
    """Count of singular values above rank_tol relative to the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    if len(s) == 0 or s[0] == 0.0:
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


def _dominant_left(A, k, rng):
    """Leading k left singular vectors and values of A, from a Gaussian
    sketch of its range (exact when k = A.shape[0])."""
    shape = (A.shape[1], k)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q, _ = np.linalg.qr(A @ G)
    U, s, _ = np.linalg.svd(Q.conj().T @ A, full_matrices=False)
    return Q @ U, s


def realize(data, rank_tol=1e-10, order=None):
    """Recover eigenvalues and eigenvector matrices from tangential data.

    When the pole count is known in advance (e.g. fixed by the offline rank
    consistency check), pass it as `order` to truncate the pencil there even
    if noise in the data raises the numerical rank above it.  The singular
    subspaces then come from a sketch of width order + 8, and
    `singular_values`, m_row and m_col cover only the sketched values.
    Without an order the sketch spans the whole space, which is exact.
    """
    L, Ls = build_loewner(data)
    k_row, k_col = L.shape
    if order is not None:
        k_row = min(k_row, order + _OVERSAMPLING)
        k_col = min(k_col, order + _OVERSAMPLING)
    rng = np.random.default_rng(_SKETCH_SEED)
    X, s_row = _dominant_left(np.hstack([L, Ls]), k_row, rng)
    Ys, s_col = _dominant_left(np.vstack([L, Ls]).conj().T, k_col, rng)
    m_row = int(np.count_nonzero(s_row > rank_tol * s_row[0])) if s_row[0] > 0 else 0
    m_col = int(np.count_nonzero(s_col > rank_tol * s_col[0])) if s_col[0] > 0 else 0
    m = max(m_row, m_col)
    diagnostics = {"rank_mismatch": abs(m_row - m_col), "m_row": m_row, "m_col": m_col}
    if order is not None:
        m = min(m, order)
        diagnostics["order"] = order
    if m == 0:
        n = data.left_vals.shape[1]
        return EigenRealization(
            eigenvalues=np.array([], dtype=complex),
            V=np.zeros((n, 0), dtype=complex),
            W=np.zeros((n, 0), dtype=complex),
            singular_values=(s_row, s_col),
            rank=0,
            diagnostics=diagnostics,
        )
    X = X[:, :m]
    Ys = Ys[:, :m]
    Xh = X.conj().T
    A = Xh @ Ls @ Ys
    M = Xh @ L @ Ys
    if numerical_rank(M, 1e-14) < m:
        raise RealizationError(
            "projected Loewner matrix is numerically singular; use more or "
            "different sample points"
        )
    lam, S = scipy.linalg.eig(A, M)
    finite = np.isfinite(lam)
    diagnostics["discarded_infinite"] = int(np.count_nonzero(~finite))
    lam, S = lam[finite], S[:, finite]
    order = eigenvalue_order(lam)
    lam, S = lam[order], S[:, order]
    C = data.right_vals.T  # (n, r), columns c_j
    B = data.left_vals     # (r, n), rows b_i^T
    V = C @ Ys @ S
    MS = M @ S
    XB = Xh @ B
    if MS.shape[0] == MS.shape[1]:
        try:
            Wstar = -np.linalg.solve(MS, XB)
        except np.linalg.LinAlgError as exc:
            raise RealizationError(
                "eigenvector recovery failed; use more or different sample points"
            ) from exc
    else:
        Wstar, *_ = np.linalg.lstsq(MS, -XB, rcond=None)
    W = Wstar.conj().T
    return EigenRealization(
        eigenvalues=lam,
        V=V,
        W=W,
        singular_values=(s_row, s_col),
        rank=m,
        diagnostics=diagnostics,
    )


def filter_in_domain(realization, domain):
    """Flag each eigenvalue with strict-interior containment; nothing is
    deleted (computed eigenvalues may legitimately sit outside the domain)."""
    return np.array(
        [domain.contains(z) for z in realization.eigenvalues], dtype=bool
    )
