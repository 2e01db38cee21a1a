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

The shifted matrix is never formed.  With Theta = diag(theta),
Sigma = diag(sigma), B, C the rows b_i, c_j and R, L_dirs the rows r_j, l_i,

    Ls = L Sigma + B R^T = Theta L + L_dirs C^T

(Mayo & Antoulas, LAA 2007), so every product with Ls, [L Ls] or [L; Ls]
that realize needs is a product with L plus a rank-n correction.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RealizationError

# extra sketch columns beyond the requested order
_OVERSAMPLING = 8
# the sketches are drawn from this seed, the same for every call of one size,
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
    singular_values: tuple   # leading (sketched) spectra of [L Ls], [L; Ls]
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
def _sketches(shape, k_row, k_col):
    """Read-only Gaussian test matrices of the row sketch of [L Ls] and the
    column sketch of [L; Ls] for an L of this shape, (2 * shape[1], k_row)
    and (2 * shape[0], k_col), drawn in that order from _SKETCH_SEED."""
    rng = np.random.default_rng(_SKETCH_SEED)
    out = []
    for size, k in ((shape[1], k_row), (shape[0], k_col)):
        G = (rng.standard_normal((2 * size, k))
             + 1j * rng.standard_normal((2 * size, k)))
        G.flags.writeable = False
        out.append(G)
    return tuple(out)


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
    """Leading k left singular vectors, values and right singular vectors
    (as rows) of A, from a Gaussian sketch of its range (exact when
    k = A.shape[0])."""
    shape = (A.shape[1], k)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q, _ = np.linalg.qr(A @ G)
    U, s, Vh = np.linalg.svd(Q.conj().T @ A, full_matrices=False)
    return Q @ U, s, Vh


def _left_pairs(Q, block_h):
    """Left singular vectors and values of the sketched block Z = Q^H A,
    given Z^H: with Z^H = Q' R, Z = R^H Q'^H shares its left singular pairs
    with the small square factor R^H."""
    R = np.linalg.qr(block_h, mode="r")
    U, s, _ = np.linalg.svd(R.conj().T)
    return Q @ U, s


def realize(data, rank_tol=1e-10, order=None):
    """Recover eigenvalues and eigenvector matrices from tangential data.

    When the pole count is known in advance (e.g. fixed by the offline rank
    consistency check), pass it as `order` to truncate the pencil there even
    if noise in the data raises the numerical rank above it.  The singular
    subspaces then come from a sketch of width order + 8, and
    `singular_values`, m_row and m_col cover only the sketched values.
    Without an order the sketch spans the whole space, which is exact.

    Only L is formed: every product with Ls, [L Ls] or [L; Ls] follows from
    Ls = L Sigma + B R^T = Theta L + L_dirs C^T, so L meets only thin
    blocks of k or m columns, and each sketched block's singular pairs come
    from the QR factor of its k columns.  `diagnostics["rank_gap"]` is the
    smaller over both sides of s_m / s_{m+1} from the sketched values (inf
    when the sketch holds no value past m).
    """
    theta, sigma = data.theta, data.sigma
    B, C = data.left_vals, data.right_vals
    Ld, Rd = data.left_dirs, data.right_dirs
    L = _loewner(B, Rd, Ld, C, theta[:, None] - sigma[None, :])
    k_row, k_col = L.shape
    if order is not None:
        k_row = min(k_row, order + _OVERSAMPLING)
        k_col = min(k_col, order + _OVERSAMPLING)
    G_row, G_col = _sketches(L.shape, k_row, k_col)
    nr, nc = L.shape
    # [L Ls] G = L (G1 + Sigma G2) + B (R^T G2)
    G1, G2 = G_row[:nc], G_row[nc:]
    Qr, _ = np.linalg.qr(L @ (G1 + sigma[:, None] * G2) + B @ (Rd.T @ G2))
    Qh = Qr.conj().T
    QL = Qh @ L
    # Q^H [L Ls] = [Q^H L, (Q^H L) Sigma + (Q^H B) R^T]
    X, s_row = _left_pairs(
        Qr, np.hstack([QL, QL * sigma + (Qh @ B) @ Rd.T]).conj().T)
    # [L; Ls]^H G = L^H (G1 + conj(Theta) G2) + conj(C) (L_dirs^H G2), with
    # L^H Y taken as (Y^H L)^H so that L is never conjugated
    G1, G2 = G_col[:nr], G_col[nr:]
    Y = G1 + theta.conj()[:, None] * G2
    Qc, _ = np.linalg.qr((Y.conj().T @ L).conj().T
                         + C.conj() @ (Ld.conj().T @ G2))
    # ([L; Ls]^H Q)^H = [L Q; Theta (L Q) + L_dirs (C^T Q)]
    LQ = L @ Qc
    Ys, s_col = _left_pairs(Qc, np.vstack([LQ, theta[:, None] * LQ
                                           + Ld @ (C.T @ Qc)]))
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
    diagnostics["rank_gap"] = min(
        float(s[m - 1] / s[m]) if len(s) > m and s[m] > 0 else np.inf
        for s in (s_row, s_col))
    X = X[:, :m]
    Ys = Ys[:, :m]
    Xh = X.conj().T
    XL = Xh @ L
    XB = Xh @ B
    M = XL @ Ys
    A = (XL * sigma) @ Ys + XB @ (Rd.T @ Ys)
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
    V = C.T @ Ys @ S  # columns c_j
    MS = M @ S
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
