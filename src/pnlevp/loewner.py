"""The Loewner pencil of tangential samples: the rank check, the choice of
directions, and the realization of eigenvalues.

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

Every factorization of realize calls LAPACK directly (zgeqrf/zungqr,
zgesdd, zggev through scipy.linalg.lapack): on the small blocks of an online
answer, the checks, workspace queries and Python loops of the NumPy and
SciPy wrappers cost several times the routines themselves.

Offline, the same pencil at each parameter sample p_j gives two more
steps.  consistency_rank_check counts the rank of every L(p_j), which is
the eigenvalue count m and must be the same at every p_j, and keeps the
singular triplets it found.  select_directions then picks, by pivoted QR on
those triplets, the r' <= r directions per side that online keeps, and
accepts them only if their pencil gives the eigenvalues of the full one at
every p_j.  realize and the rank check count the rank by one rule (_rank):
the singular values above rank_tol times the largest.
"""

import functools
import itertools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import RankConsistencyError, RealizationError

# extra sketch columns beyond the requested order
_OVERSAMPLING = 8
# the sketch is drawn from this seed, the same for every call of one size,
# so answers do not depend on call order or thread
_SKETCH_SEED = 0
# eigenvalues whose real parts differ by at most this fraction of the largest
# modulus are ordered by imaginary part (a conjugate pair of a real problem
# then keeps its order whatever the rounding of its real parts)
_ORDER_RTOL = 1e-8
# initial sketch width of the rank check; doubled while the count fills it
_RANK_SKETCH = 16

_log = logging.getLogger(__name__)


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


def _rank(s, rank_tol):
    """Count of the descending singular values s above rank_tol times the
    largest (0 when the largest is 0)."""
    return int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > 0 else 0


def _gap(s, m):
    """s_m / s_{m+1} of the descending singular values s for a rank m (inf
    when m = 0, when s holds no value past m, or when s_{m+1} = 0)."""
    return s[m - 1] / s[m] if 0 < m < len(s) and s[m] > 0 else np.inf


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
    m = _rank(s, rank_tol)
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
    diagnostics["rank_gap"] = float(_gap(s, m))
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


def consistency_rank_check(config, b, c, rank_tol=1e-10):
    """Common rank m of the Loewner matrices L(p_j) of the tangential samples
    b, c (r, q, n) at the parameter samples, the smallest sigma_m /
    sigma_{m+1} over them, and per parameter the singular triplet
    (X, s, Vh) of L(p_j) cut to m.

    The rank equals the eigenvalue count m inside the domain; the parametric
    decomposition requires it to be the same for every sampled parameter.
    Each rank counts the singular values above rank_tol times the largest
    (_rank), but from a Gaussian sketch of the leading ones (see
    _sketched_rank): the sketch is certified by Weyl's bound to give the
    full-SVD count, and the full SVD runs only where it is not, once, with
    vectors, for the count, the gap and the basis (_svd_rank).  The gap is
    the certified bound, or the full-SVD value on a fallback.  One DEBUG
    record on the "pnlevp.loewner" logger holds the ranks, the smallest gap
    and the fallback count, and says so when every rank is r: the domain may
    then hold more than r eigenvalues.
    """
    D = config.left_points[:, None] - config.right_points[None, :]
    ranks, gaps, bases, fallbacks = [], [], [], 0
    for j in range(b.shape[1]):
        L = _loewner(b[:, j], config.right_dirs, config.left_dirs, c[:, j], D)
        found = _sketched_rank(L, rank_tol)
        if found is None:
            fallbacks += 1
            found = _svd_rank(L, rank_tol)
        rank, gap, basis = found
        ranks.append(rank)
        gaps.append(float(gap))
        bases.append(basis)
    filled = (f"; the rank fills all r = {len(b)} directions, so the "
              "domain may hold more than r eigenvalues: raise r"
              if set(ranks) == {len(b)} else "")
    _log.debug(
        "rank check: ranks %s, min sigma_m/sigma_m+1 %.3e, "
        "full-SVD fallbacks %d of %d%s", ranks, min(gaps), fallbacks,
        len(gaps), filled)
    if len(set(ranks)) != 1:
        raise RankConsistencyError(
            "eigenvalue count inside the domain varies across parameter "
            f"samples; per-parameter Loewner ranks: {ranks}",
            ranks=ranks,
        )
    return ranks[0], min(gaps), bases


def _svd_rank(L, rank_tol):
    """The rank m of L (_rank), sigma_m / sigma_{m+1} (_gap) and the
    singular triplet (X, s, Vh) of L cut to m, all from one full SVD."""
    U, s, Vh = np.linalg.svd(L)
    rank = _rank(s, rank_tol)
    return rank, _gap(s, rank), (U[:, :rank].copy(), s[:rank],
                                 Vh[:rank].copy())


def _sketched_rank(L, rank_tol):
    """The rank m of L (_rank) from a sketch of the leading singular values,
    a certified lower bound on sigma_m / sigma_{m+1} (inf when m = 0) and
    the sketch's leading singular triplet (X, s, Vh) truncated to m; None
    when the sketch cannot certify the count (see _svd_rank).

    X spans a Gaussian sketch of width k of L's range (the test matrix of
    _sketch, which realize sketches with too), s the singular values of
    X^H L, and e = ||L - X X^H L||_F (plus a rounding allowance) bounds the
    rest.  By Weyl's inequality each sigma_i of L lies in [s_i, s_i + e]
    for i < k, and below e beyond the sketch; so the threshold rank_tol *
    sigma_0 lies in [rank_tol s_0, rank_tol (s_0 + e)].  The count is
    certified when every s_i clears that interval by e (above its top, or
    below its bottom) and e lies below its bottom.  A count that fills the
    sketch doubles k; an uncertified count, or a sketch as wide as L, gives
    None.
    """
    k = _RANK_SKETCH
    while k < min(L.shape):
        X, s, Vh = _dominant_left(L, _sketch(L.shape[1], k))
        e = (np.linalg.norm(L - X @ (X.conj().T @ L))
             + k * np.finfo(float).eps * np.linalg.norm(L))
        lo, hi = rank_tol * s[0], rank_tol * (s[0] + e)
        above = s > hi
        m = int(np.count_nonzero(above))
        if m == k:
            k *= 2
            continue
        if np.all(above | (s + e <= lo)) and e <= lo:
            return (m, (s[m - 1] / (s[m] + e) if m else np.inf),
                    (X[:, :m].copy(), s[:m], Vh[:m].copy()))
        break
    return None


def select_directions(config, m, b, c, bases, rank_tol):
    """Ascending indices of the left and right directions online keeps:
    the first r' pivots of column-pivoted QRs of the stacked singular
    vectors [X_1 ... X_q]^T and [V_1 ... V_q]^H of the L(p_j), a CUR
    selection (Sorensen & Embree, SISC 2016), or all r.  r' starts at
    2m + 8 and doubles, below r / 2, until the kept pencil gives at every
    p_j the m eigenvalues of the full one: those of the pencil that realize
    solves (_pencil_eig), on the rank check's triplet L = X diag(s) V^H."""
    r, k = config.r, 2 * m + 8
    every = np.arange(r)
    if m == 0 or 2 * k >= r:
        return every, every
    theta, sigma = config.left_points, config.right_points
    Ld, Rd = config.left_dirs, config.right_dirs
    reference = [_pencil_eig(X, s, Vh, sigma, b[:, j], Rd)[0]
                 for j, (X, s, Vh) in enumerate(bases)]
    orders = (_pivot_order(np.vstack([X.T for X, _, _ in bases])),
              _pivot_order(np.vstack([Vh for _, _, Vh in bases])))
    rows, cols = [], []
    while 2 * k < r:
        rows += itertools.islice(orders[0], k - len(rows))
        cols += itertools.islice(orders[1], k - len(cols))
        I, J = np.sort(rows), np.sort(cols)
        if all(_subset_matches(TangentialData(
                theta[I], sigma[J], Ld[I], Rd[J], b[I, j], c[J, j]),
                m, want, rank_tol) for j, want in enumerate(reference)):
            return I, J
        k *= 2
    return every, every


def _pivot_order(A):
    """Column indices of A in the order of a column-pivoted QR (Businger &
    Golub, 1965), one at a time and without BLAS calls, whose threads make
    LAPACK's pivoted QR of such thin blocks erratic."""
    A = np.array(A, dtype=complex)
    taken = np.zeros(A.shape[1], dtype=bool)
    for _ in range(A.shape[1]):
        norms = np.where(taken, -1.0, np.einsum("ij,ij->j", A.conj(), A).real)
        j = int(np.argmax(norms))
        taken[j] = True
        yield j
        if norms[j] > 0:
            q = A[:, j] / np.sqrt(norms[j])
            A -= np.outer(q, np.einsum("i,ij->j", q.conj(), A))


def _subset_matches(data, m, want, rank_tol):
    """Whether realize(data) gives len(want) == m eigenvalues that match
    want both ways within rank_tol * max|want|."""
    try:
        got = realize(data, rank_tol, order=m).eigenvalues
    except RealizationError:
        return False
    if len(got) != len(want):
        return False
    d = np.abs(got[:, None] - want[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max()) <= (
        rank_tol * np.max(np.abs(want)))
