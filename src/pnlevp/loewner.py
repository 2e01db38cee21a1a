"""The Loewner pencil of tangential samples: the rank check, the choice of
directions, and the realization of eigenvalues.

Given left samples b_i = H^T(theta_i) l_i and right samples
c_j = H(sigma_j) r_j of the rational pole part H, the Loewner pencil

    L_ij  = (b_i^T r_j - l_i^T c_j) / (theta_i - sigma_j)
    Ls_ij = (theta_i b_i^T r_j - sigma_j l_i^T c_j) / (theta_i - sigma_j)

realizes H.  The pole part is strictly proper, so L = -O R and
Ls = -O J R share their row and column spaces (Mayo & Antoulas, LAA 2007):
the dominant singular triplet L ~ X diag(s) V^H of rank m alone carries the
pencil, and the projected pencil (X^H Ls V, X^H L V) yields the eigenvalues
in the target domain; the eigenvector matrices follow from the block data.
One routine (_sketched_rank) counts the rank of every L and gives its
triplet, online and offline: a Gaussian sketch of L's range
(a randomized range finder, Halko, Martinsson & Tropp, SIAM Rev. 2011)
where Weyl's bound certifies its count, and otherwise one exact SVD of L,
always for an L narrower than twice the first sketch (32).

realize, consistency_rank_check, select_directions and build_loewner read
the sample points theta_i, sigma_j and the probing directions l_i, r_j from
one SamplingConfig, which holds them interlaced, checks that no theta_i
equals a sigma_j and holds the Cauchy matrix 1 / (theta_i - sigma_j) that
every L divides by (SamplingConfig.cauchy); a subset of the directions is
SamplingConfig.subset.

The shifted matrix is never formed.  With Sigma = diag(sigma), B the rows
b_i and R the rows r_j, Ls = L Sigma + B R^T, so the projected pencil is

    (diag(s) V^H Sigma V + X^H B R^T V, diag(s)).

Its B = diag(s) is nonsingular, since every kept s_i is above RANK_TOL
times the largest, so the eigenvalues are those of the one standard matrix
V^H Sigma V + diag(s)^-1 X^H B R^T V, and no QZ is needed.  Every
factorization goes through numpy.linalg (svd, eig, solve for the left
eigenvectors and, for a sketch, qr), so a process loads one LAPACK; a
LinAlgError raises RealizationError naming the factorization.

Offline, the same pencil at each parameter sample p_j gives two more
steps.  consistency_rank_check counts the rank of every L(p_j), which is
the eigenvalue count m and must be the same at every p_j, and keeps the
singular triplets it found.  select_directions then picks, by pivoted QR on
those triplets, the r' <= r directions per side that online keeps, and
accepts them only if their pencil gives the eigenvalues of the full one at
every p_j.  realize and the rank check count the rank by the one routine
at one threshold: the singular values above RANK_TOL times the largest.
"""

import functools
import itertools
import logging

import numpy as np

from .errors import RankConsistencyError, RealizationError

# the sketch is drawn from this seed, the same for every call of one size,
# so answers do not depend on call order or thread
_SKETCH_SEED = 0
# eigenvalues whose real parts differ by at most this fraction of the largest
# modulus are ordered by imaginary part (a conjugate pair of a real problem
# then keeps its order whatever the rounding of its real parts)
_ORDER_RTOL = 1e-8
# initial sketch width of the rank count; doubled while the count fills it
# and the sketch is at most half as wide as L
_RANK_SKETCH = 16

_log = logging.getLogger(__name__)

# relative threshold of every rank count (_rank), offline and online
RANK_TOL = 1e-10


def _loewner(left_vals, right_dirs, left_dirs, right_vals, cauchy):
    """The Loewner matrix L_ij = (b_i^T r_j - l_i^T c_j) / (theta_i - sigma_j)
    of rows b_i, r_j, l_i, c_j, as the one product [b, l] [r, -c]^T times
    `cauchy`, the Cauchy matrix 1 / (theta_i - sigma_j) (SamplingConfig.
    cauchy), taken in place.  L is complex, also for real data."""
    L = (np.concatenate([left_vals, left_dirs], axis=1, dtype=complex)
         @ np.concatenate([right_dirs, -right_vals], axis=1).T)
    L *= cauchy
    return L


def build_loewner(config, B, C):
    """Loewner and shifted Loewner matrices of the rows b_i of B and c_j of
    C, (r, n) each, at the points and directions of config."""
    theta, sigma = config.left_points, config.right_points
    L = _loewner(B, config.right_dirs, config.left_dirs, C, config.cauchy)
    P = B @ config.right_dirs.T   # P_ij = b_i^T r_j
    Q = config.left_dirs @ C.T    # Q_ij = l_i^T c_j
    Ls = (theta[:, None] * P - sigma[None, :] * Q) * config.cauchy
    return L, Ls


@functools.lru_cache(maxsize=16)
def _sketch(n, k):
    """Read-only Gaussian test matrix (n, k) of the sketch of an L with n
    columns, drawn from _SKETCH_SEED."""
    rng = np.random.default_rng(_SKETCH_SEED)
    G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    G.flags.writeable = False
    return G


def _linalg(name, *args, **kwargs):
    """numpy.linalg.<name>(*args, **kwargs), looked up at the call; its
    LinAlgError raises RealizationError naming the factorization."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise RealizationError(
            f"numpy.linalg.{name} failed ({exc}); use more or different "
            "sample points") from exc


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


def _svd(A):
    """Thin SVD U, s, Vh of A (numpy.linalg.svd, LAPACK's divide and
    conquer)."""
    return _linalg("svd", A, full_matrices=False)


def _dominant_left(A, G):
    """Leading k left singular vectors, values and right singular vectors
    (as rows) of A, from the sketch A G of its range by a test matrix G of
    k < min(A.shape) columns: the thin SVD of Q^H A for the Q factor of
    A G; and ||A - Q Q^H A||_F, the part of A that the sketch misses."""
    Q = _linalg("qr", A @ G)[0]
    QhA = Q.conj().T @ A
    U, s, Vh = _svd(QhA)
    rest = Q @ QhA
    rest -= A
    return Q @ U, s, Vh, np.linalg.norm(rest)


def _pencil_eig(X, s, Vh, sigma, B, Rd):
    """Eigenvalues and right eigenvectors, of unit 2-norm, of the pencil of
    L = X diag(s) Vh projected onto X and V = Vh^H, with Ls = L Sigma + B R^T:
    (X^H Ls V, X^H L V) = (diag(s) Vh Sigma V + X^H B R^T V, diag(s)).  The
    s are positive, so this is one standard eig (numpy.linalg.eig) of
    diag(s)^-1 X^H Ls V = Vh Sigma V + diag(s)^-1 X^H B R^T V."""
    V = Vh.conj().T
    A = (X.conj().T @ B) @ (Rd.T @ V)
    A /= s[:, None]
    A += (Vh * sigma) @ V
    return _linalg("eig", A)


def _rank(s):
    """Count of the descending singular values s above RANK_TOL times the
    largest (0 when the largest is 0)."""
    return int(np.count_nonzero(s > RANK_TOL * s[0])) if s[0] > 0 else 0


def _gap(s, m):
    """s_m / s_{m+1} of the descending singular values s for a rank m (inf
    when m = 0, when s holds no value past m, or when s_{m+1} = 0)."""
    return s[m - 1] / s[m] if 0 < m < len(s) and s[m] > 0 else np.inf


def realize(config, B, C, order):
    """Eigenvalues, their right and left eigenvectors as the columns of V
    and W, and diagnostics of the pencil of the tangential samples: the rows
    b_i = H^T(theta_i) l_i of B and c_j = H(sigma_j) r_j of C, (r, n) each,
    at the points and directions of config.

    Only L is formed, and its rank and leading singular triplet come from
    the rank check's routine (_sketched_rank).  The pencil is truncated at
    m = min(rank, order), even if noise in the data raises the numerical
    rank above order; order = r truncates only by rank.  It is projected
    onto the leading m singular vectors (see _pencil_eig).  Of the m
    eigenvalues the finite ones are kept, in eigenvalue_order.

    diagnostics holds "singular_values", those the routine computed (all
    of L's, or a sketch's); "rank", m; and for m > 0 "rank_gap", the
    routine's gap when m is the rank and s_m / s_{m+1} otherwise, and
    "discarded_infinite", the count of eigenvalues dropped because they
    overflowed (diag(s) is nonsingular, so no eigenvalue is infinite
    otherwise).  Non-finite tangential values and a failed factorization
    raise RealizationError.
    """
    if not (np.isfinite(B).all() and np.isfinite(C).all()):
        raise RealizationError("tangential data hold a non-finite value")
    sigma, Rd = config.right_points, config.right_dirs
    L = _loewner(B, Rd, config.left_dirs, C, config.cauchy)
    rank, gap, (X, s, Vh), _ = _sketched_rank(L)
    m = min(rank, order)
    diagnostics = {"singular_values": s, "rank": m}
    if m == 0:
        V, W = np.zeros((2, B.shape[1], 0), dtype=complex)
        return np.array([], dtype=complex), V, W, diagnostics
    diagnostics["rank_gap"] = float(gap if m == rank else _gap(s, m))
    X, sm, Vh = X[:, :m], s[:m], Vh[:m]
    lam, S = _pencil_eig(X, sm, Vh, sigma, B, Rd)
    # rows w_j^* from (X^H L V) S W^* = -X^H B, with X^H L V = diag(s)
    Wstar = -_linalg("solve", sm[:, None] * S, X.conj().T @ B)
    keep = np.flatnonzero(np.isfinite(lam))
    diagnostics["discarded_infinite"] = m - len(keep)
    keep = keep[eigenvalue_order(lam[keep])]
    return (lam[keep],
            (C.T @ Vh.conj().T) @ S[:, keep],  # columns c_j
            Wstar[keep].conj().T, diagnostics)


def consistency_rank_check(config, b, c):
    """Common rank m of the Loewner matrices L(p_j) of the tangential samples
    b, c (r, q, n) at the parameter samples, the smallest sigma_m /
    sigma_{m+1} over them, and per parameter the singular triplet
    (X, s, Vh) of L(p_j) cut to m.

    The rank equals the eigenvalue count m inside the domain; the parametric
    decomposition requires it to be the same for every sampled parameter.
    Each rank and gap comes from _sketched_rank, the routine realize counts
    with: a certified sketch, or an exact SVD.  One DEBUG record on the
    "pnlevp.loewner" logger holds the ranks, the smallest gap and the count
    of exact SVDs, and says so when every rank is r: the domain may then
    hold more than r eigenvalues, or quadrature noise fills the rank.
    """
    ranks, gaps, bases, exact = [], [], [], 0
    for j in range(b.shape[1]):
        m, gap, (X, s, Vh), svd = _sketched_rank(_loewner(
            b[:, j], config.right_dirs, config.left_dirs, c[:, j],
            config.cauchy))
        ranks.append(m)
        gaps.append(gap)
        bases.append((X[:, :m].copy(), s[:m], Vh[:m].copy()))
        exact += svd
    filled = (f"; the rank fills all r = {len(b)} directions, so the "
              "domain may hold more than r eigenvalues: raise r, or N if "
              "the quadrature is too coarse"
              if set(ranks) == {len(b)} else "")
    _log.debug(
        "rank check: ranks %s, min sigma_m/sigma_m+1 %.3e, "
        "exact SVDs %d of %d%s", ranks, min(gaps), exact, len(gaps), filled)
    if len(set(ranks)) != 1:
        raise RankConsistencyError(
            "eigenvalue count inside the domain varies across parameter "
            "samples; the Loewner ranks by parameter: "
            f"{_rank_runs(ranks, config.parameter_points)}. "
            "An eigenvalue crossing the contour changes the rank, and so "
            "does a sampling boundary too close to the contour for N "
            "quadrature nodes; raising N tells the two apart, since only a "
            "crossing keeps its change of rank",
            ranks=ranks,
        )
    return ranks[0], float(min(gaps)), bases


def _rank_runs(ranks, points):
    """The runs of equal consecutive ranks by their parameter points, e.g.
    "rank 2 on [20, 23.85], rank 3 at 24.23, rank 4 on [24.62, 35]"."""
    def fmt(p):
        return f"{p.real:.4g}" if p.imag == 0 else f"{p:.4g}"

    runs = []
    for rank, run in itertools.groupby(zip(ranks, points), lambda rp: rp[0]):
        p = [p for _, p in run]
        runs.append(f"rank {rank} " + (f"at {fmt(p[0])}" if len(p) == 1 else
                                       f"on [{fmt(p[0])}, {fmt(p[-1])}]"))
    return ", ".join(runs)


def _sketched_rank(L):
    """The rank m of L (_rank), a lower bound on sigma_m / sigma_{m+1} (inf
    when m = 0), a leading singular triplet (X, s, Vh) of L with at least m
    values, and whether it is L's exact SVD.

    While the sketch is at most half as wide as L, X spans a Gaussian sketch
    of width k of L's range (the test matrix of _sketch), s holds the
    singular values of X^H L, and e = ||L - X X^H L||_F (plus a rounding
    allowance; X X^H is the projector Q Q^H of _dominant_left) bounds the
    rest.  By Weyl's inequality each sigma_i of L lies in [s_i, s_i + e] for
    i < k, and below e beyond the sketch; so the threshold RANK_TOL *
    sigma_0 lies in [RANK_TOL s_0, RANK_TOL (s_0 + e)].  The count is
    certified when every s_i clears that interval by e (above its top, or
    below its bottom) and e lies below its bottom; the gap is then
    s_{m-1} / (s_m + e).  A count that fills the sketch doubles k.  An
    uncertified count, or an L narrower than twice the sketch, takes the
    exact SVD of L (_svd), whose count and gap are exact.
    """
    k = _RANK_SKETCH
    while 2 * k <= min(L.shape):
        X, s, Vh, rest = _dominant_left(L, _sketch(L.shape[1], k))
        e = rest + k * np.finfo(float).eps * np.linalg.norm(L)
        lo, hi = RANK_TOL * s[0], RANK_TOL * (s[0] + e)
        above = s > hi
        m = int(np.count_nonzero(above))
        if m == k:
            k *= 2
            continue
        if np.all(above | (s + e <= lo)) and e <= lo:
            return (m, (s[m - 1] / (s[m] + e) if m else np.inf), (X, s, Vh),
                    False)
        break
    X, s, Vh = _svd(L)
    m = _rank(s)
    return m, _gap(s, m), (X, s, Vh), True


def select_directions(config, m, b, c, bases):
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
    sigma, Rd = config.right_points, config.right_dirs
    reference = [_pencil_eig(X, s, Vh, sigma, b[:, j], Rd)[0]
                 for j, (X, s, Vh) in enumerate(bases)]
    orders = (_pivot_order(np.vstack([X.T for X, _, _ in bases])),
              _pivot_order(np.vstack([Vh for _, _, Vh in bases])))
    rows, cols = [], []
    while 2 * k < r:
        rows += itertools.islice(orders[0], k - len(rows))
        cols += itertools.islice(orders[1], k - len(cols))
        I, J = np.sort(rows), np.sort(cols)
        kept = config.subset(I, J)
        if all(_subset_matches(kept, b[I, j], c[J, j], m, want)
               for j, want in enumerate(reference)):
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


def _subset_matches(config, B, C, m, want):
    """Whether realize(config, B, C, m) gives len(want) == m eigenvalues
    that match want both ways within RANK_TOL * max|want|."""
    try:
        got = realize(config, B, C, m)[0]
    except RealizationError:
        return False
    if len(got) != len(want):
        return False
    d = np.abs(got[:, None] - want[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max()) <= (
        RANK_TOL * np.max(np.abs(want)))
