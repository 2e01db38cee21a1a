"""Bivariate barycentric rational fitting of probed resolvent samples.

The scalar surrogate has the form

    f(z, p) = sum_ij a_ij D(xi_i, pi_j) / ((z - xi_i)(p - pi_j))
            / sum_ij a_ij / ((z - xi_i)(p - pi_j)),

which interpolates the data at every node pair (xi_i, pi_j).  Nodes are
picked greedily at the worst-error grid point; the unit-norm coefficients
a_ij minimize the linearized residual over the remaining grid in a least-
squares sense.  Once the nodes are fixed, refit_coefficients re-solves the
coefficients against a stack of grid functions sharing those nodes (the
set-valued AAA idea), so one set of coefficients serves every function in
the stack.  collapse_lifts turns those coefficients and the exact samples
at the p-nodes into the p-only barycentric forms that online evaluates.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, RankConsistencyError
from .loewner import (_SKETCH_SEED, TangentialData, _dominant_left,
                      build_loewner, numerical_rank)

_NODE_TOL = 1e-14
_DENOM_FLOOR = 1e-300
# initial sketch width of the rank check; doubled while the count fills it
_RANK_SKETCH = 16

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BarycentricModel2D:
    """Scalar bivariate barycentric rational interpolant."""

    z_nodes: np.ndarray     # (mz,)
    p_nodes: np.ndarray     # (mp,)
    coeffs: np.ndarray      # (mz, mp), unit Frobenius norm
    node_values: np.ndarray  # (mz, mp)
    converged: bool = True
    max_error: float = 0.0
    error_history: tuple = field(default=())

    def __call__(self, z, p):
        return eval_model(self, z, p)


@dataclass(frozen=True)
class VectorBarycentricModel:
    """Vector-valued lift sharing nodes and coefficients with its parent."""

    z_nodes: np.ndarray
    p_nodes: np.ndarray
    coeffs: np.ndarray
    node_values: np.ndarray  # (mz, mp, n)

    def __call__(self, z, p):
        return eval_model(self, z, p)


def consistency_rank_check(samples, config, rank_tol=1e-10):
    """Common rank of the per-parameter Loewner matrices.

    The rank equals the eigenvalue count m inside the domain; the parametric
    decomposition requires it to be the same for every sampled parameter.
    Each rank counts the singular values above rank_tol times the largest,
    as numerical_rank does, but from a Gaussian sketch of the leading ones
    (see _sketched_rank): the sketch is certified by Weyl's bound to give
    the full-SVD count, and the full SVD runs only where it is not.  One
    DEBUG record on the "pnlevp.paaa" logger holds the ranks, the smallest
    certified lower bound on sigma_m / sigma_{m+1} and the fallback count.
    """
    ranks, gaps = [], []
    for L in _parameter_loewner(samples, config):
        rank, gap = _sketched_rank(L, rank_tol)
        ranks.append(rank)
        gaps.append(gap)
    certified = [g for g in gaps if g is not None]
    _log.debug(
        "rank check: ranks %s, min certified sigma_m/sigma_m+1 %s, "
        "full-SVD fallbacks %d of %d", ranks,
        f"{min(certified):.3e}" if certified else "n/a",
        len(gaps) - len(certified), len(gaps),
    )
    if len(set(ranks)) != 1:
        raise RankConsistencyError(
            "eigenvalue count inside the domain varies across parameter "
            f"samples; per-parameter Loewner ranks: {ranks}",
            ranks=ranks,
        )
    return ranks[0]


def tangential_samples(config, H):
    """Rows l_k^T H(theta_k, p) and columns H(sigma_k, p) r_k, (r, q', n)
    each, of pole-part samples H (2r, q', n, n) at any q' parameters."""
    b = np.einsum("ka,kjab->kjb", config.left_dirs, H[config.left_indices])
    c = np.einsum("kjab,kb->kja", H[config.right_indices], config.right_dirs)
    return b, c


def _parameter_loewner(samples, config):
    """The Loewner matrix L of each parameter sample p_j, in order."""
    b, c = tangential_samples(config, samples.H)
    for j in range(config.q):
        L, _ = build_loewner(TangentialData(
            theta=config.left_points, sigma=config.right_points,
            left_dirs=config.left_dirs, right_dirs=config.right_dirs,
            left_vals=b[:, j], right_vals=c[:, j],
        ))
        yield L


def _sketched_rank(L, rank_tol):
    """numerical_rank(L, rank_tol) from a sketch of the leading singular
    values, and a certified lower bound on sigma_m / sigma_{m+1} (inf when
    m = 0, None when the full SVD decides).

    X spans a Gaussian sketch of width k of L's range, s the singular values
    of X^H L, and e = ||L - X X^H L||_F (plus a rounding allowance) bounds
    the rest.  By Weyl's inequality each sigma_i of L lies in [s_i, s_i + e]
    for i < k, and below e beyond the sketch; so the threshold rank_tol *
    sigma_0 lies in [rank_tol s_0, rank_tol (s_0 + e)].  The count is
    certified when every s_i clears that interval by e (above its top, or
    below its bottom) and e lies below its bottom.  A count that fills the
    sketch doubles k; an uncertified count, or a sketch as wide as L, falls
    back to the full SVD.
    """
    rng = np.random.default_rng(_SKETCH_SEED)
    k = _RANK_SKETCH
    while k < min(L.shape):
        X, s = _dominant_left(L, k, rng)
        e = (np.linalg.norm(L - X @ (X.conj().T @ L))
             + k * np.finfo(float).eps * np.linalg.norm(L))
        lo, hi = rank_tol * s[0], rank_tol * (s[0] + e)
        above = s > hi
        m = int(np.count_nonzero(above))
        if m == k:
            k *= 2
            continue
        if np.all(above | (s + e <= lo)) and e <= lo:
            return m, (s[m - 1] / (s[m] + e) if m else np.inf)
        break
    return numerical_rank(L, rank_tol), None


def paaa_fit(grid_values, s_points, p_points, tol=1e-12, max_z_nodes=None,
             max_p_nodes=None, min_z_nodes=1):
    """Greedy bivariate barycentric fit of a full data grid.

    grid_values[i, j] holds D(s_i, p_j).  Each iteration adds the worst-error
    grid coordinates as new nodes (at most one per axis) and re-solves the
    linearized least-squares problem for the coefficients.  Terminates when
    the max relative grid error drops below tol and at least min_z_nodes
    z-nodes are present, or when the node budgets are exhausted (then the
    best model seen is returned with converged=False).
    """
    D = np.asarray(grid_values, dtype=complex)
    s = np.asarray(s_points, dtype=complex)
    p = np.asarray(p_points, dtype=complex)
    if D.shape != (len(s), len(p)):
        raise ValueError("grid_values must have shape (len(s_points), len(p_points))")
    if len(np.unique(s)) != len(s) or len(np.unique(p)) != len(p):
        raise ValueError("sample and parameter points must be distinct")
    if max_z_nodes is None:
        max_z_nodes = max(min_z_nodes, len(s) // 2)
    if max_p_nodes is None:
        max_p_nodes = max(2, len(p) // 2)
    max_z_nodes = min(max_z_nodes, len(s))
    max_p_nodes = min(max_p_nodes, len(p))
    if min_z_nodes > max_z_nodes:
        raise ValueError("min_z_nodes exceeds the z-node budget")
    scale = np.max(np.abs(D))
    if scale == 0.0:
        model = BarycentricModel2D(
            z_nodes=s[:1], p_nodes=p[:1],
            coeffs=np.ones((1, 1), dtype=complex),
            node_values=np.zeros((1, 1), dtype=complex),
        )
        return model

    i0, j0 = np.unravel_index(np.argmax(np.abs(D)), D.shape)
    zi = [int(i0)]
    pj = [int(j0)]
    best = None
    history = []
    while True:
        alpha = _solve_coefficients(D, s, p, zi, pj)
        model = BarycentricModel2D(
            z_nodes=s[zi], p_nodes=p[pj], coeffs=alpha,
            node_values=D[np.ix_(zi, pj)],
        )
        E = np.abs(_eval_grid(model, s, p, zi, pj) - D) / scale
        err = float(np.max(E))
        history.append(err)
        if best is None or err < best[0]:
            best = (err, model)
        if err <= tol and len(zi) >= min_z_nodes:
            return BarycentricModel2D(
                z_nodes=model.z_nodes, p_nodes=model.p_nodes,
                coeffs=model.coeffs, node_values=model.node_values,
                converged=True, max_error=err, error_history=tuple(history),
            )
        if err <= tol:
            # tolerance met early: keep adding z-nodes until the pole-count
            # constraint (min_z_nodes) is satisfied
            Ez = E.copy()
            Ez[zi, :] = -1.0
            i_star = int(np.unravel_index(np.argmax(Ez), Ez.shape)[0])
            zi.append(i_star)
            continue
        i_star, j_star = np.unravel_index(np.argmax(E), E.shape)
        added = False
        if i_star not in zi and len(zi) < max_z_nodes:
            zi.append(int(i_star))
            added = True
        if j_star not in pj and len(pj) < max_p_nodes:
            pj.append(int(j_star))
            added = True
        if not added:
            # the worst point contributes no new node (its coordinates are
            # already nodes, or an axis is at budget); fall back to the worst
            # error restricted to coordinates that can still be added
            if len(zi) < max_z_nodes:
                Ez = E.copy()
                Ez[zi, :] = -1.0
                zi.append(int(np.unravel_index(np.argmax(Ez), Ez.shape)[0]))
                added = True
            if len(pj) < max_p_nodes:
                Ep = E.copy()
                Ep[:, pj] = -1.0
                pj.append(int(np.unravel_index(np.argmax(Ep), Ep.shape)[1]))
                added = True
        if not added:
            err, model = best
            return BarycentricModel2D(
                z_nodes=model.z_nodes, p_nodes=model.p_nodes,
                coeffs=model.coeffs, node_values=model.node_values,
                converged=False, max_error=err, error_history=tuple(history),
            )


def refit_coefficients(model, grid_values, s_points, p_points, tol=1e-12):
    """Re-solve the coefficients of `model` for a stack of grid functions.

    grid_values[i, j, k] holds the k-th function at (s_i, p_j); the nodes of
    `model`, which must be grid points, stay as they are.  Each function is
    divided by its own max modulus, so all of them weigh alike in the
    linearized least-squares problem.  The returned model keeps the node
    values of `model`; its max_error (and converged = max_error <= tol) is
    the worst relative grid error over the stack with the new coefficients.
    """
    G = np.asarray(grid_values, dtype=complex)
    s = np.asarray(s_points, dtype=complex)
    p = np.asarray(p_points, dtype=complex)
    if G.ndim != 3 or G.shape[:2] != (len(s), len(p)):
        raise ValueError("grid_values must have shape "
                         "(len(s_points), len(p_points), k)")
    zi = node_indices(model.z_nodes, s)
    pj = node_indices(model.p_nodes, p)
    scale = np.max(np.abs(G), axis=(0, 1))
    G = G / np.where(scale > 0.0, scale, 1.0)
    alpha = _solve_coefficients(G, s, p, zi, pj)
    stacked = VectorBarycentricModel(
        z_nodes=model.z_nodes, p_nodes=model.p_nodes, coeffs=alpha,
        node_values=G[np.ix_(zi, pj)],
    )
    err = float(np.max(np.abs(_eval_grid(stacked, s, p, zi, pj) - G)))
    return BarycentricModel2D(
        z_nodes=model.z_nodes, p_nodes=model.p_nodes, coeffs=alpha,
        node_values=model.node_values, converged=err <= tol, max_error=err,
        error_history=model.error_history,
    )


def node_indices(nodes, points):
    """Grid indices of barycentric nodes (which must be grid points)."""
    idx = []
    for x in nodes:
        i = int(np.argmin(np.abs(points - x)))
        if points[i] != x:
            raise ValueError("barycentric node is not a grid point")
        idx.append(i)
    return np.array(idx, dtype=int)


def _solve_coefficients(D, s, p, zi, pj):
    """Unit-norm coefficients minimizing the linearized residual over the
    whole grid.

    D is one grid function (ns, np) or a stack of them (ns, np, k); a stack
    contributes the rows of each of its functions.  The coefficients are the
    last right singular vector of the stacked row matrix M.  A tall M is
    first reduced to its square triangular factor R (M = QR), whose right
    singular vectors are those of M, so no factor of M's height is formed;
    a wide M takes the full SVD, whose last row of Vh spans a null vector.
    """
    ia = np.setdiff1d(np.arange(len(s)), zi)
    jb = np.setdiff1d(np.arange(len(p)), pj)
    nz, npj = len(zi), len(pj)
    if len(ia) == 0 or len(jb) == 0:
        alpha = np.ones((nz, npj), dtype=complex)
        return alpha / np.linalg.norm(alpha)
    M = _residual_rows(D[:, :, None] if D.ndim == 2 else D,
                       s, p, zi, pj, ia, jb)
    if M.shape[0] > M.shape[1]:
        M = np.linalg.qr(M, mode="r")
    # full SVD only when the null space is not covered by the reduced factors
    _, _, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    alpha = Vh[-1].conj().reshape(nz, npj)
    return alpha / np.linalg.norm(alpha)


def _residual_rows(G, s, p, zi, pj, ia, jb):
    """Linearized-residual rows of the grid functions G[:, :, f], stacked
    function by function into one preallocated matrix.

    Each function contributes three groups of rows: grid points off both
    node axes (the standard 2-D Loewner least-squares rows), and grid
    points on a single node line, where the barycentric limit collapses one
    coordinate and the linearized residual involves only that node's
    coefficient row/column.  Node pairs are interpolated exactly and
    contribute no rows.
    """
    nz, npj, na, nb = len(zi), len(pj), len(ia), len(jb)
    Cz = 1.0 / (s[ia][:, None] - s[zi][None, :])   # (na, nz)
    Cp = 1.0 / (p[jb][:, None] - p[pj][None, :])   # (nb, np)
    per_function = na * nb + nz * nb + npj * na
    M = np.zeros((G.shape[2] * per_function, nz * npj), dtype=complex)
    for f in range(G.shape[2]):
        D = G[:, :, f]
        Dn = D[np.ix_(zi, pj)]
        top = f * per_function
        block = M[top:top + na * nb].reshape(na, nb, nz, npj)
        np.subtract(D[np.ix_(ia, jb)][:, :, None, None], Dn[None, None],
                    out=block)
        block *= Cz[:, None, :, None]
        block *= Cp[None, :, None, :]
        top += na * nb
        for k in range(nz):
            # points (xi_k, p_b): 1-D barycentric in p over coefficient row k
            M[top:top + nb, k * npj:(k + 1) * npj] = \
                (D[zi[k], jb][:, None] - Dn[k][None, :]) * Cp
            top += nb
        for k in range(npj):
            # points (s_a, pi_k): 1-D barycentric in z over coefficient column k
            M[top:top + na, k::npj] = \
                (D[ia, pj[k]][:, None] - Dn[:, k][None, :]) * Cz
            top += na
    return M


def _eval_grid(model, s, p, zi, pj):
    """Evaluate the model on the full (s, p) grid, applying the barycentric
    interpolation limit on node rows/columns."""
    values = model.node_values
    vec = values.ndim == 3
    with np.errstate(divide="ignore", invalid="ignore"):
        Cz = 1.0 / (s[:, None] - model.z_nodes[None, :])   # (ns, nz)
        Cp = 1.0 / (p[:, None] - model.p_nodes[None, :])   # (np, mp)
        Cz[zi, :] = 0.0
        Cp[pj, :] = 0.0
        den = Cz @ model.coeffs @ Cp.T
        if vec:
            num = np.einsum("ai,ijn,bj->abn", Cz, model.coeffs[:, :, None] * values, Cp)
            F = num / den[:, :, None]
        else:
            num = Cz @ (model.coeffs * values) @ Cp.T
            F = num / den
        # rows where s is a z-node: 1-D barycentric in p over that node's row
        for k, i in enumerate(zi):
            wrow = model.coeffs[k, :]
            if vec:
                rnum = np.einsum("j,jn,bj->bn", wrow, values[k], Cp)
            else:
                rnum = Cp @ (wrow * values[k])
            rden = Cp @ wrow
            F[i] = (rnum.T / rden).T if vec else rnum / rden
        # columns where p is a p-node
        for k, j in enumerate(pj):
            wcol = model.coeffs[:, k]
            if vec:
                cnum = np.einsum("i,in,ai->an", wcol, values[:, k], Cz)
            else:
                cnum = Cz @ (wcol * values[:, k])
            cden = Cz @ wcol
            F[:, j] = (cnum.T / cden).T if vec else cnum / cden
    # node pairs: exact interpolation
    for a, i in enumerate(zi):
        for b, j in enumerate(pj):
            F[i, j] = values[a, b]
    return F


def lift_vector(model, node_vectors):
    """Replace scalar node values with vectors; nodes and coefficients are
    shared bit-exactly with the parent model."""
    node_vectors = np.asarray(node_vectors, dtype=complex)
    if node_vectors.ndim != 3 or node_vectors.shape[:2] != model.node_values.shape:
        raise ValueError(
            f"node_vectors must have shape {model.node_values.shape} + (n,), "
            f"got {node_vectors.shape}"
        )
    return VectorBarycentricModel(
        z_nodes=model.z_nodes,
        p_nodes=model.p_nodes,
        coeffs=model.coeffs,
        node_values=node_vectors,
    )


def eval_model(model, z, p):
    """Evaluate a (scalar or vector) barycentric model at a single (z, p).

    Coordinates matching a node within 1e-14 trigger the degenerate
    interpolation limit (both sums restricted to the matching node's terms).
    """
    values = model.node_values
    vec = values.ndim == 3
    iz = _match_node(z, model.z_nodes)
    jp = _match_node(p, model.p_nodes)
    if iz is not None and jp is not None:
        return values[iz, jp]
    if iz is not None:
        w = model.coeffs[iz, :] / (p - model.p_nodes)
        return _quotient(w, values[iz], vec)
    if jp is not None:
        w = model.coeffs[:, jp] / (z - model.z_nodes)
        return _quotient(w, values[:, jp], vec)
    cz = 1.0 / (z - model.z_nodes)
    cp = 1.0 / (p - model.p_nodes)
    W = model.coeffs * np.outer(cz, cp)
    den = np.sum(W)
    if abs(den) < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at (z={z}, p={p}); "
            "the evaluation point hits a spurious pole"
        )
    if vec:
        return np.tensordot(W, values, axes=([0, 1], [0, 1])) / den
    return np.sum(W * values) / den


@dataclass(frozen=True)
class CollapsedLifts:
    """Tangential data of one side as p-only barycentric tensors:
    F_k(p) = sum_j cp_j N_kj / sum_j cp_j d_kj, cp_j = 1/(p - pi_j), with
    d_kj = sum_i a_ij/(z_k - xi_i) the fitted weights summed out at the
    direction's own sample point z_k and N_kj = d_kj v_kj, v_kj the exact
    sample at the p-node pi_j, so that F_k(pi_j) = v_kj."""

    p_nodes: np.ndarray  # (mp,)
    numer: np.ndarray    # (r, mp, n)
    denom: np.ndarray    # (r, mp)


def collapse_lifts(scalar, points, vals):
    """Sum out the z-nodes of `scalar` at points[k], once for all p, and
    attach the samples vals[k, j] (r, mp, n) at the p-nodes.

    A point on a z-node line (within 1e-14 of a node) takes that node's
    single-term coefficient row, the interpolation limit that eval_model
    applies there.
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim != 3 or vals.shape[:2] != (len(points), len(scalar.p_nodes)):
        raise ValueError(f"vals must have shape ({len(points)}, "
                         f"{len(scalar.p_nodes)}, n), got {vals.shape}")
    Cz = np.zeros((len(points), len(scalar.z_nodes)), dtype=complex)
    for k, z in enumerate(points):
        iz = _match_node(z, scalar.z_nodes)
        if iz is None:
            Cz[k] = 1.0 / (z - scalar.z_nodes)
        else:
            Cz[k, iz] = 1.0
    denom = Cz @ scalar.coeffs
    return CollapsedLifts(p_nodes=scalar.p_nodes,
                          numer=denom[:, :, None] * vals, denom=denom)


def eval_collapsed(collapsed, p):
    """Values (r, n) of all collapsed lifts at parameter p; a p on a node
    takes that node's column."""
    jp = _match_node(p, collapsed.p_nodes)
    if jp is None:
        cp = 1.0 / (p - collapsed.p_nodes)
        num = np.einsum("kjn,j->kn", collapsed.numer, cp)
        den = np.einsum("kj,j->k", collapsed.denom, cp)
    else:
        num = collapsed.numer[:, jp]
        den = collapsed.denom[:, jp]
    if np.min(np.abs(den)) < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at p={p}; the evaluation "
            "point hits a spurious pole"
        )
    return num / den[:, None]


def _quotient(weights, values, vec):
    den = np.sum(weights)
    if abs(den) < _DENOM_FLOOR:
        raise EvaluationError("barycentric denominator underflow on a node line")
    if vec:
        return weights @ values / den
    return np.sum(weights * values) / den


def _match_node(x, nodes):
    d = np.abs(x - nodes)
    i = int(np.argmin(d))
    return i if d[i] <= _NODE_TOL else None
