"""Bivariate barycentric rational fitting of probed resolvent samples.

The surrogate has the form

    f(z, p) = sum_ij a_ij D(xi_i, pi_j) / ((z - xi_i)(p - pi_j))
            / sum_ij a_ij / ((z - xi_i)(p - pi_j)),

which interpolates the data at every node pair (xi_i, pi_j).  The node
values D(xi_i, pi_j) are scalars or, with a trailing axis, vectors; one
model class and one evaluator serve both.  Every sum runs over the Cauchy
matrices 1/(z - xi_i) and 1/(p - pi_j) of _cauchy, in which a point within
1e-14 of a node takes that node's indicator row: the sums keep only that
node's terms, the 1-D barycentric limit on its line, and a node pair gives
its node value.  Nodes are picked greedily at the worst-error grid point
until the fit has the z-node count it is given (m + 1 for a pole part of
degree m) and meets its tolerance or its p-node budget; the unit-norm
coefficients a_ij minimize the linearized residual over the grid in a
least-squares sense.  Their row matrix is never formed: the rows of one
parameter sample and one grid function factor exactly into a tall matrix of
2 mz columns (mz the z-node count) times a small one, so each such pair
contributes only the 2 mz rows of its triangular factor times the small
one.  Once the nodes are fixed, refit_coefficients re-solves the
coefficients against a stack of grid functions sharing those nodes (the
set-valued AAA idea), so one set of coefficients serves every function in
the stack, such as the probe's refit stack.  collapse_lifts turns those
coefficients and the exact samples at the p-nodes into the p-only
barycentric forms that online evaluates.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvaluationError

# default max relative grid error of the fit
FIT_TOL = 1e-12
_NODE_TOL = 1e-14
_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class BarycentricModel2D:
    """Bivariate barycentric rational interpolant, scalar- or vector-valued."""

    z_nodes: np.ndarray     # (mz,)
    p_nodes: np.ndarray     # (mp,)
    coeffs: np.ndarray      # (mz, mp), unit Frobenius norm
    node_values: np.ndarray  # (mz, mp) or (mz, mp, n)
    max_error: float = 0.0
    error_history: tuple = field(default=())

    def __post_init__(self):
        grid = (len(self.z_nodes), len(self.p_nodes))
        if np.shape(self.coeffs) != grid:
            raise ValueError(f"coeffs of shape {np.shape(self.coeffs)} do "
                             f"not fit the node grid {grid}")
        if np.shape(self.node_values)[:2] != grid:
            raise ValueError("node_values of shape "
                             f"{np.shape(self.node_values)} do not fit the "
                             f"node grid {grid}")


def paaa_fit(grid_values, s_points, p_points, z_nodes, tol=FIT_TOL):
    """Greedy bivariate barycentric fit of a full data grid with exactly
    z_nodes z-nodes.

    grid_values[i, j] holds D(s_i, p_j).  Each iteration adds the worst-error
    grid coordinates as new nodes (at most one per axis) and re-solves the
    linearized least-squares problem for the coefficients; an iteration
    that adds only a p-node reuses the triangular factors of the z-nodes.
    z_nodes must lie in [1, len(s_points) - 1] (ValueError otherwise: a
    z-node at every sample point leaves the coefficients undetermined).  It
    needs at least 3 parameter points (ValueError otherwise): the p-node
    budget is max(2, len(p_points) // 2), so a point off the p-nodes ties
    the values between them.  Terminates when the max relative grid error
    drops to tol with z_nodes z-nodes (a fit that meets tol with fewer adds
    the worst remaining ones), or when the z-node count and the p-node
    budget are both reached; then the model of least error among those with
    z_nodes z-nodes is returned.  Its max_error tells which (above tol),
    and error_history holds the error of every iteration.  All-zero data,
    which gives the greedy no node to pick, raises ValueError.
    """
    D = np.asarray(grid_values, dtype=complex)
    s = np.asarray(s_points, dtype=complex)
    p = np.asarray(p_points, dtype=complex)
    if D.shape != (len(s), len(p)):
        raise ValueError("grid_values must have shape (len(s_points), len(p_points))")
    if len(np.unique(s)) != len(s) or len(np.unique(p)) != len(p):
        raise ValueError("sample and parameter points must be distinct")
    if len(p) < 3:
        raise ValueError(f"paaa_fit needs at least 3 parameter points, "
                         f"got {len(p)}")
    if not 1 <= z_nodes < len(s):
        raise ValueError(f"z_nodes = {z_nodes} is outside [1, {len(s) - 1}]")
    max_p_nodes = max(2, len(p) // 2)
    scale = np.max(np.abs(D))
    if scale == 0.0:
        raise ValueError("grid_values are 0 at every sample: no node to fit")

    i0, j0 = np.unravel_index(np.argmax(np.abs(D)), D.shape)
    zi = [int(i0)]
    pj = [int(j0)]
    best = None
    history = []
    # zi only grows, so its length names the z-node set that `factors` fit
    factors, factored = None, 0
    while True:
        if factored != len(zi):
            factors, factored = _z_factors(D, s, zi), len(zi)
        alpha = _solve_coefficients(D, s, p, zi, pj, factors)
        model = BarycentricModel2D(
            z_nodes=s[zi], p_nodes=p[pj], coeffs=alpha,
            node_values=D[np.ix_(zi, pj)],
        )
        E = np.abs(_eval_grid(model, s, p)[0] - D) / scale
        err = float(np.max(E))
        history.append(err)
        full = len(zi) == z_nodes
        if full and (best is None or err < best[0]):
            best = (err, model)
        if err <= tol:
            if full:
                return replace(model, max_error=err,
                               error_history=tuple(history))
            # tolerance met early, e.g. by the scalar of a semi-simple
            # eigenvalue, which has fewer poles than m: keep adding z-nodes
            zi.append(_worst_off(E, zi, 0))
            continue
        i_star, j_star = np.unravel_index(np.argmax(E), E.shape)
        added = False
        if i_star not in zi and len(zi) < z_nodes:
            zi.append(int(i_star))
            added = True
        if j_star not in pj and len(pj) < max_p_nodes:
            pj.append(int(j_star))
            added = True
        if not added:
            # the worst point contributes no new node (its coordinates are
            # already nodes, or an axis is at budget); fall back to the worst
            # error restricted to coordinates that can still be added
            if len(zi) < z_nodes:
                zi.append(_worst_off(E, zi, 0))
                added = True
            if len(pj) < max_p_nodes:
                pj.append(_worst_off(E, pj, 1))
                added = True
        if not added:
            err, model = best
            return replace(model, max_error=err, error_history=tuple(history))


def _worst_off(E, taken, axis):
    """Index along `axis` (0 for z, 1 for p) of the worst error in the grid
    E outside the rows or columns already taken as nodes."""
    E = E.copy()
    np.moveaxis(E, axis, 0)[taken] = -1.0
    return int(np.unravel_index(np.argmax(E), E.shape)[axis])


def refit_coefficients(model, grid_values, s_points, p_points):
    """Re-solve the coefficients of `model` for a stack of grid functions.

    grid_values[i, j, k] holds the k-th function at (s_i, p_j), e.g. the
    probe's refit stack; the nodes of `model`, which must be grid points,
    stay as they are.  Each function is divided by its own max modulus, so
    all of them weigh alike in the linearized least-squares problem.  The
    returned model keeps the node values and error_history of `model`; its
    max_error is the worst relative grid error over the stack with the new
    coefficients.
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
    stacked = replace(model, coeffs=alpha, node_values=G[np.ix_(zi, pj)])
    err = float(np.max(np.abs(_eval_grid(stacked, s, p)[0] - G)))
    return replace(model, coeffs=alpha, max_error=err)


def node_indices(nodes, points):
    """Grid indices of barycentric nodes (which must be grid points)."""
    idx = _cauchy(nodes, points)[1]
    if np.any(idx < 0):
        raise ValueError("barycentric node is not a grid point")
    return idx


def _solve_coefficients(D, s, p, zi, pj, factors=None):
    """Unit-norm coefficients minimizing the linearized residual over the
    whole grid.

    D is one grid function (ns, np) or a stack of them (ns, np, k); a stack
    contributes the rows of each of its functions.  The coefficients are the
    last right singular vector of the row matrix M, which has a row for
    every grid point (s_a, p_b) of every function: at coefficient (i, j) it
    holds (D(s_a, p_b) - D(xi_i, pi_j)) Cz[a, i] Cp[b, j], with the Cauchy
    matrices Cz, Cp of _cauchy, so a node line gives the 1-D barycentric row
    of its node and a node pair, interpolated exactly, a zero row.

    M is never formed.  Splitting D(s_a, p_b) - D(xi_i, pi_j) at D(xi_i, p_b)
    factors the ns rows of one parameter p_b and one function exactly as
    A E: A = [U, Cz] (ns, 2 mz) with U[a, i] = Cz[a, i] (D(s_a, p_b) -
    D(xi_i, p_b)), a divided difference, and E[:, (i, j)] = Cp[b, j] (e_i;
    (D(xi_i, p_b) - D(xi_i, pi_j)) e_i) (2 mz, mz mp).  So the triangular
    factor of M is that of the stacked R(A) E, np k 2 mz rows.  The factors
    R(A) depend on the z-nodes only: `factors`, _z_factors(D, s, zi), may
    be passed in by a caller that keeps them while only p-nodes change.
    """
    nz, npj = len(zi), len(pj)
    if factors is None:
        factors = _z_factors(D, s, zi)
    Cp = _cauchy(p, p[pj])[0]
    blocks = []
    for R, at_z in factors:
        # D(xi_i, p_b) - D(xi_i, pi_j), (np, mz, mp)
        delta = at_z[:, :, None] - at_z[pj].T[None]
        RE = R[:, :, :nz, None] + R[:, :, nz:, None] * delta[:, None]
        RE *= Cp[:, None, None, :]
        blocks.append(RE.reshape(-1, nz * npj))
    _, _, Vh = np.linalg.svd(np.linalg.qr(np.vstack(blocks), mode="r"))
    alpha = Vh[-1].conj().reshape(nz, npj)
    return alpha / np.linalg.norm(alpha)


def _z_factors(D, s, zi):
    """Per grid function of D (ns, np) or (ns, np, k), the triangular
    factors R (np, 2 mz, 2 mz) of its np matrices A = [U, Cz] of
    _solve_coefficients, by one batched QR, and its values D(xi_i, p_b) at
    the z-nodes (np, mz).  With a z-node at every sample point, M holds
    nothing that ties one z-node's coefficients to another's: ValueError.
    """
    nz = len(zi)
    if nz == len(s):
        raise ValueError(f"all {nz} sample points are z-nodes, which leaves "
                         "the coefficients undetermined; use fewer z-nodes")
    G = D.reshape(D.shape[:2] + (-1,))
    Cz = _cauchy(s, s[zi])[0]
    A = np.empty((D.shape[1], len(s), 2 * nz), dtype=complex)
    A[:, :, nz:] = Cz
    factors = []
    for f in range(G.shape[2]):
        g = G[:, :, f].T  # (np, ns)
        at_z = g[:, zi]  # D(xi_i, p_b), (np, mz)
        np.multiply(g[:, :, None] - at_z[:, None, :], Cz, out=A[:, :, :nz])
        factors.append((np.linalg.qr(A, mode="r"), at_z))
    return factors


def _eval_grid(model, s, p):
    """Values of the model on the grid s x p, of shape (len(s), len(p))
    followed by any vector axis of its node values, and the barycentric
    denominators (len(s), len(p)).

    A node pair gives its node value exactly, with denominator 1.
    """
    Cz, iz = _cauchy(s, model.z_nodes)
    Cp, jp = _cauchy(p, model.p_nodes)
    values = model.node_values
    V = values.reshape(values.shape[:2] + (-1,))
    num = Cp @ np.tensordot(Cz, model.coeffs[:, :, None] * V, axes=1)
    den = Cz @ model.coeffs @ Cp.T
    a, b = np.flatnonzero(iz >= 0), np.flatnonzero(jp >= 0)
    num[np.ix_(a, b)] = V[np.ix_(iz[a], jp[b])]
    den[np.ix_(a, b)] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        F = num / den[:, :, None]
    return F.reshape(den.shape + values.shape[2:]), den


def lift_vector(model, node_vectors):
    """Replace scalar node values with vectors; nodes and coefficients are
    shared bit-exactly with the parent model."""
    node_vectors = np.asarray(node_vectors, dtype=complex)
    if node_vectors.ndim != 3 or node_vectors.shape[:2] != model.node_values.shape:
        raise ValueError(
            f"node_vectors must have shape {model.node_values.shape} + (n,), "
            f"got {node_vectors.shape}"
        )
    return BarycentricModel2D(
        z_nodes=model.z_nodes,
        p_nodes=model.p_nodes,
        coeffs=model.coeffs,
        node_values=node_vectors,
    )


def eval_model(model, z, p):
    """Evaluate a (scalar or vector) barycentric model at a single (z, p).

    Coordinates matching a node within 1e-14 take the interpolation limit
    of _cauchy (both sums restricted to the matching node's terms).
    """
    F, den = _eval_grid(model, z, p)
    if abs(den[0, 0]) < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at (z={z}, p={p}); "
            "the evaluation point hits a spurious pole"
        )
    return F[0, 0]


@dataclass(frozen=True)
class CollapsedLifts:
    """Tangential data as p-only barycentric tensors:
    F_k(p) = sum_j cp_j N_kj / sum_j cp_j d_kj, cp_j = 1/(p - pi_j), with
    d_kj = sum_i a_ij/(z_k - xi_i) the fitted weights summed out at the
    direction's own sample point z_k and N_kj = d_kj v_kj, v_kj the exact
    sample at the p-node pi_j, so that F_k(pi_j) = v_kj."""

    p_nodes: np.ndarray  # (mp,)
    numer: np.ndarray    # (k, mp, n)
    denom: np.ndarray    # (k, mp)


def collapse_lifts(scalar, points, vals):
    """Sum out the z-nodes of `scalar` at points[k], once for all p, and
    attach the samples vals[k, j] (k, mp, n) at the p-nodes.

    A point on a z-node line takes that node's coefficient row (the
    indicator row of _cauchy), the limit that eval_model applies there.
    """
    vals = np.asarray(vals, dtype=complex)
    if vals.ndim != 3 or vals.shape[:2] != (len(points), len(scalar.p_nodes)):
        raise ValueError(f"vals must have shape ({len(points)}, "
                         f"{len(scalar.p_nodes)}, n), got {vals.shape}")
    denom = _cauchy(points, scalar.z_nodes)[0] @ scalar.coeffs
    return CollapsedLifts(p_nodes=scalar.p_nodes,
                          numer=denom[:, :, None] * vals, denom=denom)


def eval_collapsed(collapsed, p):
    """Values (k, n) of all collapsed lifts at parameter p, a p on a node
    taking that node's column, and the smallest |denominator| over the k
    lifts."""
    cp = _cauchy(p, collapsed.p_nodes)[0][0]
    num = np.einsum("kjn,j->kn", collapsed.numer, cp)
    den = np.einsum("kj,j->k", collapsed.denom, cp)
    smallest = float(np.min(np.abs(den)))
    if smallest < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at p={p}; the evaluation "
            "point hits a spurious pole"
        )
    return num / den[:, None], smallest


def _cauchy(x, nodes):
    """Cauchy matrix C[a, i] = 1/(x_a - nodes_i) of the points x (a scalar
    or 1-D) against barycentric nodes, and at[a], the index of the node
    within _NODE_TOL of x_a, or -1 when there is none.

    The row of a point on a node is that node's indicator row: every
    barycentric sum then keeps only that node's terms, which is the
    interpolation limit on the node's line.
    """
    d = np.reshape(np.asarray(x, dtype=complex), (-1, 1)) - nodes
    dist = np.abs(d)
    at = np.where(dist.min(axis=1) <= _NODE_TOL, dist.argmin(axis=1), -1)
    on = at >= 0
    C = np.zeros(d.shape, dtype=complex)
    C[on, at[on]] = 1.0
    np.divide(1.0, d, out=C, where=~on[:, None])
    return C, at
