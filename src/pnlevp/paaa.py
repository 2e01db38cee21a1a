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
its node value.  Nodes are picked greedily at the worst-error grid point,
up to a budget or to a given number of z-nodes; the unit-norm coefficients
a_ij minimize the linearized residual over the grid in a least-squares
sense, its rows filled and QR-reduced a block at a time so that the whole
row matrix is never held.  Once the nodes are fixed, refit_coefficients
re-solves the coefficients against a stack of grid functions sharing those
nodes (the set-valued AAA idea), so one set of coefficients serves every
function in the stack, such as the probe's refit stack.  collapse_lifts turns
those coefficients and the exact samples at the p-nodes into the p-only
barycentric forms that online evaluates.
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EvaluationError

_NODE_TOL = 1e-14
_DENOM_FLOOR = 1e-300
# rows of M filled and reduced at a time by _solve_coefficients
_BLOCK_ROWS = 2048


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

    def __call__(self, z, p):
        return eval_model(self, z, p)


def paaa_fit(grid_values, s_points, p_points, tol=1e-12, z_nodes=None):
    """Greedy bivariate barycentric fit of a full data grid.

    grid_values[i, j] holds D(s_i, p_j).  Each iteration adds the worst-error
    grid coordinates as new nodes (at most one per axis) and re-solves the
    linearized least-squares problem for the coefficients.  z_nodes = k
    asks for exactly k z-nodes (ValueError outside [1, len(s_points)]);
    None lets the greedy stop anywhere up to max(1, len(s_points) // 2).
    The p-node budget is max(2, len(p_points) // 2).  Terminates when the
    max relative grid error drops to tol with the z-node count met, or when
    the node budgets are exhausted; then the model of least error among
    those with the z-node count met is returned.  Its max_error tells which
    (above tol), and error_history holds the error of every iteration.
    All-zero data gives the one-node zero model.
    """
    D = np.asarray(grid_values, dtype=complex)
    s = np.asarray(s_points, dtype=complex)
    p = np.asarray(p_points, dtype=complex)
    if D.shape != (len(s), len(p)):
        raise ValueError("grid_values must have shape (len(s_points), len(p_points))")
    if len(np.unique(s)) != len(s) or len(np.unique(p)) != len(p):
        raise ValueError("sample and parameter points must be distinct")
    if z_nodes is None:
        min_z_nodes, max_z_nodes = 1, max(1, len(s) // 2)
    elif not 1 <= z_nodes <= len(s):
        raise ValueError(f"z_nodes = {z_nodes} is outside [1, {len(s)}]")
    else:
        min_z_nodes = max_z_nodes = z_nodes
    max_p_nodes = min(max(2, len(p) // 2), len(p))
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
        E = np.abs(_eval_grid(model, s, p)[0] - D) / scale
        err = float(np.max(E))
        history.append(err)
        if len(zi) >= min_z_nodes and (best is None or err < best[0]):
            best = (err, model)
        if err <= tol and len(zi) >= min_z_nodes:
            return replace(model, max_error=err, error_history=tuple(history))
        if err <= tol:
            # tolerance met early: keep adding z-nodes until the pole-count
            # constraint (min_z_nodes) is satisfied
            zi.append(_worst_off(E, zi, 0))
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


def _solve_coefficients(D, s, p, zi, pj):
    """Unit-norm coefficients minimizing the linearized residual over the
    whole grid.

    D is one grid function (ns, np) or a stack of them (ns, np, k); a stack
    contributes the rows of each of its functions.  The coefficients are the
    last right singular vector of the stacked row matrix M, which has a row
    for every grid point and so is never wide.  M itself is never formed:
    its rows are filled in blocks of at most _BLOCK_ROWS into one buffer,
    each block is reduced to its triangular QR factor, and the stacked
    factors are reduced once more to the square factor R of M (TSQR;
    Demmel, Grigori, Hoemmen & Langou, SISC 2012), whose right singular
    vectors are those of M.
    """
    nz, npj = len(zi), len(pj)
    if nz == len(s) or npj == len(p):
        alpha = np.ones((nz, npj), dtype=complex)
        return alpha / np.linalg.norm(alpha)
    G = D.reshape(D.shape[:2] + (-1,))
    factors = _row_factors(G, s, p, zi, pj)
    buf = np.empty((min(_BLOCK_ROWS, G.size), nz * npj), dtype=complex)
    R = np.vstack([
        np.linalg.qr(_residual_rows(G, s, p, zi, pj, start,
                                    buf[:G.size - start], factors), mode="r")
        for start in range(0, G.size, len(buf))])
    _, _, Vh = np.linalg.svd(np.linalg.qr(R, mode="r"))
    alpha = Vh[-1].conj().reshape(nz, npj)
    return alpha / np.linalg.norm(alpha)


def _row_factors(G, s, p, zi, pj):
    """The Cauchy matrices Cz (ns, mz) and Cp (np, mp) of _cauchy and the
    node values (mz, mp, k) from which _residual_rows builds its rows."""
    return _cauchy(s, s[zi])[0], _cauchy(p, p[pj])[0], G[np.ix_(zi, pj)]


def _residual_rows(G, s, p, zi, pj, start=0, out=None, factors=None):
    """Rows start, start + 1, ... of the linearized-residual matrix M of the
    grid functions G[:, :, f], written into out and returned (by default a
    new array holding every row from start on).

    M holds the rows of each function one after another, and a function's
    rows run over the grid points (s_a, p_b), b fastest.  The row of point
    (s_a, p_b) holds (D(s_a, p_b) - D(xi_i, pi_j)) times Cz[a, i] Cp[b, j]
    at coefficient (i, j).  On a node line it is therefore the 1-D
    barycentric row of that node, and a node pair, which is interpolated
    exactly, gives a zero row.  factors is _row_factors(G, s, p, zi, pj),
    formed here when not given; a caller that fills M block by block forms
    it once.
    """
    nq = G.shape[1]
    n = G.shape[0] * nq  # rows per function
    if out is None:
        out = np.empty((G.size - start, len(zi) * len(pj)), dtype=complex)
    Cz, Cp, N = factors or _row_factors(G, s, p, zi, pj)
    stop = start + len(out)
    rows = out.reshape(len(out), len(zi), len(pj))
    for f in range(start // n, (stop - 1) // n + 1):
        lo, hi = max(start, f * n), min(stop, (f + 1) * n)
        a, b = np.divmod(np.arange(lo, hi) - f * n, nq)
        block = rows[lo - start:hi - start]
        np.subtract(G[a, b, f][:, None, None], N[:, :, f], out=block)
        block *= Cz[a, :, None]
        block *= Cp[b, None, :]
    return out


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


def eval_collapsed(collapsed, p, return_min_denominator=False):
    """Values (k, n) of all collapsed lifts at parameter p; a p on a node
    takes that node's column.  With return_min_denominator, also the
    smallest |denominator| over the k lifts."""
    cp = _cauchy(p, collapsed.p_nodes)[0][0]
    num = np.einsum("kjn,j->kn", collapsed.numer, cp)
    den = np.einsum("kj,j->k", collapsed.denom, cp)
    smallest = float(np.min(np.abs(den)))
    if smallest < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at p={p}; the evaluation "
            "point hits a spurious pole"
        )
    if return_min_denominator:
        return num / den[:, None], smallest
    return num / den[:, None]


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
