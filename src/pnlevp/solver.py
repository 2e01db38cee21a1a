"""Offline/online solver for parametric nonlinear eigenvalue problems.

The offline phase samples the pole part H itself by contour quadrature, N
dense n-by-n inverses of T per parameter, fixes the eigenvalue count m by
the Loewner rank consistency check on the tangential rows of H, and fits
one set of bivariate barycentric nodes and coefficients that every
surrogate shares.  The nodes are picked greedily on the scalar
l^T H(s, p) r (with l, r the means of the probing directions); the
coefficients are then re-solved against a stack of that scalar and a few
random combinations of the left and right samples, so that they fit the
tangential data b_k(p) = l_k^T H(theta_k, p) and c_k(p) = H(sigma_k, p) r_k
too.  Of the r directions per side, the model keeps the r' <= r that a
pivoted selection on the rank check's singular vectors picks and a check
against the full pencil accepts, and stores their b_k and c_k at the
p-nodes exactly, as read from the probed H: theta_k, sigma_k and the
p-nodes are all sample points.

Online needs b_k and c_k only at these fixed theta_k and sigma_k.  The
fitted weights are summed out there once, when a model is built or loaded,
into one p-only barycentric tensor over the 2r' kept directions that
interpolates the stored samples, so an answer at any complex parameter p
costs one contraction over the p-nodes, the Loewner assembly and a sketched
rank truncation: O(r'^2 m + r' m_p n), independent of the quadrature size.
"""

import itertools
import json
import os
import secrets
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .contour import (Disk, Ellipse, SamplingConfig, build_trapezoid_rule,
                      probe_samples)
from .errors import EvaluationError, ModelFormatError, RealizationError
from .loewner import TangentialData, eigenvalue_order, filter_in_domain, realize
from .paaa import (BarycentricModel2D, _cauchy, collapse_lifts,
                   consistency_rank_check, eval_collapsed, node_indices,
                   paaa_fit, refit_coefficients, tangential_samples)
# pnlbench/spans.py wraps these two under these names
from .paaa import eval_model, lift_vector  # noqa: F401

FORMAT_VERSION = 2

# random combinations of the left (and as many of the right) samples that
# join the scalar in the coefficient refit
_LIFT_SKETCHES = 2
# scalar-probe poles with a residue below this fraction of the scalar's
# scale are cancelled by a numerator zero (Froissart doublets)
_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class OfflineModel:
    """Serialized result of the offline phase."""

    domain: object
    config: SamplingConfig
    m: int
    scalar_model: BarycentricModel2D
    left_vals: np.ndarray   # (r, mp, n): l_k^T H(theta_k, pi_j)
    right_vals: np.ndarray  # (r, mp, n): H(sigma_k, pi_j) r_k
    metadata: dict = field(default_factory=dict)
    # p-only form at theta_1..r, then sigma_1..r; derived, not stored
    collapsed: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.shape(self.left_vals) != np.shape(self.right_vals):
            raise ValueError("left_vals and right_vals differ in shape")
        config = self.config
        object.__setattr__(self, "collapsed", collapse_lifts(
            self.scalar_model,
            np.concatenate([config.left_points, config.right_points]),
            np.concatenate([self.left_vals, self.right_vals])))


@dataclass(frozen=True)
class EigenSolution:
    p_hat: complex
    eigenvalues: np.ndarray
    V: np.ndarray
    W: np.ndarray
    in_domain: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def offline(problem, domain, config, N, fit_opts=None):
    """Run the offline phase and return an OfflineModel."""
    if config.q < 2:
        raise ValueError("parametric fitting needs at least 2 parameter samples")
    opts = dict(fit_opts or {})
    rank_tol = opts.pop("rank_tol", 1e-10)
    tol = opts.pop("tol", 1e-12)
    max_z_nodes = opts.pop("max_z_nodes", None)
    max_p_nodes = opts.pop("max_p_nodes", None)
    if opts:
        raise ValueError(f"unknown fit options: {sorted(opts)}")

    rule = build_trapezoid_rule(domain, N)
    samples = probe_samples(problem, rule, config, domain)
    rank_info = {}
    m = consistency_rank_check(samples, config, rank_tol, info=rank_info)

    # scalar data l^T H(s_i, p_j) r with l, r the direction means
    D = (config.left_dirs.mean(axis=0) @ samples.H
         @ config.right_dirs.mean(axis=0))  # (2r, q)
    if max_z_nodes is None:
        # the pole part is rational of degree exactly m in z, so m+1 nodes
        # suffice; extra z-nodes fit quadrature noise with spurious poles
        max_z_nodes = m + 1
    greedy = paaa_fit(
        D, config.sample_points, config.parameter_points,
        tol=tol, max_z_nodes=max_z_nodes, max_p_nodes=max_p_nodes,
        min_z_nodes=m + 1,
    )
    stack = np.concatenate([D[:, :, None], _lift_sketches(samples)], axis=2)
    scalar_model = refit_coefficients(
        greedy, stack, config.sample_points, config.parameter_points, tol=tol,
    )
    b, c = tangential_samples(config, samples.H)  # (r, q, n) each
    rows, cols = _select_directions(config, m, b, c, rank_info["bases"],
                                    rank_tol)
    b, c = b[rows], c[cols]
    kept = replace(config, sample_points=np.column_stack(
        [config.left_points[rows], config.right_points[cols]]).ravel(),
        left_dirs=config.left_dirs[rows], right_dirs=config.right_dirs[cols])
    pj = node_indices(scalar_model.p_nodes, config.parameter_points)
    gap = rank_info["rank_gap"]
    metadata = {
        "problem_name": getattr(problem, "name", "custom"),
        "N": N,
        "rank_tol": rank_tol,
        "fit_tol": tol,
        "z_degree": len(scalar_model.z_nodes) - 1,
        "p_degree": len(scalar_model.p_nodes) - 1,
        "max_fit_error": scalar_model.max_error,
        "rank_gap": gap if np.isfinite(gap) else None,
        "r_probed": config.r,
        "r_online": kept.r,
    }
    model = OfflineModel(
        domain=domain, config=kept, m=m, scalar_model=scalar_model,
        left_vals=b[:, pj], right_vals=c[:, pj], metadata=metadata,
    )
    # converged describes what online reads, not the refit stack
    error = _tangential_error(model, np.concatenate([b, c]))
    metadata["tangential_error"] = error
    metadata["converged"] = error <= tol
    if not metadata["converged"]:
        warnings.warn(
            "barycentric fit did not reach tolerance "
            f"{tol:g} (tangential error {error:.2e})",
            stacklevel=2,
        )
    return model


def _select_directions(config, m, b, c, bases, rank_tol):
    """Ascending indices of the left and right directions online keeps:
    the first r' pivots of column-pivoted QRs of the stacked singular
    vectors [X_1 ... X_q]^T and [V_1 ... V_q]^H of the L(p_j), a CUR
    selection (Sorensen & Embree, SISC 2016), or all r.  r' starts at
    2m + 8 and doubles, below r / 2, until the kept pencil gives at every
    p_j the m eigenvalues of the full one, which with L = X diag(s) V^H and
    Ls = L Sigma + B R^T projects to (diag(s) V^H Sigma V + X^H B R^T V,
    diag(s))."""
    r, k = config.r, 2 * m + 8
    every = np.arange(r)
    if m == 0 or 2 * k >= r:
        return every, every
    theta, sigma = config.left_points, config.right_points
    Ld, Rd = config.left_dirs, config.right_dirs
    reference = [np.linalg.eigvals(
        (Vh * sigma) @ Vh.conj().T
        + (X.conj().T @ b[:, j]) @ (Rd.T @ Vh.conj().T) / s[:, None])
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


def _tangential_error(model, want):
    """Max over directions k and parameter samples p_j, both sides, of
    ||F_k(p_j) - b_k(p_j)|| / ||b_k(p_j)||, where F_k is what online reads
    (eval_collapsed) and want the (2r, q, n) tangential samples, left rows
    then right columns."""
    worst = 0.0
    for j, p in enumerate(model.config.parameter_points):
        err = (np.linalg.norm(eval_collapsed(model.collapsed, p) - want[:, j],
                              axis=1)
               / np.linalg.norm(want[:, j], axis=1))
        worst = max(worst, float(np.max(err)))
    return worst


def _lift_sketches(samples):
    """Grid values (2r, q, 2 * _LIFT_SKETCHES) of random combinations of the
    left samples and of the right samples, each over all directions and
    vector components.  The weights come from a child stream of config.seed,
    independent of the stream that drew the probing directions.

    A combination sum_k g_k^T (l_k^T H) of left rows is H contracted with
    the n-by-n matrix sum_k l_k g_k^T; of right columns, with
    sum_k g_k r_k^T."""
    config = samples.config
    rng = np.random.default_rng(
        np.random.SeedSequence(config.seed).spawn(1)[0])
    shape = (_LIFT_SKETCHES,) + config.left_dirs.shape
    g_left, g_right = (rng.standard_normal(shape)
                       + 1j * rng.standard_normal(shape) for _ in range(2))
    M = np.concatenate([np.einsum("ka,skb->sab", config.left_dirs, g_left),
                        np.einsum("ska,kb->sab", g_right, config.right_dirs)])
    return np.tensordot(samples.H, M, axes=([2, 3], [1, 2]))


def online(model, p_hat, rank_tol=None):
    """Extract eigenvalues and eigenvectors at an arbitrary parameter."""
    p_hat = complex(p_hat)
    if not np.isfinite(p_hat):
        raise ValueError(f"parameter p = {p_hat} is not finite")
    if rank_tol is None:
        rank_tol = model.metadata.get("rank_tol", 1e-10)
    _warn_if_extrapolating(model, p_hat)
    config = model.config
    vals, min_denominator = eval_collapsed(model.collapsed, p_hat,
                                           return_min_denominator=True)
    data = TangentialData(
        theta=config.left_points, sigma=config.right_points,
        left_dirs=config.left_dirs, right_dirs=config.right_dirs,
        left_vals=vals[:config.r], right_vals=vals[config.r:],
    )
    realization = realize(data, rank_tol, order=model.m)
    flags = filter_in_domain(realization, model.domain)
    diagnostics = dict(realization.diagnostics)
    diagnostics["singular_values"] = realization.singular_values
    diagnostics["min_denominator"] = min_denominator
    return EigenSolution(
        p_hat=p_hat,
        eigenvalues=realization.eigenvalues,
        V=realization.V,
        W=realization.W,
        in_domain=flags,
        diagnostics=diagnostics,
    )


def residuals(problem, solution):
    """Per-eigenpair relative residuals ||T(lam_j, p) v_j|| / ||v_j||."""
    if len(solution.eigenvalues) == 0:
        raise ValueError("solution has no eigenpairs")
    out = []
    for j, lam in enumerate(solution.eigenvalues):
        v = solution.V[:, j]
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError(f"eigenvector {j} is zero")
        T = problem.eval(lam, solution.p_hat)
        out.append(float(np.linalg.norm(T @ v) / nv))
    return out


def scalar_probe_eigenvalues(model, p_hat):
    """Eigenvalues-only shortcut: poles in z of the scalar surrogate at p_hat.

    Fixing the parameter collapses the bivariate barycentric form to a 1-D
    barycentric function with effective weights beta_i = sum_j a_ij/(p-pi_j);
    its poles are the finite generalized eigenvalues of the arrowhead pencil.
    Poles whose residue is negligible against the scale of the node values
    are cancelled by a numerator zero (Froissart doublets) and are dropped;
    the arrowhead pencil returns such poles, e.g. when an eigenvalue is
    semi-simple and the scalar has fewer distinct poles than z-nodes - 1.
    Eigenvalue multiplicity is not visible along this path.
    """
    scalar = model.scalar_model if isinstance(model, OfflineModel) else model
    cp = _cauchy(complex(p_hat), scalar.p_nodes)[0][0]
    beta = scalar.coeffs @ cp
    gamma = (scalar.coeffs * scalar.node_values) @ cp
    if np.max(np.abs(beta)) == 0.0:
        raise EvaluationError("all effective barycentric weights vanish")
    k = len(scalar.z_nodes)
    A = np.zeros((k + 1, k + 1), dtype=complex)
    A[0, 1:] = beta
    A[1:, 0] = 1.0
    A[1:, 1:] = np.diag(scalar.z_nodes)
    B = np.eye(k + 1, dtype=complex)
    B[0, 0] = 0.0
    vals = scipy.linalg.eigvals(A, B)
    vals = vals[np.isfinite(vals)]
    # |residue| = |n(z)/d'(z)| for n(z) = sum gamma_i/(z - xi_i) and
    # d(z) = sum beta_i/(z - xi_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1.0 / (vals[:, None] - scalar.z_nodes[None, :])
        res = (C @ gamma) / (C ** 2 @ beta)
    negligible = np.abs(res) <= _RESIDUE_TOL * np.max(np.abs(scalar.node_values))
    vals = vals[~negligible]
    return vals[eigenvalue_order(vals)]


def _warn_if_extrapolating(model, p_hat):
    p = model.config.parameter_points
    lo, hi = p.real.min(), p.real.max()
    span = max(hi - lo, 1e-12)
    outside = (
        p_hat.real < lo - 0.5 * span
        or p_hat.real > hi + 0.5 * span
        or abs(p_hat.imag - p.imag.mean()) > 0.5 * span
    )
    if outside:
        warnings.warn(
            f"parameter {p_hat} is far outside the sampled range "
            f"[{lo:g}, {hi:g}]; extrapolation may be inaccurate",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# model persistence (JSON, complex numbers as [re, im] pairs)

def save_model(model, path):
    """Write the offline model to a JSON text file (atomic replace)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "problem_name": model.metadata.get("problem_name", "custom"),
        "domain": _domain_to_doc(model.domain),
        "sampling": {
            "sample_points": _c2l(model.config.sample_points),
            "parameter_points": _c2l(model.config.parameter_points),
            "left_dirs": _c2l(model.config.left_dirs),
            "right_dirs": _c2l(model.config.right_dirs),
            "seed": model.config.seed,
        },
        "m": model.m,
        "scalar_nodes": {
            "z": _c2l(model.scalar_model.z_nodes),
            "p": _c2l(model.scalar_model.p_nodes),
        },
        "alpha": _c2l(model.scalar_model.coeffs),
        "scalar_values": _c2l(model.scalar_model.node_values),
        "scalar_fit": {
            "converged": model.scalar_model.converged,
            "max_error": model.scalar_model.max_error,
            "error_history": list(model.scalar_model.error_history),
        },
        "left_vals": _c2l(model.left_vals),
        "right_vals": _c2l(model.right_vals),
        "metadata": model.metadata,
    }
    write_atomic(path, json.dumps(doc))


def write_atomic(path, text):
    """Write text to path through a fresh temporary file in the same
    directory, then replace path with it.

    Raises OSError, before writing anything, when path exists and is not a
    regular file (a directory, a FIFO, a device such as /dev/null).  The
    temporary file is created with mode 0o666, so the kernel applies the
    umask, and the file gets the permissions that open() would give it.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"refusing to replace {path!r}: not a regular file")
    directory = os.path.dirname(os.path.abspath(path))
    # a fresh random name; O_EXCL refuses to open a file that exists
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path):
    """Read an offline model written by save_model."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"malformed model file {path!r}: {exc}") from exc
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            # version 1 stored lifts, not the exact samples at the p-nodes
            raise ModelFormatError(
                f"unsupported model format version {version!r}; rebuild "
                f"the model with this offline (format {FORMAT_VERSION})")
        domain = _domain_from_doc(doc["domain"])
        sampling = doc["sampling"]
        config = SamplingConfig(
            sample_points=_l2c(sampling["sample_points"]),
            parameter_points=_l2c(sampling["parameter_points"]),
            left_dirs=_l2c(sampling["left_dirs"]),
            right_dirs=_l2c(sampling["right_dirs"]),
            seed=sampling["seed"],
        )
        fit = doc.get("scalar_fit", {})
        scalar_model = BarycentricModel2D(
            z_nodes=_l2c(doc["scalar_nodes"]["z"]),
            p_nodes=_l2c(doc["scalar_nodes"]["p"]),
            coeffs=_l2c(doc["alpha"]),
            node_values=_l2c(doc["scalar_values"]),
            converged=fit.get("converged", True),
            max_error=fit.get("max_error", 0.0),
            error_history=tuple(fit.get("error_history", ())),
        )
        return OfflineModel(
            domain=domain, config=config, m=doc["m"],
            scalar_model=scalar_model,
            left_vals=_l2c(doc["left_vals"]),
            right_vals=_l2c(doc["right_vals"]),
            metadata=doc["metadata"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ModelFormatError(f"malformed model file {path!r}: {exc}") from exc


def _domain_to_doc(domain):
    if isinstance(domain, Disk):
        return {"type": "disk",
                "center": [domain.center.real, domain.center.imag],
                "radius": domain.radius}
    if isinstance(domain, Ellipse):
        return {"type": "ellipse",
                "center": [domain.center.real, domain.center.imag],
                "semi_real": domain.semi_real,
                "semi_imag": domain.semi_imag}
    raise TypeError(f"unsupported domain type: {type(domain)!r}")


def _domain_from_doc(doc):
    center = complex(doc["center"][0], doc["center"][1])
    if doc["type"] == "disk":
        return Disk(center, doc["radius"])
    if doc["type"] == "ellipse":
        return Ellipse(center, doc["semi_real"], doc["semi_imag"])
    raise ModelFormatError(f"unknown domain type {doc['type']!r}")


def _c2l(a):
    """Complex ndarray -> nested lists of [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _l2c(lst):
    a = np.asarray(lst, dtype=float)
    if a.shape[-1] != 2:
        raise ModelFormatError("complex entries must be [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]
