"""Offline/online solver for parametric nonlinear eigenvalue problems.

The offline phase runs one stage per module.  contour samples the pole part
H by contour quadrature, N dense n-by-n inverses of T per parameter, and
contracts it, one parameter at a time, into all that offline reads: the
tangential data b_k(p) = l_k^T H(theta_k, p) and c_k(p) = H(sigma_k, p) r_k,
and the refit stack, the scalar l^T H r (with l, r the means of the probing
directions) followed by a few random combinations of the left and right
samples; H itself is never held.  From b and c, loewner's rank consistency
check fixes the eigenvalue count m.  paaa fits one set of bivariate
barycentric nodes and coefficients that every surrogate shares.  The nodes
are picked greedily on the scalar, m + 1 of them in z; the coefficients are
then re-solved against the whole refit stack, so that they fit the
tangential data too.  Of the r directions per side, the model keeps the
r' <= r that loewner.select_directions picks from the rank check's singular
vectors, and stores their b_k and c_k at the p-nodes exactly: theta_k,
sigma_k and the p-nodes are all sample points.  Its one convergence verdict,
metadata["converged"], compares what online reads with b and c.

Online needs b_k and c_k only at these fixed theta_k and sigma_k.  The
fitted weights are summed out there once, when a model is built or loaded,
into one p-only barycentric tensor over the 2r' kept directions that
interpolates the stored samples, so an answer at any complex parameter p
costs one contraction over the p-nodes, the Loewner assembly and its rank
truncation: O(r'^2 m + r' m_p n), independent of the quadrature size.
"""

import base64
import json
import math
import os
import secrets
import warnings
from dataclasses import dataclass, field

import numpy as np

from .contour import (Disk, Ellipse, SamplingConfig, build_trapezoid_rule,
                      probe_samples)
from .errors import EvaluationError, ModelFormatError
from .loewner import (RANK_TOL, consistency_rank_check, eigenvalue_order,
                      realize, select_directions)
from .paaa import (_DENOM_FLOOR, FIT_TOL, BarycentricModel2D, _cauchy,
                   collapse_lifts, eval_collapsed, node_indices, paaa_fit,
                   refit_coefficients)
# pnlbench/spans.py wraps these two under these names
from .paaa import eval_model, lift_vector  # noqa: F401

FORMAT_VERSION = 3

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
    # min and max real part, mean imaginary part of the parameter points,
    # for the extrapolation warning; derived, not stored
    p_window: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if np.shape(self.left_vals) != np.shape(self.right_vals):
            raise ValueError("left_vals and right_vals differ in shape")
        config = self.config
        n, dim = np.shape(self.left_vals)[-1], config.left_dirs.shape[1]
        if n != dim:
            raise ValueError(f"sample vectors of length {n} do not fit "
                             f"probing directions of length {dim}")
        object.__setattr__(self, "collapsed", collapse_lifts(
            self.scalar_model,
            np.concatenate([config.left_points, config.right_points]),
            np.concatenate([self.left_vals, self.right_vals])))
        p = config.parameter_points
        object.__setattr__(self, "p_window",
                           (p.real.min(), p.real.max(), p.imag.mean()))


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
    # q >= 3 leaves a parameter sample off the p-nodes for the verdict, and
    # r >= 2 leaves a sample point off the m + 1 <= r + 1 z-nodes
    if config.q < 3 or config.r < 2:
        raise ValueError(f"offline needs q >= 3 parameter samples and r >= 2 "
                         f"directions, got q = {config.q}, r = {config.r}")
    opts = dict(fit_opts or {})
    tol = opts.pop("tol", FIT_TOL)
    if opts:
        raise ValueError(f"unknown fit options: {sorted(opts)}")
    if not 0 <= tol < np.inf:
        raise ValueError(f"fit tol must be a finite number >= 0, got {tol!r}")

    rule = build_trapezoid_rule(domain, N)
    samples = probe_samples(problem, rule, config, domain)
    b, c = samples.left, samples.right  # (r, q, n) each
    if not np.any(samples.stack[:, :, 0]):
        # the greedy would pick its nodes on nothing: a model constant in p
        raise ValueError("the probed scalar (mean left direction)^T H (mean "
                         "right direction) is 0 at every sample: the probing "
                         "directions of one side sum to zero or H annihilates "
                         "their mean; draw other directions")
    m, gap, bases = consistency_rank_check(config, b, c)

    if m == config.r:
        warnings.warn(f"the Loewner rank fills all r = {m} probing "
                      "directions: the domain may hold more than r "
                      "eigenvalues: raise r, or N if the quadrature is "
                      "too coarse", stacklevel=2)
    # the pole part is rational of degree exactly m in z, so m+1 nodes
    # suffice; extra z-nodes fit quadrature noise with spurious poles.  The
    # nodes are chosen on the scalar, column 0 of the refit stack
    greedy = paaa_fit(samples.stack[:, :, 0], config.sample_points,
                      config.parameter_points, m + 1, tol=tol)
    scalar_model = refit_coefficients(
        greedy, samples.stack, config.sample_points, config.parameter_points)
    rows, cols = select_directions(config, m, b, c, bases)
    b, c = b[rows], c[cols]
    kept = config.subset(rows, cols)
    pj = node_indices(scalar_model.p_nodes, config.parameter_points)
    metadata = {
        "problem_name": getattr(problem, "name", "custom"),
        "N": N,
        "rank_tol": RANK_TOL,
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


def _tangential_error(model, want):
    """Max over directions k and parameter samples p_j, both sides, of
    ||F_k(p_j) - b_k(p_j)|| / ||b_k(p_j)||, where F_k is what online reads
    (the p-only forms of eval_collapsed, at all p_j with one Cauchy matrix)
    and want the (2r, q, n) tangential samples, left rows then right
    columns.  A denominator below the floor of eval_collapsed raises its
    EvaluationError."""
    collapsed = model.collapsed
    p = model.config.parameter_points
    cp = _cauchy(p, collapsed.p_nodes)[0]  # (q, mp)
    den = collapsed.denom @ cp.T           # (2r, q)
    smallest = np.abs(den).min(axis=0)
    if np.min(smallest) < _DENOM_FLOOR:
        raise EvaluationError(
            f"barycentric denominator underflow at p={p[np.argmin(smallest)]}"
            "; the evaluation point hits a spurious pole")
    err = (np.linalg.norm(cp @ collapsed.numer / den[:, :, None] - want,
                          axis=2)
           / np.linalg.norm(want, axis=2))
    return float(np.max(err))


def online(model, p_hat):
    """Extract eigenvalues and eigenvectors at an arbitrary parameter,
    truncated at the rank that loewner.RANK_TOL counts, at most model.m."""
    p_hat = _checked_parameter(p_hat)
    _warn_if_extrapolating(model, p_hat)
    vals, min_denominator = eval_collapsed(model.collapsed, p_hat)
    r = model.config.r
    eigenvalues, V, W, diagnostics = realize(
        model.config, vals[:r], vals[r:], model.m)
    diagnostics["min_denominator"] = min_denominator
    return EigenSolution(
        p_hat=p_hat, eigenvalues=eigenvalues, V=V, W=W,
        in_domain=model.domain.contains(eigenvalues),
        diagnostics=diagnostics,
    )


def _checked_parameter(p_hat):
    """p_hat as a complex number, unless it is not finite: then ValueError."""
    p_hat = complex(p_hat)
    if not np.isfinite(p_hat):
        raise ValueError(f"parameter p = {p_hat} is not finite")
    return p_hat


def residuals(problem, solution):
    """Per-eigenpair relative residuals ||T(lam_j, p) v_j|| / ||v_j||, as a
    list of floats: the one-answer case of stacked_residuals.

    Raises ValueError for a solution without eigenpairs, and whatever
    stacked_residuals raises.
    """
    if len(solution.eigenvalues) == 0:
        raise ValueError("solution has no eigenpairs")
    return stacked_residuals(problem, [solution]).tolist()


def stacked_residuals(problem, solutions):
    """The relative residuals of all eigenpairs of all solutions, in order,
    as one array.

    T is asked for once, at every eigenvalue with its own answer's
    parameter, through problem.eval_nodes, multiplied by the eigenvectors
    as one stack and normed once.  Raises ValueError for a zero
    eigenvector, and whatever eval_nodes raises, e.g. BranchCutError for an
    eigenvalue on a cut.
    """
    lams = np.concatenate([sol.eigenvalues for sol in solutions])
    p = np.repeat([sol.p_hat for sol in solutions],
                  [len(sol.eigenvalues) for sol in solutions])
    V = np.concatenate([sol.V for sol in solutions], axis=1)
    nv = np.linalg.norm(V, axis=0)
    if np.any(nv == 0.0):
        j = np.argmax(nv == 0.0)
        raise ValueError(
            f"the eigenvector of eigenvalue {lams[j]} at p = {p[j]} is zero")
    T = problem.eval_nodes(lams, p)
    TV = (T @ V.T[:, :, None])[:, :, 0]  # row j is T(lam_j, p_j) v_j
    return np.linalg.norm(TV, axis=1) / nv


def scalar_probe_eigenvalues(model, p_hat):
    """Eigenvalues-only shortcut: poles in z of the OfflineModel's scalar
    surrogate at p_hat.

    Fixing the parameter collapses the bivariate barycentric form to a 1-D
    barycentric function with effective weights beta_i = sum_j a_ij/(p-pi_j);
    its poles are the zeros of d(z) = sum_i beta_i / (z - xi_i) over the
    z-nodes xi_i, from one standard eig (_barycentric_zeros).  Poles whose
    residue is negligible against the scale of the node values are
    cancelled by a numerator zero (Froissart doublets) and are dropped; d
    has such zeros, e.g. when an eigenvalue is semi-simple and the scalar
    has fewer distinct poles than z-nodes - 1.
    Eigenvalue multiplicity is not visible along this path.  A non-finite
    p_hat raises ValueError, as in online.
    """
    p_hat = _checked_parameter(p_hat)
    scalar = model.scalar_model
    cp = _cauchy(p_hat, scalar.p_nodes)[0][0]
    beta = scalar.coeffs @ cp
    gamma = (scalar.coeffs * scalar.node_values) @ cp
    if np.max(np.abs(beta)) == 0.0:
        raise EvaluationError("all effective barycentric weights vanish")
    vals = _barycentric_zeros(beta, scalar.z_nodes)
    # |residue| = |n(z)/d'(z)| for n(z) = sum gamma_i/(z - xi_i) and
    # d(z) = sum beta_i/(z - xi_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        C = 1.0 / (vals[:, None] - scalar.z_nodes[None, :])
        res = (C @ gamma) / (C ** 2 @ beta)
    negligible = np.abs(res) <= _RESIDUE_TOL * np.max(np.abs(scalar.node_values))
    vals = vals[~negligible]
    return vals[eigenvalue_order(vals)]


def _barycentric_zeros(w, xi):
    """Zeros of d(z) = sum_i w_i / (z - xi_i) over distinct nodes xi_i and
    weights w_i, not all 0, as the eigenvalues of one standard matrix.

    For the node j of the largest |w_j|,

        (z - xi_j) d(z) = sum(w) + sum_{i != j} w_i (xi_i - xi_j) / (z - xi_i),

    and for sum(w) != 0 the zeros of the right side are the eigenvalues of
    diag(xi) - 1 w'^T / sum(w) over the other nodes, w'_i = w_i (xi_i - xi_j):
    this is P diag(xi - mu) + mu with the projector P = I - 1 w^T / sum(w)
    and the shift mu = xi_j, whose eigenvalue mu is deflated exactly.
    Where the weights sum to 0 (to rounding) one zero of d lies at infinity,
    and the others are the zeros of sum_{i != j} w'_i / (z - xi_i).
    """
    eps = np.finfo(float).eps
    while len(xi) > 1:
        j = np.argmax(np.abs(w))
        rest = np.arange(len(xi)) != j
        total, scale = w.sum(), np.abs(w).sum()
        w, xi = w[rest] * (xi[rest] - xi[j]), xi[rest]
        if abs(total) > len(w) * eps * scale:
            A = np.outer(np.full(len(w), -1 / total), w)
            A[np.diag_indices_from(A)] += xi
            return np.linalg.eigvals(A)
    return np.empty(0, dtype=complex)


def _warn_if_extrapolating(model, p_hat):
    lo, hi, mid = model.p_window
    span = max(hi - lo, 1e-12)
    outside = (
        p_hat.real < lo - 0.5 * span
        or p_hat.real > hi + 0.5 * span
        or abs(p_hat.imag - mid) > 0.5 * span
    )
    if outside:
        warnings.warn(
            f"parameter {p_hat} is far outside the sampled range "
            f"[{lo:g}, {hi:g}]; extrapolation may be inaccurate",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# model persistence (JSON, arrays as base64 of their complex128 bytes)

def save_model(model, path):
    """Write the offline model to a JSON text file (atomic replace).

    The file is one JSON document of format version FORMAT_VERSION.  Each
    array is stored as {"shape": [...], "c16": ...}, the base64 of its
    little-endian complex128 bytes in C order, so a model loads bit for
    bit.  The domain, the sampling seed, m, the fit's error history and
    metadata stay plain JSON.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "domain": _domain_to_doc(model.domain),
        "sampling": {
            "sample_points": _array_to_doc(model.config.sample_points),
            "parameter_points": _array_to_doc(model.config.parameter_points),
            "left_dirs": _array_to_doc(model.config.left_dirs),
            "right_dirs": _array_to_doc(model.config.right_dirs),
            "seed": model.config.seed,
        },
        "m": model.m,
        "scalar_nodes": {
            "z": _array_to_doc(model.scalar_model.z_nodes),
            "p": _array_to_doc(model.scalar_model.p_nodes),
        },
        "alpha": _array_to_doc(model.scalar_model.coeffs),
        "scalar_values": _array_to_doc(model.scalar_model.node_values),
        "scalar_fit": {
            "error_history": list(model.scalar_model.error_history),
        },
        "left_vals": _array_to_doc(model.left_vals),
        "right_vals": _array_to_doc(model.right_vals),
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
    """Read an offline model written by save_model.

    Raises ModelFormatError for a file that is not such a model: a file of
    another format version (versions 1 and 2 must be rebuilt), a blob that
    is not base64 or does not hold 16 bytes per entry of its shape, a
    non-finite entry, or arrays whose shapes do not fit the node grid and
    the probing directions.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"malformed model file {path!r}: {exc}") from exc
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            # version 1 stored lifts, not the exact samples at the p-nodes;
            # version 2 stored the same arrays as [re, im] decimal pairs
            raise ModelFormatError(
                f"unsupported model format version {version!r}; rebuild "
                f"the model with this offline (format {FORMAT_VERSION})")
        domain = _domain_from_doc(doc["domain"])
        sampling = doc["sampling"]
        seed = sampling["seed"]
        if type(seed) is not int or seed < 0:
            raise ModelFormatError(f"sampling seed {seed!r} is not an int >= 0")
        config = SamplingConfig(
            sample_points=_array_from_doc(sampling["sample_points"]),
            parameter_points=_array_from_doc(sampling["parameter_points"]),
            left_dirs=_array_from_doc(sampling["left_dirs"]),
            right_dirs=_array_from_doc(sampling["right_dirs"]),
            seed=seed,
        )
        m, metadata = doc["m"], doc["metadata"]
        if type(m) is not int or not 0 <= m <= config.r:
            raise ModelFormatError(
                f"model order m = {m!r} is not an integer in [0, {config.r}]")
        if not isinstance(metadata, dict):
            raise ModelFormatError("model metadata must be a JSON object")
        # metadata holds each fact once: a top-level problem_name and the
        # scalar_fit keys converged and max_error are not read
        fit = doc.get("scalar_fit", {})
        if not isinstance(fit, dict):
            raise ModelFormatError("scalar_fit must be a JSON object")
        scalar_model = BarycentricModel2D(
            z_nodes=_array_from_doc(doc["scalar_nodes"]["z"]),
            p_nodes=_array_from_doc(doc["scalar_nodes"]["p"]),
            coeffs=_array_from_doc(doc["alpha"]),
            node_values=_array_from_doc(doc["scalar_values"]),
            max_error=metadata.get("max_fit_error", 0.0),
            error_history=tuple(fit.get("error_history", ())),
        )
        return OfflineModel(
            domain=domain, config=config, m=m,
            scalar_model=scalar_model,
            left_vals=_array_from_doc(doc["left_vals"]),
            right_vals=_array_from_doc(doc["right_vals"]),
            metadata=metadata,
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file {path!r}: {exc}") from exc


def _domain_to_doc(domain):
    """A round ellipse is written as a disk."""
    center = [domain.center.real, domain.center.imag]
    if domain.semi_real == domain.semi_imag:
        return {"type": "disk", "center": center, "radius": domain.semi_real}
    return {"type": "ellipse", "center": center,
            "semi_real": domain.semi_real, "semi_imag": domain.semi_imag}


def _domain_from_doc(doc):
    center = complex(doc["center"][0], doc["center"][1])
    if doc["type"] == "disk":
        return Disk(center, doc["radius"])
    if doc["type"] == "ellipse":
        return Ellipse(center, doc["semi_real"], doc["semi_imag"])
    raise ModelFormatError(f"unknown domain type {doc['type']!r}")


def _array_to_doc(a):
    """Complex ndarray -> {"shape": [...], "c16": base64 of its
    little-endian complex128 bytes}."""
    a = np.asarray(a, dtype="<c16")
    return {"shape": list(a.shape),
            "c16": base64.b64encode(a.tobytes()).decode("ascii")}


def _array_from_doc(doc):
    """The complex ndarray written by _array_to_doc, as an owned, writeable
    copy.  Raises ValueError for a shape that is not a list of ints >= 0 or
    a blob that is not base64 of 16 bytes per entry; ModelFormatError for a
    non-finite entry."""
    shape = doc["shape"]
    if (not isinstance(shape, list)
            or not all(type(k) is int and k >= 0 for k in shape)):
        raise ValueError(f"array shape {shape!r} is not a list of ints >= 0")
    raw = base64.b64decode(doc["c16"], validate=True)
    nbytes = 16 * math.prod(shape)
    if len(raw) != nbytes:
        raise ValueError(f"array of shape {tuple(shape)} needs {nbytes} "
                         f"bytes, got {len(raw)}")
    a = np.frombuffer(raw, dtype="<c16").reshape(shape).astype(complex)
    if not np.isfinite(a).all():
        raise ModelFormatError("model arrays must hold finite numbers")
    return a
