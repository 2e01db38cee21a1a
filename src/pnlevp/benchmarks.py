"""Pinned end-to-end benchmark experiments.

Each benchmark fixes a problem, target domain, sampling setup, and quadrature
size, runs the offline/online pipeline, sweeps the parameter range, and
checks quantitative targets (residual levels, eigenvalue accuracy against
analytic or Newton oracles, and qualitative spectral features such as
eigenvalue coalescence or the spectral-abscissa minimizer).
"""

import io
import os
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .contour import Disk, Ellipse, default_sampling
from .problems import get_problem
from .solver import (offline, online, residuals, stacked_residuals,
                     write_atomic)

# bytes of the T stack of one residual chunk of a sweep: large enough that
# the per-call cost of eval_nodes is spread over dozens of answers, small
# enough that a long sweep holds no stack of its own size
_RESIDUAL_STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class Benchmark:
    """One pinned experiment: its set-up, the gate on the max residual of
    its sweep, and check(bench, problem, model, sweep_data), which returns
    its other checks as (label, ok, detail) triples."""
    name: str
    problem_name: str
    domain: object
    p_range: tuple
    r: int
    q: int
    N: int
    residual_gate: float
    check: Callable
    sampling_domain: object = None
    seed: int = 0
    fit_opts: dict = field(default_factory=dict)
    n_test: ClassVar[int] = 200


@dataclass(frozen=True)
class BenchmarkResult:
    name: str
    passed: bool
    checks: list          # (label, ok, detail) triples
    model: object
    sweep: dict           # p, eigenvalues (n_test, m), max_residuals
    elapsed: float


def get_benchmark(name):
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; available: "
                         f"{', '.join(sorted(BENCHMARKS))}") from None


def build_offline(bench):
    """Run the offline phase of a benchmark; returns (problem, model)."""
    problem = get_problem(bench.problem_name)
    config = default_sampling(
        bench.domain, bench.r, bench.q, bench.p_range, bench.seed,
        problem.dim, sampling_domain=bench.sampling_domain,
    )
    model = offline(problem, bench.domain, config, bench.N,
                    fit_opts=dict(bench.fit_opts))
    return problem, model


def sweep(problem, model, p_values):
    """Online sweep: eigenvalue trajectories and max residual per parameter.

    Each parameter is answered by one online call.  Rows keep the solver's
    stable eigenvalue ordering so trajectory columns are plottable; missing
    eigenvalues (rank truncation) are padded with NaN, and a row without
    eigenvalues keeps a NaN residual.  The residuals are computed for a
    chunk of answers at a time, by one stacked_residuals call whose T stack
    holds about _RESIDUAL_STACK_BYTES, and each row takes the max of its
    own; with problem None there are none.
    """
    p_values = np.asarray(p_values, dtype=complex)
    m = model.m
    eigenvalues = np.full((len(p_values), m), np.nan + 0j, dtype=complex)
    max_res = np.full(len(p_values), np.nan)
    n = model.config.left_dirs.shape[1]
    chunk_points = max(1, _RESIDUAL_STACK_BYTES // (16 * n * n))
    # answers whose residuals are pending: their rows, solutions and the
    # offsets of their eigenvalues in the chunk's stack
    rows, chunk, starts, points = [], [], [], 0
    for k, p_hat in enumerate(p_values):
        sol = online(model, p_hat)
        lam = sol.eigenvalues[:m]
        eigenvalues[k, : len(lam)] = lam
        if len(sol.eigenvalues) and problem is not None:
            rows.append(k)
            chunk.append(sol)
            starts.append(points)
            points += len(sol.eigenvalues)
        if chunk and (points >= chunk_points or k == len(p_values) - 1):
            max_res[rows] = np.maximum.reduceat(
                stacked_residuals(problem, chunk), starts)
            rows, chunk, starts, points = [], [], [], 0
    return {"p": p_values, "eigenvalues": eigenvalues, "max_residuals": max_res}


def sweep_table(sweep_data):
    """Whitespace-delimited sweep table with a header comment line: p, the
    real and imaginary part of each eigenvalue, the max residual."""
    p = sweep_data["p"]
    lam = sweep_data["eigenvalues"]
    cols = [p.real]
    header = ["p"]
    for j in range(lam.shape[1]):
        cols.extend([lam[:, j].real, lam[:, j].imag])
        header.extend([f"Re(lam{j + 1})", f"Im(lam{j + 1})"])
    cols.append(sweep_data["max_residuals"])
    header.append("max_residual")
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(cols), fmt="%.17g",
               header=" ".join(header))
    return buf.getvalue()


def run_benchmark(name, out_dir=None):
    """Run one pinned experiment end-to-end and evaluate its checks."""
    bench = get_benchmark(name)
    t0 = time.perf_counter()
    problem, model = build_offline(bench)
    p_test = np.linspace(*bench.p_range, bench.n_test)
    sweep_data = sweep(problem, model, p_test)
    checks = ([_check_residuals(bench, sweep_data["max_residuals"])]
              + bench.check(bench, problem, model, sweep_data))
    elapsed = time.perf_counter() - t0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_atomic(os.path.join(out_dir, f"{name}-sweep.dat"),
                     sweep_table(sweep_data))
    return BenchmarkResult(
        name=name,
        passed=all(ok for _, ok, _ in checks),
        checks=checks,
        model=model,
        sweep=sweep_data,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# per-benchmark check functions


def _check_residuals(bench, max_residuals):
    label = (f"max residual over {bench.n_test} test parameters "
             f"<= {bench.residual_gate:g}")
    missing = int(np.count_nonzero(np.isnan(max_residuals)))
    if missing:
        return (label, False,
                f"no eigenpair at {missing} of {bench.n_test} test parameters")
    res = max_residuals.max()
    return label, res <= bench.residual_gate, f"max residual {res:.3e}"


def _check_linear_1(bench, problem, model, sweep_data):
    # analytic eigenvalues +-sqrt(1-p), checked away from the defective p=1
    p = sweep_data["p"].real
    lam = sweep_data["eigenvalues"]
    err = max(_match_error(lam[k],
                           problem.true_eigenvalues(p[k], bench.domain))
              for k in np.flatnonzero(np.abs(p - 1.0) >= 0.01))
    checks = [("eigenvalues match +-sqrt(1-p) to 1e-8 away from p=1",
               err <= 1e-8, f"max eigenvalue error {err:.3e}")]
    sol = online(model, 1.0)
    label = "residual at the defective parameter p=1 <= 1e-8"
    if len(sol.eigenvalues) == 0:
        return checks + [(label, False, "no eigenpair at p=1")]
    res1 = max(residuals(problem, sol))
    return checks + [(label, res1 <= 1e-8, f"residual {res1:.3e}")]


def _check_linear_2(bench, problem, model, sweep_data):
    p = sweep_data["p"].real
    lam = sweep_data["eigenvalues"]
    err = max(_match_error(lam[k],
                           problem.true_eigenvalues(p[k], bench.domain))
              for k in range(len(p)))
    return [("eigenvalue matches +sqrt(1-p) branch to 1e-6",
             err <= 1e-6, f"max eigenvalue error {err:.3e}")]


def _check_delay(bench, problem, model, sweep_data):
    checks = []
    checks.append(("rank consistency check yields m=4",
                   model.m == 4, f"m = {model.m}"))
    dz = len(model.scalar_model.z_nodes) - 1
    dp = len(model.scalar_model.p_nodes) - 1
    checks.append(("fitted degrees are 4 in z and 5 in p",
                   (dz, dp) == (4, 5), f"degrees ({dz}, {dp})"))
    for p_hat in (30.0, 35.0):
        sol = online(model, p_hat)
        truth = problem.true_eigenvalues(p_hat, bench.domain)
        err = _match_error(sol.eigenvalues, truth)
        ok = len(sol.eigenvalues) == 4 and err <= 1e-6
        checks.append((f"p={p_hat:g}: four eigenvalues match Newton oracle to 1e-6",
                       ok, f"{len(sol.eigenvalues)} eigenvalues, error {err:.3e}"))
    # the oracle on the domain scaled by 2 holds more roots than the model's
    # four at p = 20 and 50, so these match one way only
    sol = online(model, 20.0)
    truth = problem.true_eigenvalues(20.0, bench.domain, margin=2.0)
    err = _match_error(sol.eigenvalues, truth, both_ways=False)
    outside = int(np.count_nonzero(~sol.in_domain))
    ok = len(sol.eigenvalues) == 4 and outside == 2 and err <= 1e-4
    checks.append(("p=20 (extrapolation): 4 eigenvalues, 2 outside domain, "
                   "oracle error <= 1e-4",
                   ok, f"{len(sol.eigenvalues)} eigenvalues, {outside} outside, "
                       f"error {err:.3e}"))
    sol = online(model, 50.0)
    truth = problem.true_eigenvalues(50.0, bench.domain, margin=2.0)
    err = _match_error(sol.eigenvalues, truth, both_ways=False)
    ok = len(sol.eigenvalues) == 4 and err <= 1e-4
    checks.append(("p=50 (extrapolation): 4 eigenvalues, oracle error <= 1e-4",
                   ok, f"{len(sol.eigenvalues)} eigenvalues, error {err:.3e}"))
    return checks


def _check_damped_string_1(bench, problem, model, sweep_data):
    # coalescence: minimum pairwise eigenvalue gap dips inside [3.6, 3.8]
    p = sweep_data["p"].real
    gaps = np.array([_min_pairwise_gap(row)
                     for row in sweep_data["eigenvalues"]])
    label = "minimum pairwise eigenvalue gap occurs in [3.6, 3.8]"
    if np.isnan(gaps).all():
        return [(label, False, "no test parameter has two eigenvalues")]
    k = np.nanargmin(gaps)
    p_min = float(p[k])
    return [(label, 3.6 <= p_min <= 3.8,
             f"gap minimized at p = {p_min:.4f} (gap {gaps[k]:.3e})")]


def _check_damped_string_2(bench, problem, model, sweep_data):
    p = sweep_data["p"].real
    # fmax skips the NaN padding; a row without eigenvalues stays NaN
    abscissa = np.fmax.reduce(sweep_data["eigenvalues"].real, axis=1)
    label = "spectral abscissa minimized within [4.6, 4.8]"
    if np.isnan(abscissa).all():
        return [(label, False, "no test parameter has eigenvalues")]
    k = np.nanargmin(abscissa)
    p_min = float(p[k])
    return [(label, 4.6 <= p_min <= 4.8,
             f"minimizer p = {p_min:.4f} (abscissa {abscissa[k]:.6f})")]


BENCHMARKS = {b.name: b for b in (
    Benchmark(
        name="linear-1",
        problem_name="linear-demo",
        domain=Disk(0.0, 0.6),
        p_range=(0.75, 1.25),
        r=20, q=40, N=512,
        residual_gate=1e-10, check=_check_linear_1,
    ),
    Benchmark(
        name="linear-2",
        problem_name="linear-demo",
        domain=Disk(0.5j, 0.25),
        p_range=(1.25, 1.5),
        r=20, q=40, N=512,
        residual_gate=1e-7, check=_check_linear_2,
    ),
    Benchmark(
        name="delay",
        problem_name="delay",
        domain=Disk(0.0, 0.075),
        p_range=(30.0, 35.0),
        r=20, q=40, N=128,
        residual_gate=1e-10, check=_check_delay,
        fit_opts={"tol": 1e-11},
    ),
    Benchmark(
        name="damped-string-1",
        problem_name="damped-string",
        domain=Ellipse(-3.0, 2.5, 10.0),
        p_range=(3.0, 4.0),
        r=250, q=25, N=1000,
        residual_gate=3e-10, check=_check_damped_string_1,
        sampling_domain=Ellipse(-3.0, 3.0, 11.0),
        fit_opts={"tol": 1e-11},
    ),
    Benchmark(
        name="damped-string-2",
        problem_name="damped-string",
        domain=Ellipse(-2.0, 1.75, 15.0),
        p_range=(4.0, 5.0),
        r=250, q=25, N=2000,
        residual_gate=3e-8, check=_check_damped_string_2,
        sampling_domain=Ellipse(-2.0, 2.0, 16.0),
        fit_opts={"tol": 1e-11},
    ),
)}


def _match_error(computed, truth, both_ways=True):
    """Max over the finite computed eigenvalues of the distance to the
    nearest oracle eigenvalue and, if both_ways, over the oracle eigenvalues
    of the distance to the nearest computed one (inf when either set is
    empty, or if both_ways when their counts differ)."""
    computed = np.asarray(computed)
    truth = np.asarray(truth)
    computed = computed[np.isfinite(computed)]
    if (len(computed) == 0 or len(truth) == 0
            or both_ways and len(computed) != len(truth)):
        return np.inf
    d = np.abs(computed[:, None] - truth[None, :])
    err = np.max(np.min(d, axis=1))
    if both_ways:
        err = max(err, np.max(np.min(d, axis=0)))
    return float(err)


def _min_pairwise_gap(values):
    values = np.asarray(values)
    values = values[np.isfinite(values)]
    if len(values) < 2:
        return np.nan
    d = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(d, np.inf)
    return float(np.min(d))
