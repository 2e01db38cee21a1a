"""Output checks of the benchmark's workloads.

Every check compares the program's outputs with values computed apart from
the solver (Newton-on-det oracles) or with properties the method must have
(residuals, eigenvalue counts, bit-exact persistence).  Each returns a list of
(label, ok, detail) triples.
"""

import numpy as np

from pnlevp import solver

DS1_RESIDUAL = 3e-10       # gate of the pinned damped-string-1 experiment
DS1_M = 4
DS1_GAP_WINDOW = (3.6, 3.8)
DS1_ORACLE_P = (3.0, 3.25, 3.5, 3.9, 4.0)  # away from the coalescence
DS1_ORACLE_TOL = 1e-8

DELAY_M = 4
DELAY_RESIDUAL = 1e-10
DELAY_ORACLE_ROWS = 6      # evenly spaced rows of the dense sweep
DELAY_ORACLE_TOL = 1e-6
DELAY_EXTRAPOLATION = (20.0, 50.0)
DELAY_EXTRAPOLATION_TOL = 1e-4
DELAY_SCALAR_TOL = 1e-6

DELAY_CLI_ROWS = 2000      # rows of the `pnlevp sweep` table over [30, 35]


def match_error(computed, truth, both_ways=True):
    """Largest distance from a computed eigenvalue to its nearest true one
    and, if both_ways, from a true one to its nearest computed one (then the
    counts must agree); inf when a set is empty or a value is not finite."""
    computed = np.asarray(computed, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    if len(computed) == 0 or len(truth) == 0:
        return np.inf
    if both_ways and len(computed) != len(truth):
        return np.inf
    if not np.all(np.isfinite(computed)):
        return np.inf
    d = np.abs(computed[:, None] - truth[None, :])
    err = np.max(np.min(d, axis=1))
    if both_ways:
        err = max(err, np.max(np.min(d, axis=0)))
    return float(err)


def max_residual(data, bound):
    res = np.asarray(data["max_residuals"], dtype=float)
    worst = float(np.max(res)) if np.all(np.isfinite(res)) else np.inf
    return [(f"max residual over the sweep <= {bound:g}", worst <= bound,
             f"max residual {worst:.3e}")]


def full_rows(data, m):
    lam = data["eigenvalues"]
    ok = lam.shape[1] == m and bool(np.all(np.isfinite(lam)))
    return [(f"m = {m} finite eigenvalues on every sweep row", ok,
             f"shape {lam.shape}, {int(np.sum(~np.isfinite(lam)))} missing")]


def min_pairwise_gap(row):
    d = np.abs(row[:, None] - row[None, :])
    np.fill_diagonal(d, np.inf)
    return float(np.min(d))


def damped_string_1(problem, domain, m, data, oracle_p=DS1_ORACLE_P):
    out = max_residual(data, DS1_RESIDUAL)
    out += [("rank check gives m = 4", m == DS1_M, f"m = {m}")]
    out += full_rows(data, DS1_M)
    p = data["p"].real
    lam = data["eigenvalues"]
    gaps = np.array([min_pairwise_gap(row) for row in lam])
    p_min = float(p[np.nanargmin(gaps)])
    lo, hi = DS1_GAP_WINDOW
    out.append((f"minimum pairwise eigenvalue gap lies in [{lo}, {hi}]",
                lo <= p_min <= hi,
                f"gap {np.nanmin(gaps):.3e} at p = {p_min:.4f}"))
    for p_hat in oracle_p:
        k = int(np.argmin(np.abs(p - p_hat)))
        err = match_error(lam[k], problem.true_eigenvalues(p[k], domain))
        out.append((f"p={p[k]:.4f}: eigenvalues match the Newton oracle to "
                    f"{DS1_ORACLE_TOL:g}", err <= DS1_ORACLE_TOL,
                    f"error {err:.3e}"))
    return out


def delay(problem, domain, model, data, extrapolated):
    """Dense-sweep rows against the Newton oracle and the scalar-probe
    shortcut.  Each extrapolated eigenvalue must lie near a root of the
    oracle on the domain scaled by 2, which holds more roots than the four
    the model carries."""
    out = max_residual(data, DELAY_RESIDUAL)
    out += full_rows(data, DELAY_M)
    p = data["p"]
    lam = data["eigenvalues"]
    worst_oracle = worst_scalar = 0.0
    for k in np.linspace(0, len(p) - 1, DELAY_ORACLE_ROWS).round().astype(int):
        truth = problem.true_eigenvalues(p[k].real, domain)
        worst_oracle = max(worst_oracle, match_error(lam[k], truth))
        scalar = solver.scalar_probe_eigenvalues(model, p[k])
        worst_scalar = max(worst_scalar, match_error(scalar, lam[k]))
    out.append((f"{DELAY_ORACLE_ROWS} sweep rows match the Newton oracle to "
                f"{DELAY_ORACLE_TOL:g}", worst_oracle <= DELAY_ORACLE_TOL,
                f"max error {worst_oracle:.3e}"))
    out.append((f"scalar_probe_eigenvalues agrees with online to "
                f"{DELAY_SCALAR_TOL:g} on the same rows",
                worst_scalar <= DELAY_SCALAR_TOL,
                f"max difference {worst_scalar:.3e}"))
    for p_hat, sol in sorted(extrapolated.items()):
        truth = problem.true_eigenvalues(p_hat, domain, margin=2.0)
        err = match_error(sol.eigenvalues, truth, both_ways=False)
        outside = int(np.count_nonzero(~sol.in_domain))
        ok = len(sol.eigenvalues) == DELAY_M and err <= DELAY_EXTRAPOLATION_TOL
        detail = (f"{len(sol.eigenvalues)} eigenvalues, {outside} outside, "
                  f"error {err:.3e}")
        if p_hat == 20.0:
            ok = ok and outside == 2
        out.append((f"p={p_hat:g} (extrapolation): 4 eigenvalues, each within "
                    f"{DELAY_EXTRAPOLATION_TOL:g} of an oracle root", ok, detail))
    return out


def _printed(pairs):
    return np.array([complex(a, b) for a, b in pairs])


def delay_cli(model, answers, extrapolated, table, rows=DELAY_CLI_ROWS):
    """Command-line output from the saved model against the model in
    memory.  `online --json` at the extrapolation points must give the
    eigenvalues of `extrapolated` bit for bit.  The `sweep --out` table
    (columns p, Re/Im of m eigenvalues, max residual) must have `rows` rows
    at linspace(30, 35, rows), ten of them evenly spaced must match
    `online` bit for bit, and all must meet the residual bound."""
    differ = [p for p, sol in extrapolated.items()
              if p not in answers or not np.array_equal(
                  _printed(answers[p]["eigenvalues"]), sol.eigenvalues)]
    out = [("online --json from the saved model gives bit-identical "
            "eigenvalues", not differ,
            f"{len(differ)} of {len(extrapolated)} parameters differ")]
    m = model.m
    shape_ok = (table is not None and table.shape == (rows, 2 * m + 2)
                and np.array_equal(table[:, 0], np.linspace(30.0, 35.0, rows)))
    out.append(("sweep table has the requested rows and columns", shape_ok,
                f"shape {None if table is None else table.shape}"))
    if not shape_ok:
        return out
    differ = []
    for k in range(0, rows, max(1, rows // 10)):
        lam = table[k, 1:2 * m:2] + 1j * table[k, 2:2 * m + 1:2]
        if not np.array_equal(lam, solver.online(model, table[k, 0])
                              .eigenvalues[:m]):
            differ.append(k)
    out.append(("sweep table rows are bit-identical to online", not differ,
                f"rows differing: {differ}"))
    worst = float(np.max(table[:, -1]))
    out.append((f"sweep table residuals <= {DELAY_RESIDUAL:g}",
                worst <= DELAY_RESIDUAL, f"max residual {worst:.3e}"))
    return out
