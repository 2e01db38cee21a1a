"""Each output check passes on correct data and fails once one eigenvalue,
residual or count is perturbed.

    python3 -m pytest -q pnlbench/tests
"""

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest

import checks
from pnlevp import benchmarks, cli, solver
from pnlevp.contour import default_sampling
from pnlevp.problems import get_problem


def passed(results):
    return all(ok for _, ok, _ in results)


# ---------------------------------------------------------------------------
# damped-string-1: rows from the Newton oracle, the smallest gap near 3.71

DS1_P = np.array([3.0, 3.5, 3.7136, 4.0])
DS1_ORACLE_P = (3.0, 4.0)


@pytest.fixture(scope="module")
def ds1():
    problem = get_problem("damped-string")
    domain = benchmarks.BENCHMARKS["damped-string-1"].domain
    lam = np.array([problem.true_eigenvalues(p, domain) for p in DS1_P])
    data = {"p": DS1_P.astype(complex), "eigenvalues": lam,
            "max_residuals": np.full(len(DS1_P), 1e-11)}
    return problem, domain, data


def ds1_checks(ds1, data=None, m=4):
    problem, domain, good = ds1
    return checks.damped_string_1(problem, domain, m, data or good,
                                  oracle_p=DS1_ORACLE_P)


def perturbed(data, key, index, delta):
    out = {k: np.array(v, copy=True) for k, v in data.items()}
    out[key][index] += delta
    return out


def test_ds1_oracle_rows_pass(ds1):
    assert passed(ds1_checks(ds1))


def test_ds1_shifted_eigenvalue_fails(ds1):
    data = perturbed(ds1[2], "eigenvalues", (3, 0), 1e-6)
    assert not passed(ds1_checks(ds1, data))


def test_ds1_large_residual_fails(ds1):
    data = perturbed(ds1[2], "max_residuals", 1, 1e-9)
    assert not passed(ds1_checks(ds1, data))


def test_ds1_missing_eigenvalue_fails(ds1):
    data = perturbed(ds1[2], "eigenvalues", (1, 2), np.nan)
    assert not passed(ds1_checks(ds1, data))


def test_ds1_wrong_count_fails(ds1):
    assert not passed(ds1_checks(ds1, m=3))


def test_ds1_gap_outside_window_fails(ds1):
    # pull two eigenvalues at p = 3.5 together: the smallest gap moves there
    data = perturbed(ds1[2], "eigenvalues", (1, 0), 0.0)
    row = data["eigenvalues"][1]
    row[1] = row[0] + 1e-3
    assert not passed(ds1_checks(ds1, data))


# ---------------------------------------------------------------------------
# delay: a small sweep of the pinned set-up

@pytest.fixture(scope="module")
def delay():
    spec = benchmarks.BENCHMARKS["delay"]
    problem = get_problem("delay")
    config = default_sampling(spec.domain, spec.r, spec.q, spec.p_range,
                              spec.seed, problem.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = solver.offline(problem, spec.domain, config, spec.N,
                               fit_opts=dict(spec.fit_opts))
        data = benchmarks.sweep(problem, model, np.linspace(30.0, 35.0, 12))
        extrapolated = {p: solver.online(model, p)
                        for p in checks.DELAY_EXTRAPOLATION}
    return problem, spec.domain, model, data, extrapolated


def delay_checks(delay, data=None, extrapolated=None):
    problem, domain, model, good, good_extra = delay
    return checks.delay(problem, domain, model, data or good,
                        extrapolated or good_extra)


def test_delay_sweep_passes(delay):
    assert passed(delay_checks(delay))


def test_delay_shifted_eigenvalue_fails(delay):
    data = perturbed(delay[3], "eigenvalues", (0, 1), 1e-5)
    results = delay_checks(delay, data)
    failed = {label for label, ok, _ in results if not ok}
    assert any("Newton oracle" in label for label in failed)
    assert any("scalar_probe" in label for label in failed)


def test_delay_large_residual_fails(delay):
    data = perturbed(delay[3], "max_residuals", 5, 1e-8)
    assert not passed(delay_checks(delay, data))


@pytest.mark.parametrize("p_hat", checks.DELAY_EXTRAPOLATION)
def test_delay_shifted_extrapolation_fails(delay, p_hat):
    extra = dict(delay[4])
    sol = extra[p_hat]
    lam = sol.eigenvalues.copy()
    lam[0] += 1e-3
    extra[p_hat] = dataclasses.replace(sol, eigenvalues=lam)
    assert not passed(delay_checks(delay, extrapolated=extra))


# ---------------------------------------------------------------------------
# delay-dense, command line: the saved model through pnlevp online/sweep

CLI_ROWS = 40


@pytest.fixture(scope="module")
def delay_cli(delay, tmp_path_factory):
    model, extrapolated = delay[2], delay[4]
    tmp = tmp_path_factory.mktemp("cli")
    path, table_path = str(tmp / "delay.model"), str(tmp / "sweep.dat")
    solver.save_model(model, path)
    answers = {}
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore", UserWarning)
        for p in checks.DELAY_EXTRAPOLATION:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["online", "--model", path, "--p", repr(p),
                                 "--json"]) == 0
            answers[p] = json.loads(out.getvalue())
        assert cli.main(["sweep", "--model", path, "--p", "30:35",
                         "--n-test", str(CLI_ROWS), "--out", table_path]) == 0
    return model, answers, extrapolated, np.loadtxt(table_path)


def cli_checks(delay_cli, answers=None, table=None):
    model, good_answers, extrapolated, good_table = delay_cli
    return checks.delay_cli(model, answers or good_answers, extrapolated,
                            good_table if table is None else table,
                            rows=CLI_ROWS)


def test_delay_cli_output_passes(delay_cli):
    assert passed(cli_checks(delay_cli))


def test_delay_cli_answer_one_ulp_off_fails(delay_cli):
    answers = json.loads(json.dumps(delay_cli[1]))
    z = answers[str(checks.DELAY_EXTRAPOLATION[0])]["eigenvalues"][0]
    z[1] = float(np.nextafter(z[1], np.inf))
    answers = {float(p): doc for p, doc in answers.items()}
    assert not passed(cli_checks(delay_cli, answers=answers))


@pytest.mark.parametrize("col, delta", [(1, "ulp"), (4, "ulp"),
                                        (-1, 1e-8)])
def test_delay_cli_perturbed_table_fails(delay_cli, col, delta):
    table = delay_cli[3].copy()
    if delta == "ulp":
        table[0, col] = np.nextafter(table[0, col], np.inf)
    else:
        table[7, col] += delta
    assert not passed(cli_checks(delay_cli, table=table))


def test_delay_cli_short_table_fails(delay_cli):
    assert not passed(cli_checks(delay_cli, table=delay_cli[3][:-1]))
