"""Acceptance gate: pinned end-to-end experiments plus the property suite.

Each test covers one acceptance criterion and prints a PASS/FAIL line with
the measured quantity (visible with pytest -s or on failure).
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from pnlevp.benchmarks import (build_offline, get_benchmark, run_benchmark,
                               sweep)
from pnlevp.contour import Disk, build_trapezoid_rule, default_sampling, \
    probe_samples
from pnlevp.loewner import TangentialData, build_loewner, realize
from pnlevp.paaa import eval_model, paaa_fit
from pnlevp.problems import SyntheticRationalProblem
from pnlevp.solver import load_model, offline, online, save_model
from test_contour import _contracted, _fields

_CACHE = {}


def _bench(name):
    if name not in _CACHE:
        _CACHE[name] = run_benchmark(name)
    return _CACHE[name]


def _criterion(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
    assert ok, f"{label}: {detail}"


def _check(result, label_fragment):
    for label, ok, detail in result.checks:
        if label_fragment in label:
            _criterion(f"{result.name}: {label}", ok, detail)
            return
    raise AssertionError(f"no check matching {label_fragment!r}")


# ---------------------------------------------------------------------------
# linear example, setup 1


def test_linear1_max_residual():
    _check(_bench("linear-1"), "max residual over 200")


def test_linear1_eigenvalues_match_square_root_branches():
    _check(_bench("linear-1"), "match +-sqrt(1-p)")


def test_linear1_residual_at_defective_parameter():
    _check(_bench("linear-1"), "defective parameter")


def test_linear1_runtime_under_one_minute():
    result = _bench("linear-1")
    _criterion("linear-1: end-to-end runtime <= 60 s",
               result.elapsed <= 60.0, f"elapsed {result.elapsed:.1f} s")


# ---------------------------------------------------------------------------
# linear example, setup 2


def test_linear2_max_residual():
    _check(_bench("linear-2"), "max residual")


def test_linear2_eigenvalue_branch():
    _check(_bench("linear-2"), "+sqrt(1-p) branch")


# ---------------------------------------------------------------------------
# delay example


def test_delay_rank_consistency_m4():
    _check(_bench("delay"), "m=4")


def test_delay_fit_degrees():
    _check(_bench("delay"), "degrees are 4 in z and 5 in p")


def test_delay_oracle_at_p30():
    _check(_bench("delay"), "p=30:")


def test_delay_oracle_at_p35():
    _check(_bench("delay"), "p=35:")


def test_delay_extrapolation_p20():
    _check(_bench("delay"), "p=20")


def test_delay_extrapolation_p50():
    _check(_bench("delay"), "p=50")


# ---------------------------------------------------------------------------
# damped string, case 1


def test_damped_string1_max_residual():
    _check(_bench("damped-string-1"), "max residual")


@pytest.mark.parametrize("seed", range(6))
def test_damped_string1_max_residual_under_probing_seed(seed):
    # the same gate as the pinned run, with other probing directions and
    # refit sketches; the margin is printed, not hidden
    bench = replace(get_benchmark("damped-string-1"), seed=seed)
    problem, model = build_offline(bench)
    p_test = np.linspace(*bench.p_range, bench.n_test)
    res = np.nanmax(sweep(problem, model, p_test)["max_residuals"])
    _criterion(f"damped-string-1, probing seed {seed}: max residual over "
               "200 test parameters <= 3e-10", res <= 3e-10,
               f"max residual {res:.3e}, margin {3e-10 / res:.1f}x")


def test_damped_string1_max_residual_one_blas_thread():
    # with one BLAS thread, rounding picks another null vector of the
    # nearly rank-deficient greedy system, and with it another p-degree
    # (9 against 10); only the residual gate is checked, margin printed
    code = ("import json\n"
            "from pnlevp.benchmarks import run_benchmark\n"
            "checks = run_benchmark('damped-string-1').checks\n"
            "print(json.dumps([(l, bool(ok), d) for l, ok, d in checks]))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for label, ok, detail in json.loads(proc.stdout):
        if "max residual" in label:
            _criterion(f"damped-string-1, one BLAS thread: {label}", ok,
                       detail)
            return
    raise AssertionError("no max residual check for damped-string-1")


def test_damped_string1_coalescence_location():
    _check(_bench("damped-string-1"), "gap occurs in [3.6, 3.8]")


# ---------------------------------------------------------------------------
# damped string, case 2


def test_damped_string2_max_residual():
    _check(_bench("damped-string-2"), "max residual")


def test_damped_string2_abscissa_minimizer():
    _check(_bench("damped-string-2"), "minimized within [4.6, 4.8]")


# ---------------------------------------------------------------------------
# property suite


def test_property_loewner_shift_identities():
    rng = np.random.default_rng(0)
    r, n = 6, 5
    data = TangentialData(
        theta=rng.standard_normal(r) + 2.0,
        sigma=rng.standard_normal(r) - 2.0,
        left_dirs=rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)),
        right_dirs=rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)),
        left_vals=rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)),
        right_vals=rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)),
    )
    L, Ls = build_loewner(data)
    P = data.left_vals @ data.right_dirs.T
    Q = data.left_dirs @ data.right_vals.T
    scale = max(np.max(np.abs(P)), np.max(np.abs(Q)))
    err = max(
        np.max(np.abs(Ls - data.sigma[None, :] * L - P)),
        np.max(np.abs(Ls - data.theta[:, None] * L - Q)),
    )
    _criterion("property: Loewner shift identities to 1e-13",
               err <= 1e-13 * scale, f"max identity error {err:.3e}")


def test_property_exact_recovery_realization():
    domain = Disk(0.0, 1.0)
    worst = 0.0
    for m, seed in ((1, 30), (3, 31), (5, 32)):
        prob = SyntheticRationalProblem.inside_domain(domain, m, (0.0, 1.0),
                                                      seed=seed)
        rng = np.random.default_rng(seed)
        r = m + 2
        theta = 1.6 * np.exp(2j * np.pi * np.arange(r) / (2 * r))
        sigma = 1.6 * np.exp(2j * np.pi * (np.arange(r) + 0.5) / (2 * r))
        ld = rng.standard_normal((r, prob.dim)) \
            + 1j * rng.standard_normal((r, prob.dim))
        rd = rng.standard_normal((r, prob.dim)) \
            + 1j * rng.standard_normal((r, prob.dim))
        p = 0.5
        b = np.array([prob.exact_H(t, p).T @ l for t, l in zip(theta, ld)])
        c = np.array([prob.exact_H(s, p) @ v for s, v in zip(sigma, rd)])
        out = realize(TangentialData(theta=theta, sigma=sigma, left_dirs=ld,
                                     right_dirs=rd, left_vals=b,
                                     right_vals=c))
        truth = np.sort_complex(prob.eigenvalues_at(p))
        assert out.rank == m
        worst = max(worst, float(np.max(np.abs(
            np.sort_complex(out.eigenvalues) - truth))))
    _criterion("property: realization recovers synthetic poles (m<=5) to 1e-9",
               worst <= 1e-9, f"max pole error {worst:.3e}")


def test_property_paaa_exact_recovery():
    s = np.linspace(-1.0, 1.0, 14)
    p = np.linspace(0.0, 1.0, 10)

    def f(z, w):
        return (z * z - 0.5 * w + 1.0) / ((z * z - 3.0) * (w + 2.0) * (w + 4.0))

    model = paaa_fit(f(s[:, None], p[None, :]), s, p)
    held_s = np.linspace(-0.95, 0.95, 11)
    held_p = np.linspace(0.04, 0.96, 11)
    truth = f(held_s[:, None], held_p[None, :])
    got = np.array([[eval_model(model, z, w) for w in held_p]
                    for z in held_s])
    err = float(np.max(np.abs(got - truth)) / np.max(np.abs(truth)))
    _criterion("property: bivariate rational recovered to 1e-10 held-out",
               model.max_error <= 1e-12 and err <= 1e-10,
               f"held-out error {err:.3e}")


def test_property_quadrature_monotone_under_doubling():
    domain = Disk(0.0, 1.0)
    prob = SyntheticRationalProblem.inside_domain(domain, 2, (0.0, 1.0),
                                                  seed=40)
    config = default_sampling(domain, 3, 2, (0.0, 1.0), seed=2, dim=prob.dim,
                              inflation=1.5)
    H = np.array([[prob.exact_H(si, pj) for pj in config.parameter_points]
                  for si in config.sample_points])
    want = _contracted(config, H)
    errs = []
    for N in (32, 64, 128):
        rule = build_trapezoid_rule(domain, N)
        samples = probe_samples(prob, rule, config, domain)
        errs.append(max(float(np.max(np.abs(got - w)))
                        for got, w in zip(_fields(samples), want)))
    ok = all(b < a or b <= 1e-13 for a, b in zip(errs, errs[1:]))
    _criterion("property: probe error decreases when N doubles",
               ok, "errors " + ", ".join(f"{e:.3e}" for e in errs))


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    domain = Disk(0.0, 1.0)
    prob = SyntheticRationalProblem.inside_domain(domain, 2, (0.0, 1.0),
                                                  seed=41)
    config = default_sampling(domain, 6, 8, (0.0, 1.0), seed=3, dim=prob.dim)
    model = offline(prob, domain, config, 128)
    path = tmp_path_factory.mktemp("acc") / "model.json"
    save_model(model, path)
    return model, path


def test_property_round_trip_bit_exact(small_model):
    model, path = small_model
    loaded = load_model(path)
    same = (
        np.array_equal(loaded.config.sample_points,
                       model.config.sample_points)
        and np.array_equal(loaded.config.left_dirs, model.config.left_dirs)
        and np.array_equal(loaded.scalar_model.coeffs,
                           model.scalar_model.coeffs)
        and np.array_equal(loaded.scalar_model.z_nodes,
                           model.scalar_model.z_nodes)
        and np.array_equal(loaded.left_vals, model.left_vals)
        and np.array_equal(loaded.right_vals, model.right_vals)
        and loaded.m == model.m
    )
    _criterion("property: offline model round-trips bit-exactly",
               same, "all serialized fields equal after load")


def test_property_online_deterministic_across_thread_counts(small_model):
    model, _ = small_model
    p_values = np.linspace(0.0, 1.0, 12)

    def sweep_with(workers):
        if workers == 0:
            sols = [online(model, p) for p in p_values]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                sols = list(pool.map(lambda p: online(model, p), p_values))
        return np.array([s.eigenvalues for s in sols])

    serial = sweep_with(0)
    ok = all(np.array_equal(serial, sweep_with(w)) for w in (1, 2, 4))
    _criterion("property: online results identical across thread counts",
               ok, "eigenvalue arrays bit-identical for 1, 2, 4 workers")
