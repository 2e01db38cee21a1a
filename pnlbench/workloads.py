"""The benchmark's workloads.

Each workload sets up its model several times (setup_s is the median) and
saves it once.  It runs whole rounds of the same operations while the next
round is expected to end within the requested number of seconds (at least
one round).  damped-string-1 builds three times before its rounds;
delay-dense builds once in every round.

The seed draws the parameters the online phase is asked about: one from each
of n equal strata of the range, so they cover it as evenly as a grid.  The
set-up values, the probing-direction seed among them, are those of the
pinned experiments in `pnlevp.benchmarks`; `probe_seed` overrides the
latter.
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import warnings
from time import perf_counter

import numpy as np

import checks
from pnlevp import benchmarks, cli, solver
from pnlevp.contour import default_sampling
from pnlevp.problems import get_problem

class Run:
    """Operation counts, timings and checks gathered by one workload run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.setup_s = []
        self.online_s = []       # one entry per answered parameter
        self.swept = 0           # parameters swept, all sweeps together
        self.sweep_s = 0.0       # wall time of all sweeps together
        self.sweep_rates = []    # parameters per second, one per sweep
        self.max_residual = 0.0
        self.model_bytes = None
        self.checks = []         # (label, ok, detail)

    def span(self, name):
        """A span of the benchmark's own around a block, when tracing."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def check(self, fn, *args):
        """Add the results of check fn(*args), computed outside the trace."""
        if self.tracer is None:
            self.checks.extend(fn(*args))
            return
        with self.tracer.paused():
            self.checks.extend(fn(*args))

    def metrics(self):
        """End-to-end metrics.  The answer time is the mean over every
        answer of the run and the sweep rate is that of all sweeps
        together: on the machine this was sized on, single answers switch
        between a fast and a slow mode, about 1.7x apart, every fraction of
        a second as the host's load changes.  A median or a fastest stretch
        jumps between the modes from run to run; a mean follows the share
        of time spent in each.  The 95th percentile is over all answers."""
        online_ms = [1e3 * t for t in self.online_s]
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "online_ms_mean": (statistics.fmean(online_ms), "ms"),
            "online_ms_p95": (p95(online_ms), "ms"),
            "sweep_params_per_s": (self.swept / self.sweep_s, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
            "model_bytes": (self.model_bytes, "bytes"),
            "residual_digits": (-math.log10(self.max_residual), "digits"),
        }


def p95(values):
    """Nearest-rank 95th percentile; with 200 or more values at least ten
    lie beyond it."""
    if len(values) < 200:
        raise ValueError(f"p95 needs 200 answers, got {len(values)}")
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


@contextlib.contextmanager
def timed_calls(owner, attr, durations):
    """Append the wall time of every call of owner.attr to durations."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            durations.append(perf_counter() - t0)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def stratified(rng, lo, hi, n):
    """n ascending parameters in [lo, hi], one drawn uniformly from each of
    n equal strata."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _rounds(seconds):
    """Yield round numbers while the next round, taking as long as the mean
    of those before it, would end within `seconds`; at least one round."""
    t0 = perf_counter()
    k = 0
    while True:
        yield k
        k += 1
        elapsed = perf_counter() - t0
        if elapsed * (k + 1) / k > seconds:
            return


def _pinned(spec, probe_seed):
    """The problem and sampling of pinned experiment `spec`; `probe_seed`,
    if given, replaces the seed of its probing directions."""
    problem = get_problem(spec.problem_name)
    if probe_seed is None:
        probe_seed = spec.seed
    config = default_sampling(spec.domain, spec.r, spec.q, spec.p_range,
                              probe_seed, problem.dim,
                              sampling_domain=spec.sampling_domain)
    return problem, config


def _build(run, spec, problem, config):
    """One timed build of the model of pinned experiment `spec`."""
    run.attempted += 1
    t0 = perf_counter()
    model = solver.offline(problem, spec.domain, config, spec.N,
                           fit_opts=dict(spec.fit_opts))
    run.setup_s.append(perf_counter() - t0)
    return model


def _save(run, spec, model, out_dir):
    """Save the model and record its size; returns its path."""
    path = os.path.join(out_dir, f"{spec.name}.model")
    solver.save_model(model, path)
    run.model_bytes = os.path.getsize(path)
    return path


def _timed_sweep(run, problem, model, p_values):
    """benchmarks.sweep over p_values, timing each online call and the
    whole sweep; returns the sweep data."""
    run.attempted += len(p_values)
    t0 = perf_counter()
    with timed_calls(benchmarks, "online", run.online_s):
        data = benchmarks.sweep(problem, model, p_values)
    elapsed = perf_counter() - t0
    run.swept += len(p_values)
    run.sweep_s += elapsed
    run.sweep_rates.append(len(p_values) / elapsed)
    run.max_residual = max(run.max_residual, float(np.max(data["max_residuals"])))
    return data


def damped_string_1(run, seed, seconds, out_dir, probe_seed=None):
    """Pinned damped-string-1 (r=250, N=1000, q=25, n=4); a round is an
    online sweep of 200 parameters over [3, 4]."""
    spec = benchmarks.BENCHMARKS["damped-string-1"]
    problem, config = _pinned(spec, probe_seed)
    for _ in range(3):
        model = None  # release the previous build before the next one
        model = _build(run, spec, problem, config)
    _save(run, spec, model, out_dir)
    p_values = stratified(np.random.default_rng(seed), *spec.p_range,
                          spec.n_test)
    for k in _rounds(seconds):
        data = _timed_sweep(run, problem, model, p_values)
        if k == 0:
            run.check(checks.damped_string_1, problem, spec.domain, model.m,
                      data)
        else:
            run.check(checks.max_residual, data, checks.DS1_RESIDUAL)


def delay_dense(run, seed, seconds, out_dir, probe_seed=None):
    """Pinned delay set-up (r=20, N=128, q=40, n=10); a round builds the
    model, then sweeps 2000 parameters over [30, 35] and answers the
    extrapolation points 20 and 50.  The builds are spread over the run,
    so that setup_s samples the same stretch of time as the answers.  The
    first build is saved, and after the rounds it goes once through the
    command line."""
    spec = benchmarks.BENCHMARKS["delay"]
    with warnings.catch_warnings():
        # the fit stops just above its tolerance and 20, 50 extrapolate;
        # both warn by design
        warnings.simplefilter("ignore", UserWarning)
        problem, config = _pinned(spec, probe_seed)
        p_values = stratified(np.random.default_rng(seed), *spec.p_range,
                              2000)
        for k in _rounds(seconds):
            model = _build(run, spec, problem, config)
            data = _timed_sweep(run, problem, model, p_values)
            extrapolated = {}
            for p_hat in checks.DELAY_EXTRAPOLATION:
                run.attempted += 1
                t0 = perf_counter()
                extrapolated[p_hat] = solver.online(model, p_hat)
                run.online_s.append(perf_counter() - t0)
            if k == 0:
                saved = (model, _save(run, spec, model, out_dir),
                         extrapolated)
                run.check(checks.delay, problem, spec.domain, model, data,
                          extrapolated)
            else:
                run.check(checks.max_residual, data, checks.DELAY_RESIDUAL)
    _delay_cli(run, *saved, out_dir)


def _cli(run, argv):
    """Run one command through pnlevp.cli.main, with its output captured;
    returns (exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    run.attempted += 1
    with (run.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    if code != 0:
        run.failed += 1
        print(f"pnlevp {argv[0]} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code, out.getvalue()


def _delay_cli(run, model, model_path, extrapolated, out_dir):
    """`pnlevp online --json` at the extrapolation points and `pnlevp sweep
    --out` over [30, 35], both from the saved model.  Traced and checked,
    not timed end to end."""
    answers = {}
    for p_hat in checks.DELAY_EXTRAPOLATION:
        code, text = _cli(run, ["online", "--model", model_path,
                                "--p", repr(p_hat), "--json"])
        if code == 0:
            answers[p_hat] = json.loads(text)
    table_path = os.path.join(out_dir, "delay-sweep.dat")
    code, _ = _cli(run, ["sweep", "--model", model_path, "--p", "30:35",
                         "--n-test", str(checks.DELAY_CLI_ROWS),
                         "--out", table_path])
    table = np.loadtxt(table_path) if code == 0 else None
    run.check(checks.delay_cli, model, answers, extrapolated, table)


WORKLOADS = {
    "damped-string-1": damped_string_1,
    "delay-dense": delay_dense,
}
