"""In-memory span tracing around the package's public functions.

A span is (id, name, start, end, parent id, thread id).  Functions are
wrapped from outside the package, under the attribute names their callers
look them up by, so the package itself is not edited.  The self time of a
span is its duration minus the part of its interval that its child spans
cover (the union of the children's intervals, clipped to the parent).

A span opened on a thread with no open span of its own (a worker of the
CLI's sweep thread pool) takes as parent the innermost open span of the
main thread, which is blocked waiting for the pool at that time.
"""

import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

FIELDS = ("id", "name", "start", "end", "parent", "thread")


class Tracer:
    def __init__(self):
        self.spans = []        # tuples in FIELDS order
        self.attrs = {}        # span id -> dict of counts taken from results
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()
        self._patched = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Wrapped functions record no spans inside this block."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record a span around the body of a with statement; yields its id."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident()))

    def wrap(self, owner, attr, name, on_result=None):
        """Replace owner.attr by a traced wrapper; `on_result(result)` may
        return a dict of counts to keep with the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            if on_result is not None:
                self.attrs[sid] = on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": FIELDS, "spans": self.spans,
                       "attrs": {str(k): v for k, v in self.attrs.items()}}, f)


def install(tracer):
    """Wrap the public functions of contour, problems, paaa, loewner, solver
    and the CLI under the names their callers use."""
    from pnlevp import benchmarks, cli, loewner, problems, solver

    def sample_bytes(samples):
        return {"bytes": samples.left.nbytes + samples.right.nbytes}

    def fit_iterations(model):
        return {"iterations": len(model.error_history)}

    for owner in (solver, cli):
        tracer.wrap(owner, "offline", "solver.offline")
        tracer.wrap(owner, "save_model", "solver.save_model")
        tracer.wrap(owner, "load_model", "solver.load_model")
    for owner in (solver, cli, benchmarks):
        tracer.wrap(owner, "online", "solver.online")
        tracer.wrap(owner, "residuals", "solver.residuals")
    tracer.wrap(solver, "probe_samples", "contour.probe_samples",
                on_result=sample_bytes)
    tracer.wrap(solver, "consistency_rank_check", "paaa.consistency_rank_check")
    tracer.wrap(solver, "paaa_fit", "paaa.paaa_fit", on_result=fit_iterations)
    tracer.wrap(solver, "refit_coefficients", "paaa.refit_coefficients")
    tracer.wrap(solver, "lift_vector", "paaa.lift_vector")
    tracer.wrap(solver, "eval_model", "paaa.eval_model")
    tracer.wrap(solver, "realize", "loewner.realize")
    tracer.wrap(loewner, "build_loewner", "loewner.build_loewner")
    tracer.wrap(problems.PNlevpProblem, "solve_right", "problems.solve")
    tracer.wrap(problems.PNlevpProblem, "solve_left", "problems.solve")


def children_of(spans):
    """Parent id -> its child spans (root spans under None)."""
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    return children


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = children_of(spans)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered, reach = 0.0, start
        for c in sorted(children[s[0]], key=lambda c: c[2]):
            lo, hi = max(c[2], reach), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (end - start) - covered
    return out


def nesting_errors(spans, slack=1e-6):
    """Spans whose children on the same thread last longer in sum than the
    span itself (children on pool threads may overlap each other)."""
    by_id = {s[0]: s for s in spans}
    total = defaultdict(float)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is not None and parent[5] == s[5]:
            total[parent[0]] += s[3] - s[2]
    return [by_id[k][1] for k, v in total.items()
            if v > by_id[k][3] - by_id[k][2] + slack]


def layer_metrics(tracer):
    """Per-layer metrics: offline ones are per build, online ones per
    parameter, each the median over the builds or parameters traced; a layer
    that the workload does not reach reads 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    children = children_of(spans)

    def descendants(sid):
        todo, out = list(children[sid]), []
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children[s[0]])
        return out

    def dur(s):
        return s[3] - s[2]

    def med(values):
        return statistics.median(values) if values else 0.0

    builds, params = [], []
    for s in spans:
        if s[1] == "solver.offline":
            d = descendants(s[0])
            row = defaultdict(float)
            row["offline_self"] = selfs[s[0]]
            for c in d:
                if c[1] == "contour.probe_samples":
                    row["probe"] += dur(c)
                    row["probe_self"] += selfs[c[0]]
                    row["sample_bytes"] += tracer.attrs[c[0]]["bytes"]
                elif c[1] == "problems.solve":
                    row["solves"] += 1
                    row["solve"] += dur(c)
                elif c[1] == "paaa.consistency_rank_check":
                    row["rank_check"] += dur(c)
                elif c[1] == "paaa.paaa_fit":
                    row["fit"] += dur(c)
                    row["fit_iterations"] += tracer.attrs[c[0]]["iterations"]
                elif c[1] == "paaa.refit_coefficients":
                    row["refit"] += dur(c)
                elif c[1] == "paaa.lift_vector":
                    row["lift"] += dur(c)
            builds.append(row)
        elif s[1] == "solver.online":
            row = defaultdict(float)
            row["online_self"] = selfs[s[0]]
            for c in descendants(s[0]):
                if c[1] == "paaa.eval_model":
                    row["eval_calls"] += 1
                    row["eval"] += dur(c)
                elif c[1] == "loewner.realize":
                    row["realize"] += dur(c)
                elif c[1] == "loewner.build_loewner":
                    row["build"] += dur(c)
            params.append(row)

    def named(name):
        return [s for s in spans if s[1] == name]

    def b(key):
        return med([row[key] for row in builds])

    def p(key):
        return med([row[key] for row in params])

    values = {
        "contour.probe_s": (b("probe"), "s"),
        "contour.probe_self_s": (b("probe_self"), "s"),
        "contour.sample_mb": (b("sample_bytes") / 2**20, "MB"),
        "problems.solve_calls": (b("solves"), "count"),
        "problems.solve_s": (b("solve"), "s"),
        "paaa.rank_check_s": (b("rank_check"), "s"),
        "paaa.fit_s": (b("fit"), "s"),
        "paaa.fit_iterations": (b("fit_iterations"), "count"),
        "paaa.refit_s": (b("refit"), "s"),
        "paaa.lift_s": (b("lift"), "s"),
        "paaa.eval_calls": (p("eval_calls"), "count"),
        "paaa.eval_ms": (1e3 * p("eval"), "ms"),
        "loewner.realize_ms": (1e3 * p("realize"), "ms"),
        "loewner.build_ms": (1e3 * p("build"), "ms"),
        "solver.offline_self_s": (b("offline_self"), "s"),
        "solver.online_self_ms": (1e3 * p("online_self"), "ms"),
        "solver.residuals_ms": (
            1e3 * med([dur(s) for s in named("solver.residuals")]), "ms"),
        "solver.save_s": (med([dur(s) for s in named("solver.save_model")]), "s"),
        "solver.load_s": (med([dur(s) for s in named("solver.load_model")]), "s"),
        "cli.sweep_self_s": (med([selfs[s[0]] for s in named("cli.sweep")]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
