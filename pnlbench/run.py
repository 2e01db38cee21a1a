"""Run one workload of the pnlevp benchmark and print its result.

    python3 pnlbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the package is imported from its `src`
directory.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from the span trace.
A fuller record (environment, every metric, every check) is written to
pnlbench-out/<workload>-seed<N>-trace<T>/result.json, and the spans of a
traced run to spans.json beside it.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "pnlbench-out")


def environment(seed, probe_seed):
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "PNLEVP_THREADS": os.environ.get("PNLEVP_THREADS"),
        "seed": seed,
        "probe_seed": probe_seed,
    }


def _blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the parameters asked online")
    parser.add_argument("--probe-seed", type=int, default=None,
                        help="seed of the probing directions (default: that "
                             "of the pinned experiment)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run whole rounds while the next would end "
                             "within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pnlevp", "__init__.py")):
        print(f"error: no pnlevp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; available: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.probe_seed is not None:
        name += f"-probe{args.probe_seed}"
    out_dir = os.path.join(OUT, name)
    os.makedirs(out_dir, exist_ok=True)

    tracer = spans.Tracer() if args.trace else None
    run = workloads.Run(tracer)
    if tracer is not None:
        spans.install(tracer)
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds,
                                           out_dir, args.probe_seed)
    finally:
        if tracer is not None:
            tracer.restore()

    end_to_end = {k: {"value": v, "unit": u}
                  for k, (v, u) in run.metrics().items()}
    per_layer = None
    if tracer is not None:
        per_layer = spans.layer_metrics(tracer)
        bad = spans.nesting_errors(tracer.spans)
        run.checks.append(("child spans on one thread fit inside their parent",
                           not bad, f"{len(bad)} overfull: {sorted(set(bad))}"))
        tracer.write(os.path.join(out_dir, "spans.json"))
    correct = all(ok for _, ok, _ in run.checks)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, args.probe_seed),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "end_to_end": end_to_end,
        "samples": {"setup_s": run.setup_s,
                    "sweep_params_per_s": run.sweep_rates,
                    "online_answers": len(run.online_s),
                    "online_ms_p50": 1e3 * statistics.median(run.online_s)},
        "per_layer": per_layer,
        "checks": [{"check": label, "ok": bool(ok), "detail": detail}
                   for label, ok, detail in run.checks],
    }
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=2)
    for label, ok, detail in run.checks:
        if not ok:
            print(f"FAIL  {label}  [{detail}]", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": per_layer if tracer is not None else end_to_end,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
