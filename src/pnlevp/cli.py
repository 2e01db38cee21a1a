"""Command-line front end.

Subcommands: offline (sample and fit a parametric model), online (extract
eigenvalues at one parameter), sweep (eigenvalue trajectories and residuals
over a parameter range), bench (pinned end-to-end experiments with pass/fail
checks).  Data goes to standard output or files; diagnostics go to the error
stream.  Exit codes: 0 ok, 1 I/O, 2 usage or assumption violation,
3 numerical failure.
"""

import argparse
import json
import logging
import sys
import time

import numpy as np

from . import benchmarks as bench_mod
from .contour import Disk, Ellipse, default_sampling
from .errors import (EvaluationError, ModelFormatError, RealizationError,
                     SingularMatrixError, UnsupportedProblemError)
from .problems import get_problem
from .solver import (FIT_TOL, load_model, offline, online, residuals,
                     save_model, write_atomic)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    log = logging.getLogger("pnlevp")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    # the package's errors subclass ValueError, so they go first
    try:
        return args.func(args)
    except (ModelFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RealizationError, SingularMatrixError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pnlevp",
        description="Parametric nonlinear eigenvalue solver "
                    "(contour sampling + Loewner realization).",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print the pnlevp DEBUG records to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="sample a problem and fit a model")
    p_off.add_argument("--problem", required=True,
                       help="built-in problem name (e.g. linear-demo, delay)")
    _add_domain_args(p_off, "--disk", "--ellipse")
    p_off.add_argument("--p", required=True, metavar="MIN:MAX",
                       help="parameter range, e.g. 30:35")
    p_off.add_argument("--q", type=int, required=True,
                       help="number of parameter sample points")
    p_off.add_argument("--r", type=int, required=True,
                       help="number of left/right probing directions; the "
                            "model keeps r_online <= r of them for online")
    p_off.add_argument("--N", type=int, required=True,
                       help="number of quadrature nodes")
    p_off.add_argument("--seed", type=int, default=0)
    p_off.add_argument("--tol", type=float, default=FIT_TOL,
                       help="rational fit tolerance")
    boundary = p_off.add_argument_group(
        "sampling boundary", "strictly outside the domain (default: the "
        "domain with its semi-axes scaled by 4/3)")
    _add_domain_args(boundary, "--sampling-disk", "--sampling-ellipse",
                     dest_prefix="sampling_")
    p_off.add_argument("--out", required=True, help="model file to write")
    p_off.set_defaults(func=cmd_offline)

    p_on = sub.add_parser("online", help="extract eigenvalues at one parameter")
    p_on.add_argument("--model", required=True)
    p_on.add_argument("--p", required=True, help="parameter value (complex ok)")
    p_on.add_argument("--json", action="store_true",
                      help="emit machine-readable output")
    p_on.add_argument("--out", default=None, help="write output to a file")
    p_on.set_defaults(func=cmd_online)

    p_sw = sub.add_parser("sweep", help="eigenvalue trajectories over a range")
    p_sw.add_argument("--model", required=True)
    p_sw.add_argument("--p", required=True, metavar="MIN:MAX")
    p_sw.add_argument("--n-test", type=int, default=200)
    p_sw.add_argument("--json", action="store_true")
    p_sw.add_argument("--out", default=None,
                      help="data file to write (default: standard output)")
    p_sw.set_defaults(func=cmd_sweep)

    p_be = sub.add_parser("bench", help="run a pinned benchmark experiment")
    p_be.add_argument("name", nargs="?", default=None,
                      help="benchmark name; omit to list")
    p_be.add_argument("--out-dir", default=None,
                      help="directory to write the sweep data file "
                           "NAME-sweep.dat to (default: none written)")
    p_be.set_defaults(func=cmd_bench)
    return parser


def _add_domain_args(parser, disk_flag, ellipse_flag, dest_prefix=""):
    parser.add_argument(disk_flag, default=None, metavar="CX,CY,RHO",
                        dest=dest_prefix + "disk",
                        help="disk domain: center real, center imag, radius")
    parser.add_argument(ellipse_flag, default=None, metavar="CX,CY,SR,SI",
                        dest=dest_prefix + "ellipse",
                        help="ellipse domain: center, real/imag semi-axes")


def _parse_domain(disk, ellipse, required=True):
    if disk is not None and ellipse is not None:
        raise ValueError("specify either a disk or an ellipse, not both")
    if disk is not None:
        cx, cy, rho = (float(x) for x in disk.split(","))
        return Disk(complex(cx, cy), rho)
    if ellipse is not None:
        cx, cy, sr, si = (float(x) for x in ellipse.split(","))
        return Ellipse(complex(cx, cy), sr, si)
    if required:
        raise ValueError("a domain is required (--disk or --ellipse)")
    return None


def _parse_range(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected MIN:MAX, got {text!r}")
    lo, hi = float(lo), float(hi)
    for bound in (lo, hi):
        if not np.isfinite(bound):
            raise ValueError(f"parameter range bound {bound} is not finite")
    if not lo < hi:
        raise ValueError("parameter range must satisfy MIN < MAX")
    return lo, hi


def cmd_offline(args):
    problem = get_problem(args.problem)
    domain = _parse_domain(args.disk, args.ellipse)
    sampling_domain = _parse_domain(args.sampling_disk, args.sampling_ellipse,
                                    required=False)
    p_range = _parse_range(args.p)
    config = default_sampling(domain, args.r, args.q, p_range, args.seed,
                              problem.dim, sampling_domain=sampling_domain)
    t0 = time.perf_counter()
    model = offline(problem, domain, config, args.N,
                    fit_opts={"tol": args.tol})
    elapsed = time.perf_counter() - t0
    save_model(model, args.out)
    meta = model.metadata
    print(f"m = {model.m}", file=sys.stderr)
    print(f"fit degrees: {meta['z_degree']} in z, {meta['p_degree']} in p",
          file=sys.stderr)
    print(f"max fit error = {meta['max_fit_error']:.3e}", file=sys.stderr)
    print(f"tangential error = {meta['tangential_error']:.3e} "
          f"(converged: {meta['converged']})", file=sys.stderr)
    print(f"rank gap = {meta['rank_gap'] or np.inf:.3e}", file=sys.stderr)
    print(f"online directions: {meta['r_online']} of {meta['r_probed']}",
          file=sys.stderr)
    print(f"wall time = {elapsed:.2f} s", file=sys.stderr)
    print(f"model written to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_online(args):
    model = load_model(args.model)
    p_hat = complex(args.p)
    sol = online(model, p_hat)
    res = _residuals_if_available(model, sol)
    if args.json:
        doc = {
            "p": [p_hat.real, p_hat.imag],
            "eigenvalues": [[z.real, z.imag] for z in sol.eigenvalues],
            "in_domain": [bool(f) for f in sol.in_domain],
        }
        if res is not None:
            doc["residuals"] = [_json_number(x) for x in res]
        doc["rank_gap"] = _json_number(sol.diagnostics.get("rank_gap"))
        doc["discarded_infinite"] = sol.diagnostics.get("discarded_infinite", 0)
        doc["min_denominator"] = sol.diagnostics["min_denominator"]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"{'Re(lambda)':>24} {'Im(lambda)':>24} {'in_domain':>9}"
                 + (f" {'residual':>12}" if res is not None else "")]
        for j, z in enumerate(sol.eigenvalues):
            line = f"{z.real:24.16e} {z.imag:24.16e} {str(bool(sol.in_domain[j])):>9}"
            if res is not None:
                line += f" {res[j]:12.3e}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_sweep(args):
    lo, hi = _parse_range(args.p)
    if args.n_test < 1:
        raise ValueError("--n-test must be positive")
    model = load_model(args.model)
    problem = _problem_if_available(model)
    data = bench_mod.sweep(problem, model, np.linspace(lo, hi, args.n_test))
    if args.json:
        doc = {
            "p": list(data["p"].real),
            "eigenvalues": [[_json_number(z) for z in row]
                            for row in data["eigenvalues"]],
        }
        if problem is not None:
            doc["max_residuals"] = [_json_number(x)
                                    for x in data["max_residuals"]]
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = bench_mod.sweep_table(data)
    _emit(text, args.out)
    return EXIT_OK


def cmd_bench(args):
    if args.name is None:
        print("available benchmarks:", file=sys.stderr)
        for name in sorted(bench_mod.BENCHMARKS):
            print(f"  {name}", file=sys.stderr)
        return EXIT_OK
    result = bench_mod.run_benchmark(args.name, out_dir=args.out_dir)
    for label, ok, detail in result.checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {label}  [{detail}]")
    print(f"benchmark {args.name}: "
          f"{'PASS' if result.passed else 'FAIL'} "
          f"({result.elapsed:.1f} s)", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_NUMERICAL


def _problem_if_available(model):
    try:
        return get_problem(model.metadata.get("problem_name", ""))
    except UnsupportedProblemError:
        return None


def _residuals_if_available(model, sol):
    problem = _problem_if_available(model)
    if problem is None or len(sol.eigenvalues) == 0:
        return None
    return residuals(problem, sol)


def _json_number(x):
    """x as a float, or as [real, imag] for a complex x; None (JSON null)
    where x is absent or not finite, which JSON cannot hold."""
    if x is None or not np.isfinite(x):
        return None
    return [x.real, x.imag] if isinstance(x, complex) else float(x)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_atomic(out_path, text)
        print(f"output written to {out_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
