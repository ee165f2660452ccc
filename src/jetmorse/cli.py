"""Command-line front end: seeded, deterministic experiment runs with CSV/JSON output.

Subcommands
-----------
wps-volume   closed-form vs Monte-Carlo volume of a weighted projective space
ikrn         the harmonic-weighted simplex moment: exact rational, bracket,
             asymptotic, or Monte-Carlo value
morse        index-integral convergence study over a model manifold sample
ci-threshold jet-order threshold for twisted complete intersections

Exit codes: 0 success, 2 invalid input, 3 resource ceiling exceeded,
4 internal numerical failure.  Every stochastic command requires --seed and
emits byte-identical output for a fixed seed, independent of the worker
pool size (flag --workers).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .jet_combinatorics import (MC_VARIATE_CEILING, ResourceLimitError, epsilon_ratio,
                                ikrn_asymptotic, ikrn_bounds, ikrn_exact,
                                inverse_square_sum)
from .measures import estimate, sample_nu_batch
from .models import CompleteIntersectionSpec, build_sample, ci_threshold
from .morse_mc import _DRAW_BLOCK, _fmt, _int_text, convergence_study
from .rng import stream
from .wps import WeightSpec, integrate_fiber, volume_closed_form

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


def _rat(v: Fraction) -> str:
    return f"{_int_text(v.numerator)}/{_int_text(v.denominator)}"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _int(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag} expects integers, got {text!r}") from None


def _ints(text: str, flag: str) -> list:
    return [_int(v, flag) for v in text.split(",") if v.strip()]


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} expects a rational such as 1 or 3/2, got {text!r}") from None


def cmd_wps_volume(args) -> int:
    w = WeightSpec(tuple(_ints(args.weights, "--weights")),
                   tuple(_ints(args.mults, "--mults")), p=args.p)
    exact = volume_closed_form(w)
    est, se = integrate_fiber(w, lambda z: 1.0, args.samples, args.seed)
    diff = est - float(exact)
    # a zero std error leaves no room for any difference: z is then +-inf
    z = diff / se if se > 0 else (math.copysign(math.inf, diff) if diff else 0.0)
    print(f"closed_form {_rat(exact)}")
    print(f"estimate {_fmt(est)}")
    print(f"std_error {_fmt(se)}")
    print(f"z_score {_fmt(z)}")
    return EXIT_OK


def _ikrn_mc(k: int, r: int, n: int, samples: int, seed: int):
    """(mean, std error) of (sum_s x_s / s)^n over simplex draws x, drawn and
    reduced in blocks of _DRAW_BLOCK // k samples in stream order.  One
    sample's k r variates and the run's k r samples are checked against
    ``MC_VARIATE_CEILING`` before anything is allocated or drawn."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    variates = k * r * max(samples, 1)  # at least one sample's
    if variates > MC_VARIATE_CEILING:
        raise ResourceLimitError(
            f"{samples} samples at k={k}, r={r} draw {variates} variates, "
            f"above the ceiling of {MC_VARIATE_CEILING}")
    rng = stream(seed, "ikrn-mc", k, r, n)
    w = 1.0 / np.arange(1, k + 1)
    mean, se = estimate(lambda first, m: (sample_nu_batch(k, r, m, rng) @ w) ** n,
                        samples, max(1, _DRAW_BLOCK // k))
    return float(mean), float(se)


def cmd_ikrn(args) -> int:
    k, r, n = args.k, args.r, args.n
    if args.mode == "exact":
        value = ikrn_exact(k, r, n)
        print(f"exact {_rat(value)}")
    elif args.mode == "bounds":
        lo, hi = ikrn_bounds(k, r, n)
        print(f"lower {_rat(lo)}")
        print(f"upper {_rat(hi)}")
    elif args.mode == "asymptotic":
        print(f"asymptotic {_fmt(ikrn_asymptotic(k, r, n))}")
    else:
        if args.seed is None:
            print("--seed is required for mc mode", file=sys.stderr)
            return EXIT_INPUT
        est, se = _ikrn_mc(k, r, n, args.samples, args.seed)
        print(f"estimate {_fmt(est)}")
        print(f"std_error {_fmt(se)}")
    return EXIT_OK


def _load_model(text: str) -> dict:
    if text.lstrip().startswith("{"):
        raw = text
    else:
        with open(text, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed model JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc


def cmd_morse(args) -> int:
    spec = _load_model(args.model)
    sample = build_sample(spec)
    k_list = _ints(args.k_list, "--k-list")
    q = list(range(sample.n + 1)) if args.q == "all" else [_int(args.q, "--q")]
    report = convergence_study(sample, k_list, q, args.samples, args.seed,
                               args.tol, workers=args.workers)
    # a zero form is degenerate at any tol, so only a positive band is at fault
    if args.tol > 0 and all(r.degenerate_fraction == 1 for r in report.rows):
        raise ValueError(f"every sampled form is degenerate at --tol {args.tol!r} "
                         "(degenerate_fraction 1 at every k); no file written")
    # both texts are rendered before either file is opened, so that a
    # failure leaves no partial output
    csv_text = report.to_csv()
    json_text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text)
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(json_text)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_ci_threshold(args) -> int:
    spec = CompleteIntersectionSpec(n=args.n, s=args.s,
                                    degrees=tuple(_ints(args.degrees, "--degrees")),
                                    a=_rational(args.a, "--a"))
    if args.k is not None and args.k < 2:
        raise ValueError("--k must be >= 2")
    ln_k = ci_threshold(spec)
    # computed before any output, so that a refused k leaves stdout empty
    eps = None if args.k is None else epsilon_ratio(args.k, 1, spec.n)
    print(f"ln_k_min {_fmt(ln_k)}")
    print(f"log10_k_min {_fmt(ln_k / math.log(10))}")
    if eps is not None:
        print(f"epsilon_exact {_fmt(eps.exact)}")
        print(f"epsilon_bound {_fmt(eps.paper_bound)}")
        print(f"variance_partial_sum_sqrt {_fmt(math.sqrt(inverse_square_sum(args.k)))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jetmorse",
        description="Numerical experiments with curvature statistics on "
                    "weighted projective jet spaces.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "wps-volume",
        help="compare the closed-form volume of a weighted projective space "
             "with a seeded Monte-Carlo fiber integral")
    p.add_argument("--weights", required=True,
                   help="comma separated weights a_s (globally coprime)")
    p.add_argument("--mults", required=True,
                   help="comma separated multiplicities r_s")
    p.add_argument("--p", type=float, default=None,
                   help="potential exponent (default: lcm of the weights)")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_wps_volume)

    p = sub.add_parser(
        "ikrn",
        help="harmonic-weighted simplex moment: exact rational, rational "
             "bracket, large-k asymptotic, or Monte-Carlo estimate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "bounds", "asymptotic", "mc"],
                   default="exact")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ikrn)

    p = sub.add_parser(
        "morse",
        help="Monte-Carlo q-index integrals over a model manifold sample, "
             "with the limiting comparison column, as CSV and JSON")
    p.add_argument("--model", required=True,
                   help="path to a model JSON document, or inline JSON")
    p.add_argument("--k-list", required=True, help="ascending jet orders")
    p.add_argument("--q", default="all",
                   help="index to evaluate, or 'all' for 0..n")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker threads, at most the number of CPUs this "
                        "process may run on (default: all of them)")
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser(
        "ci-threshold",
        help="jet-order threshold guaranteeing negativity margins for a "
             "twisted complete intersection, with error diagnostics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--a", default="0", help="twist weight (rational, e.g. 1 or 3/2)")
    p.add_argument("--k", type=int, default=None,
                   help="also print error diagnostics at this jet order")
    p.set_defaults(func=cmd_ci_threshold)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource ceiling: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
