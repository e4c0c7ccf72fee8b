"""Command line front end.

Subcommands: analyze, sweep, sample, coef-convergence. Outputs are JSON or
CSV with fixed schemas ('.' decimals, 12 significant digits). Exit codes:
0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
from fractions import Fraction
from typing import Any, Dict, List, Optional

from . import bounds, ensemble, growth, sampler
from .specfile import SpecFile, SpecFileError, load_spec_file


#: Most points --gamma-grid may hold; a larger grid exits 2 before any is built.
MAX_GRID_POINTS = 10_001
#: Largest --j coef-convergence accepts; a row costs about j^2 log n bigint work (2-vCPU
#: VM: 0.3 s at j = 100, n = 3e6; 4.3 s at j = 300, n = 3e5). A larger j exits 2.
MAX_J = 100
#: Most --n-list entries coef-convergence accepts; a longer list exits 2 before any row
#: is computed. A row at j = MAX_J costs 0.02 s (alldeg2_spc3, n = 22 947, the largest
#: whose limit is finite), 0.1 s (bound_mix, n = 73 500) and 0.57 s (Hamming-7 with
#: lambda_3 = 1, n = 7e12; a zero limit admits any n up to MAX_COEF_N) on a 2-vCPU
#: VM, so a full list of the slowest of these takes about a minute.
MAX_N_LIST = 100
#: Largest --n-list entry; a larger one exits 2 before any row is computed. A row at
#: j = MAX_J of Hamming-7 with lambda_3 = 1 takes 0.14, 0.57, 1.4 and 4.7 s at n = 7e6,
#: 7e12, 7e20 and 7e30 (2-vCPU VM): the cap keeps the slowest row near 0.57 s.
MAX_COEF_N = 10**13
#: Largest sample --n; a trial's column pass grows about as n^2.1 where k <= 28 (2-vCPU
#: VM, SPC-3 q = 3, one row per column: 0.1-0.2 s at n = 6000, 5.5-6.9 s and 180 MB peak
#: at n = 30 000, the edge cap). No (3,6) trial is reduced, at any threshold.
MAX_N = 30_000
#: Most sample --trials; a trial costs at least its draw, about 0.006-0.009 ms (the
#: seeds take one array pass per run), and an A7-sized one (n = 147, d <= 2, screened
#: a chunk at a time) about 0.02 ms (2-vCPU VM), so the cap is about 2 s of such
#: trials: 100 000 A7 trials take 1.8 s with start-up.
MAX_TRIALS = 100_000


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _tagged(value: Any, formula: str) -> Dict[str, Any]:
    return {"value": value, "formula": formula}


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    m = spec.mixture
    report: Dict[str, Any] = {
        "cn_types": [
            {"s": t.s, "k": t.k, "min_dist": t.r} for t in m.types
        ],
        "rho": [float(r) for r in m.rho],
        "cns_per_edge": _tagged(ensemble.cns_per_edge(m), "sum_t rho_t / s_t"),
        "cn_type_fractions": _tagged(
            list(ensemble.cn_type_fractions(m)),
            "rho_t / (s_t * cns_per_edge)",
        ),
        "weight2_density": _tagged(
            ensemble.weight_two_density(m),
            "2 * sum over min-dist-2 types of rho_t * A2_t / s_t",
        ),
    }
    view = spec.vn_regular
    if view is not None:
        rate = ensemble.design_rate(view)
        curve = growth.find_critical_ratio(view)
        block: Dict[str, Any] = {
            "q": view.q,
            "design_rate": _tagged(rate, "1 - q * (1 - sum_t rho_t k_t / s_t)"),
            "critical_ratio": _tagged(
                curve.critical_ratio,
                "smallest positive root of the weight-spectrum growth rate",
            ),
            "verdict": curve.verdict,
            "root_located": curve.root_located,
        }
        if rate < 0:
            block["warning_negative_rate"] = True
        report["vn_regular"] = block
    view2 = spec.unstructured
    if view2 is not None:
        ub = bounds.min_distance_prob_bound(view2)
        report["unstructured"] = {
            "degree_two_edge_fraction": _tagged(
                ensemble.degree_two_edge_fraction(view2), "lambda'(0) = lambda_2"
            ),
            "prob_min_distance_one": _tagged(
                bounds.prob_min_distance_one(view2),
                "1 - exp(-lambda'(0) * weight2_density / 2)",
            ),
            "min_distance_prob_bound": {
                "value": ub.value,
                "vacuous": ub.vacuous,
                "product": ub.product,
                "formula": "1 / sqrt(1 - lambda'(0) * weight2_density) - 1",
            },
        }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def _parse_grid(text: str) -> List[Fraction]:
    try:
        a_s, b_s, step_s = text.split(":")
        a, b, step = (ensemble.to_fraction(x) for x in (a_s, b_s, step_s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(
            f"--gamma-grid: expected 'a:b:step', got {text!r}: {exc}") from exc
    if step <= 0 or b < a:
        raise SpecFileError(f"--gamma-grid: need a <= b and step > 0, got {text!r}")
    count = (b - a) // step + 1
    if count > MAX_GRID_POINTS:
        raise SpecFileError(f"--gamma-grid: {text!r} has {count} points, "
                            f"more than the cap of {MAX_GRID_POINTS}")
    grid = [a + i * step for i in range(count)]
    # sweep prints each point as a float; points it cannot tell apart are refused
    printed = [_fmt(float(x)) for x in grid]
    for i in range(1, count):
        if printed[i] == printed[i - 1]:
            raise SpecFileError(
                f"--gamma-grid: points {_exact(grid[i - 1])} and {_exact(grid[i])} "
                f"of {text!r} both print as {printed[i]}")
    return grid


def _exact(x: Fraction) -> str:
    """x in decimal, exact unless it needs more than 30 significant digits."""
    quotient = decimal.Context(prec=30).divide(decimal.Decimal(x.numerator),
                                               decimal.Decimal(x.denominator))
    return f"{quotient:g}"


def _select_view(spec: SpecFile, flag: Optional[str], command: str):
    """The VN view named by flag (None: the spec's only one); notes an ignored other."""
    both = spec.vn_regular is not None and spec.unstructured is not None
    if flag is None:
        if both:
            raise SpecFileError("spec has both 'q' and 'lambda'; pick one with "
                                "--ensemble {vn-regular,unstructured}")
        flag = "vn-regular" if spec.vn_regular is not None else "unstructured"
    if flag == "vn-regular":
        view, field, ignored = spec.vn_regular, "'q' field (VN-regular view)", "lambda"
    else:
        view, field, ignored = spec.unstructured, "'lambda' field (unstructured view)", "q"
    if view is None:
        raise SpecFileError(f"spec has no {field}")
    if both:
        print(f"notice: ignoring the spec's {ignored!r} block for {command}",
              file=sys.stderr)
    return view


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    if len(spec.mixture.types) != 2:
        raise SpecFileError(
            f"sweep needs exactly 2 CN types, spec has {len(spec.mixture.types)}"
        )
    view = _select_view(spec, "vn-regular", "sweep")
    grid = _parse_grid(args.gamma_grid)
    points = growth.two_type_sweep(
        spec.mixture.types[0], spec.mixture.types[1], view.q, grid
    )
    lines = ["gamma1,rho1,design_rate,critical_ratio,verdict,delta_gv"]
    for p in points:
        lines.append(
            ",".join([
                _fmt(p.gamma1), _fmt(p.rho1), _fmt(p.rate),
                _fmt(p.critical_ratio), p.verdict, _fmt(p.delta_gv),
            ])
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    for flag, value, cap in (("--n", args.n, MAX_N), ("--trials", args.trials, MAX_TRIALS)):
        if value > cap:
            raise SpecFileError(f"{flag}: {value} is more than the cap of {cap}")
    if args.seed < 0:
        raise SpecFileError(f"--seed must be a non-negative integer, got {args.seed}")
    # the threshold floor(alpha * n) needs a finite product; max() keeps a huge
    # negative --n, which the plan refuses, from overflowing it here
    if not math.isfinite(args.alpha * max(args.n, 1)):
        raise SpecFileError(f"--alpha must make alpha * n finite, got {args.alpha} "
                            f"at n = {args.n}")
    if args.alpha < 0:
        raise SpecFileError(f"--alpha must be non-negative, got {args.alpha}")
    spec = load_spec_file(args.spec)
    view = _select_view(spec, args.ensemble, "sample")
    stats = sampler.estimate_dmin_stats(
        view, args.n, args.trials, args.alpha, args.seed
    )
    measurable = stats.trials - stats.count_k_over_limit
    record: Dict[str, Any] = {
        "ensemble": sampler.VN_REGULAR
        if isinstance(view, ensemble.VnRegularEnsemble) else sampler.UNSTRUCTURED,
        "n": stats.n,
        "trials": stats.trials,
        "seed": stats.seed,
        "threshold_alpha": stats.threshold_alpha,
        "threshold_d": stats.threshold_d,
        "count_eq_one": stats.count_eq_one,
        "frac_eq_one": stats.count_eq_one / stats.trials,
        "wilson_ci_eq_one": list(stats.wilson_ci_eq_one),
        "count_le_threshold": stats.count_le_threshold,
        "frac_le_threshold": (
            stats.count_le_threshold / measurable if measurable else None
        ),
        "wilson_ci_le_threshold": list(stats.wilson_ci_le_threshold),
        "count_k_over_limit": stats.count_k_over_limit,
    }
    warnings: List[str] = []
    if isinstance(view, ensemble.VnRegularEnsemble):
        curve = growth.find_critical_ratio(view)
        record["reference"] = {
            "critical_ratio": curve.critical_ratio,
            "verdict": curve.verdict,
        }
        if curve.critical_ratio is None or args.alpha > curve.critical_ratio:
            warnings.append(
                "threshold alpha exceeds the critical ratio; the vanishing "
                "guarantee does not cover this threshold"
            )
    else:
        ub = bounds.min_distance_prob_bound(view)
        record["reference"] = {
            "prob_min_distance_one": bounds.prob_min_distance_one(view),
            "min_distance_prob_bound": ub.value,
            "min_distance_prob_bound_vacuous": ub.vacuous,
        }
    record["warnings"] = warnings
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_text(args.out, json.dumps(record, indent=2) + "\n")
    return 0


def cmd_coef_convergence(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    view = _select_view(spec, "unstructured", "coef-convergence")
    if args.j < 1:
        raise SpecFileError(f"--j must be a positive integer, got {args.j}")
    if args.j > MAX_J:
        raise SpecFileError(f"--j: {args.j} is more than the cap of {MAX_J}")
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x]
    except ValueError as exc:
        raise SpecFileError("--n-list: expected comma-separated integers") from exc
    if len(n_list) > MAX_N_LIST:
        raise SpecFileError(f"--n-list: {len(n_list)} block lengths, more than the cap "
                            f"of {MAX_N_LIST}")
    for n in n_list:
        if n > MAX_COEF_N:
            raise SpecFileError(f"--n-list: {n} is more than the cap of {MAX_COEF_N}")
    rows = bounds.even_coef_convergence(view, args.j, n_list)
    lines = ["n,cn_total,edges,j,exact_coef,limit_value,ratio"]
    for r in rows:
        ratio = "" if math.isnan(r.ratio) else _fmt(r.ratio)
        lines.append(
            f"{r.n},{r.cn_total},{r.edges},{r.j},{r.exact_coef},"
            f"{_fmt(r.limit_value)},{ratio}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldpc",
        description="Minimum-distance analysis of irregular GLDPC code ensembles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="derived parameters and verdicts as JSON")
    p.add_argument("spec")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="two-type mixture sweep as CSV")
    p.add_argument("spec")
    p.add_argument("--gamma-grid", default="0:1:0.05",
                   help=f"a:b:step node fractions, at most {MAX_GRID_POINTS} points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", help="Monte Carlo minimum-distance statistics")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True, help=f"block length, at most {MAX_N}")
    p.add_argument("--trials", type=int, required=True, help=f"at most {MAX_TRIALS}")
    p.add_argument("--alpha", type=float, required=True,
                   help="relative distance threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ensemble", choices=["vn-regular", "unstructured"],
                   default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser(
        "coef-convergence",
        help="exact vs limiting small-weight coefficients as CSV",
    )
    p.add_argument("spec")
    p.add_argument("--j", type=int, required=True,
                   help=f"half the target weight, at most {MAX_J}")
    p.add_argument("--n-list", required=True,
                   help=f"comma-separated block lengths, at most {MAX_N_LIST}, "
                        f"each at most {MAX_COEF_N}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coef_convergence)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # SpecFileError, DivisibilityError and other bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
