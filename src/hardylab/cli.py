"""Command-line surface.

Usage shape:

    hardy constant  (--copson P | --arithmetic --weights DESC [--certified])
    hardy estimate  --mean MEAN --weights DESC --method METHOD [--N ...]
    hardy verify    {axioms,jcin,cut,decreasing,lsc-example,mu1-sweep} ...
    hardy explore   continuity ...

Exit codes: 0 success or pass (counterexample searches and exploratory
runs are informational and always 0 unless they error), 1 a verified
claim failed, 2 usage error, 3 a route's preconditions or a mean's
domain were violated, or a check's certificates do not decide it, 4 an
unexpected fault of the program (one line, no traceback).

Output is deterministic for a fixed argv and seed: JSON has sorted keys,
a "schema" tag and no timestamps; rational values print as "p/q". Number
literals on the command line parse exactly unless --float is given, an
option only of constant (for the --copson order), verify jcin, decreasing
and mu1-sweep, and explore continuity: weight descriptors never parse as
floats. --tol is a float either way (finite and >= 0), and --N, --trials
and --starts (estimate and explore continuity only) whole numbers >= 1.
The parser is built on the first main call of a process and reused;
handlers are looked up by name at dispatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .scalars import Number, format_number, is_exact, json_ready, parse_float, parse_number
from .kernel import MeanDomainError, check_axioms, step_profile
from .families import parse_mean, power_order
from .weights import coarsen, make_sequence
from .search import OptimizerConfig
from .hardy import (HypothesisViolation, InconclusiveError, arithmetic_hardy,
                    copson_constant, finite_lower_bound, kedlaya_estimate,
                    unweighted_limit)
from .checks import (jcin_sweep, lsc_example_table, mu1_sweep, verify_cut,
                     verify_decreasing, verify_jcin)

SCHEMA = "hardy-lab/1"
STARTS_HELP = ("starting points of the coordinate ascent; every mean named here is a power "
               "mean (built-in generators included) and solves each section once")


@dataclass
class Rendered:
    """One subcommand's outcome in every output shape."""

    code: int
    command: str
    config: dict
    report: dict
    text: str
    rows: Optional[List[List[object]]] = None


def _parse_values(text: str, float_mode: bool, exact_flag: str = "") -> List[Number]:
    """Every number literal of the command line: exact unless float_mode,
    and within the float range either way. exact_flag names an option whose
    list is exact whatever --float says, for the refusal of a float literal."""
    toks = [t.strip() for t in text.replace(";", ",").split(",")]
    if not any(toks):
        raise ValueError("empty value list")
    if "" in toks:
        raise ValueError(f"malformed value list {text!r}: empty entry")
    values: List[Number] = []
    for t in toks:
        if not float_mode and ("." in t or (("e" in t.lower()) and "inf" not in t.lower())):
            fix = (f"{exact_flag} takes exact ratios like p/q whatever --float says"
                   if exact_flag else
                   "write an exact ratio like p/q, or pass --float to accept float precision")
            raise ValueError(f"{t!r} is a float literal; {fix}")
        rounded = parse_float(t)  # refuses literals beyond the float range
        values.append(rounded if float_mode else parse_number(t))
    return values


def _parse_one(text: str, float_mode: bool, flag: str) -> Number:
    values = _parse_values(text, float_mode)
    if len(values) != 1:
        raise ValueError(f"{flag} takes one number, got {text!r}")
    return values[0]


def _number(text: str, float_mode: bool) -> Number:
    """_parse_one for an argparse type hook."""
    try:
        return _parse_one(text, float_mode, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _count(text: str) -> int:
    """argparse type of --N, --trials and --starts: a whole number >= 1,
    written exactly."""
    try:
        value = _number(text, False)
    except argparse.ArgumentTypeError:
        value = None
    if not (is_exact(value) and value == int(value) and value >= 1):
        raise argparse.ArgumentTypeError(f"takes a whole number >= 1, got {text!r}")
    return int(value)


def _real(text: str) -> float:
    """One float literal."""
    return float(_number(text, True))


def _tolerance(text: str) -> float:
    """argparse type of --tol: a float, finite and >= 0."""
    value = _real(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _kv_rows(payload: dict, prefix: str = "") -> List[List[object]]:
    rows: List[List[object]] = []
    for key in sorted(payload):
        val = payload[key]
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            rows.extend(_kv_rows(val, name + "."))
        elif isinstance(val, list):
            rows.append([name, json.dumps(val)])
        else:
            rows.append([name, val])
    return rows


def _write(args, rendered: Rendered) -> int:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        body = json.dumps({
            "schema": SCHEMA,
            "command": rendered.command,
            "config": json_ready(rendered.config),
            "report": json_ready(rendered.report),
        }, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        rows = rendered.rows if rendered.rows is not None else \
            [["field", "value"]] + _kv_rows(rendered.report)
        writer.writerows(rows)
        body = buf.getvalue()
    else:
        body = rendered.text if rendered.text.endswith("\n") else rendered.text + "\n"
    out_path = getattr(args, "output", None)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"hardy: cannot write {out_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(body)
    return rendered.code


def _verdict_text(rep) -> str:
    head = {"pass": "PASS", "fail": "FAIL",
            "counterexample_found": "COUNTEREXAMPLE FOUND",
            "inconclusive": "INCONCLUSIVE (no counterexample found)"}[rep.outcome]
    return f"{head}  check={rep.check} instances={rep.instances} margin={rep.margin:.6g}"


def _check_exit(rep) -> int:
    # searches without the theorem's hypotheses are informational
    if rep.outcome in ("counterexample_found", "inconclusive"):
        return 0
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_constant(args) -> Rendered:
    if args.copson is not None:
        if (args.weights, args.N, args.certified) != (None, None, None):
            raise ValueError("--copson takes none of --weights, --N and --certified, "
                             "which steer --arithmetic")
        p = _parse_one(args.copson, args.float, "--copson")
        value = copson_constant(p)
        report = {"constant": "copson", "order": format_number(p),
                  "value": json_ready(value)}
        return Rendered(0, "constant", {"copson": format_number(p)}, report,
                        format_number(value))
    if args.float:
        raise ValueError("--float reads only the --copson order; --arithmetic "
                         "weights stay exact")
    weights = "dyadic" if args.weights is None else args.weights
    N = 200 if args.N is None else args.N
    certified = args.certified is not None
    est = arithmetic_hardy(make_sequence(weights), N, certified=certified)
    text = format_number(est.value)
    if est.upper is not None:
        text += f"\ninterval: [{float(est.lower)!r}, {float(est.upper)!r}]"
    cfg = {"arithmetic": True, "weights": weights, "N": N, "certified": certified}
    return Rendered(0, "constant", cfg, est.to_json(), text)


def _cmd_estimate(args) -> Rendered:
    if args.method == "nonweighted-limit":
        # the limit runs on unit weights
        if args.weights is not None:
            raise ValueError("--method nonweighted-limit runs on unit weights; "
                             "it takes no --weights")
        weights = "ones"
    else:
        weights = "ones" if args.weights is None else args.weights
        lam = make_sequence(weights)
    mean = parse_mean(args.mean)
    if args.method == "finite":
        est = finite_lower_bound(mean, lam, args.N,
                                 OptimizerConfig(starts=args.starts, seed=args.seed))
    elif args.method == "kedlaya":
        est = kedlaya_estimate(mean, lam, args.N)
    else:
        est = unweighted_limit(mean, args.N)
    config = {"mean": args.mean, "weights": weights, "method": args.method,
              "N": args.N, "seed": args.seed, "starts": args.starts}
    text = (f"{est.kind}: value={est.value!r} direction={est.direction} "
            f"mean={est.mean} weights={est.weights} N={est.N}")
    return Rendered(0, "estimate", config, est.to_json(), text)


def _cmd_verify_axioms(args) -> Rendered:
    mean = parse_mean(args.mean)
    rep = check_axioms(mean, trials=args.trials, seed=args.seed, tol=args.tol)
    lines = []
    for name, oc in rep.outcomes.items():
        if oc.skipped:
            lines.append(f"SKIP {name}: {oc.skipped}")
        else:
            lines.append(f"{'PASS' if oc.passed else 'FAIL'} {name}: "
                         f"worst={oc.worst_violation:.3g} over {oc.trials} trials")
    lines.append(f"{'PASS' if rep.passed else 'FAIL'} overall for {mean.name}")
    cfg = {"mean": args.mean, "trials": args.trials, "seed": args.seed,
           "tol": args.tol}
    return Rendered(0 if rep.passed else 1, "verify-axioms", cfg, rep.to_json(),
                    "\n".join(lines))


def _cmd_verify_jcin(args) -> Rendered:
    mean = parse_mean(args.mean)
    if (args.x is None) != (args.w is None):
        raise ValueError("--x and --w must be given together")
    if args.x is not None:
        x = _parse_values(args.x, args.float)
        w = _parse_values(args.w, False, "--w")
        rep = verify_jcin(mean, x, w, tol=args.tol)
        cfg = {"mean": args.mean, "x": args.x, "w": args.w, "tol": args.tol}
    else:
        rep = jcin_sweep(mean, trials=args.trials, seed=args.seed, tol=args.tol)
        cfg = {"mean": args.mean, "trials": args.trials, "seed": args.seed,
               "tol": args.tol}
    return Rendered(_check_exit(rep), "verify-jcin", cfg, rep.to_json(),
                    _verdict_text(rep))


def _parse_blocks(spec: str, n_terms: Optional[int]) -> List[int]:
    parts = [int(t) for t in spec.split(",") if t.strip()]
    if not parts:
        raise ValueError("empty --blocks")
    if len(parts) == 1 and n_terms is not None:
        return parts * n_terms
    return parts


def _cmd_verify_cut(args) -> Rendered:
    lam = make_sequence(args.weights)
    blocks = _parse_blocks(args.blocks, args.N)
    n_terms = args.N if args.N is not None else len(blocks)
    if n_terms > len(blocks):
        raise ValueError("--N asks for more truncations than --blocks covers")
    rep = verify_cut(parse_mean(args.mean), coarsen(lam, blocks), lam, n_terms)
    cfg = {"mean": args.mean, "weights": args.weights, "blocks": args.blocks,
           "N": n_terms}
    return Rendered(_check_exit(rep), "verify-cut", cfg, rep.to_json(),
                    _verdict_text(rep))


def _cmd_verify_decreasing(args) -> Rendered:
    mean = parse_mean(args.mean)
    x = _parse_values(args.x, args.float)
    w = _parse_values(args.w, False, "--w")
    grid = _parse_values(args.grid, args.float)
    f = step_profile(x, w)
    rep = verify_decreasing(mean, f, grid, tol=args.tol)
    cfg = {"mean": args.mean, "x": args.x, "w": args.w, "grid": args.grid,
           "tol": args.tol}
    return Rendered(_check_exit(rep), "verify-decreasing", cfg, rep.to_json(),
                    _verdict_text(rep))


def _cmd_verify_lsc(args) -> Rendered:
    table = lsc_example_table(args.kmax, args.N)
    lines = [f"k={k:3d}  value={v!r}" for k, v in table.rows]
    lines.append(f"baseline={table.baseline!r}")
    lines.append(f"limit={table.limit_value!r} converged={table.converged}")
    ok = table.converged and table.tail_min >= table.baseline - 1e-9
    cfg = {"kmax": args.kmax, "N": args.N}
    return Rendered(0 if ok else 1, "verify-lsc-example", cfg, table.to_json(),
                    "\n".join(lines), table.csv_rows())


def _cmd_verify_mu1(args) -> Rendered:
    mean = parse_mean(args.mean)
    cap = float(_parse_one(args.cap, args.float, "--cap")) if args.cap is not None else None
    rep = mu1_sweep(mean, trials=args.trials, N=args.N, seed=args.seed,
                    cap=cap, tol=args.tol)
    cfg = {"mean": args.mean, "trials": args.trials, "N": args.N,
           "seed": args.seed, "cap": args.cap, "tol": args.tol}
    return Rendered(_check_exit(rep), "verify-mu1-sweep", cfg, rep.to_json(),
                    _verdict_text(rep))


def _search_fields(est) -> dict:
    """The solver and certificate of a finite-section estimate."""
    return {k: est.diagnostics[k] for k in ("solver", "iterations", "upper_section", "gap")}


def _cmd_explore_continuity(args) -> Rendered:
    mean = parse_mean(args.mean)
    cfg_opt = OptimizerConfig(starts=args.starts, seed=args.seed)
    rows_out = []
    for s in _parse_values(args.s_grid, args.float):
        if not (0 < s < 1):
            raise ValueError("--s-grid entries must lie in (0, 1)")
        lam = make_sequence(f"geometric:{format_number(s)}")
        est = finite_lower_bound(mean, lam, args.N, cfg_opt)
        rows_out.append({"s": format_number(s), "value": est.value, **_search_fields(est)})
    ones_est = finite_lower_bound(mean, make_sequence("ones"), args.N, cfg_opt)
    p = power_order(mean)
    cap = None if p is None else copson_constant(p)
    report = {
        "rows": rows_out,
        "ones_value": ones_est.value,
        "ones_search": _search_fields(ones_est),
        "closed_form_cap": json_ready(cap),
        "note": "exploratory continuity sweep; no pass/fail semantics",
    }
    lines = [f"s={r['s']:>8}  value={r['value']!r}" for r in rows_out]
    lines.append(f"ones      value={ones_est.value!r}")
    if cap is not None:
        lines.append(f"closed-form cap at unit weights: {cap!r}")
    csv_rows = [["s", "value", "gap_to_ones"]]
    csv_rows += [[r["s"], repr(r["value"]), repr(ones_est.value - r["value"])]
                 for r in rows_out]
    csv_rows.append(["ones", repr(ones_est.value), repr(0.0)])
    cfg = {"mean": args.mean, "s_grid": args.s_grid, "N": args.N,
           "seed": args.seed}
    return Rendered(0, "explore-continuity", cfg, report, "\n".join(lines),
                    csv_rows)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, handler: str, *, fmt_default: str = "text",
                reads_floats: bool = False) -> None:
    """Output options, --float where the subcommand reads number literals,
    and the handler's name, which main looks up when it dispatches."""
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default=fmt_default, help="output format")
    p.add_argument("--output", help="write the report to this path instead of stdout")
    if reads_floats:
        p.add_argument("--float", action="store_true",
                       help="parse numeric literals as floats instead of exact rationals")
    p.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hardy",
        description="Weighted means, their best constants, and structural checks.")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "constant",
        help="closed-form constants",
        description="Closed-form best constants: the power-mean constant "
                    "(1-p)^(-1/p) and the arithmetic-mean constant as an "
                    "exact partial sum, optionally certified into an interval "
                    "with a tail bound.")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--copson", metavar="P", help="power-mean order")
    g.add_argument("--arithmetic", action="store_true",
                   help="arithmetic-mean constant of --weights")
    c.add_argument("--weights", help="weight descriptor of --arithmetic (default dyadic)")
    c.add_argument("--N", type=_count, help="truncation length of --arithmetic (default 200)")
    c.add_argument("--certified", action="store_true", default=None,
                   help="also bound the tail of --arithmetic, reporting a two-sided "
                        "interval")
    _add_common(c, "_cmd_constant", reads_floats=True)

    e = sub.add_parser(
        "estimate",
        help="constant estimation routes",
        description="Estimates of the best constant: finite-section search "
                    "(lower bound), the diverging-weights substitution "
                    "route, and the unweighted limit n*M(1,1/2,...,1/n). "
                    "For the arithmetic mean, 'hardy constant --arithmetic' "
                    "gives the exact partial sum.")
    e.add_argument("--mean", default="power:1", help="mean descriptor")
    e.add_argument("--weights", help="weight descriptor (default ones; not with "
                                     "--method nonweighted-limit)")
    e.add_argument("--method", required=True,
                   choices=("finite", "kedlaya", "nonweighted-limit"))
    e.add_argument("--N", type=_count, default=256)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--starts", type=_count, default=8, help=STARTS_HELP)
    _add_common(e, "_cmd_estimate", fmt_default="json")

    v = sub.add_parser("verify", help="structural checks")
    vs = v.add_subparsers(dest="verb", required=True)

    va = vs.add_parser(
        "axioms",
        help="weighted-mean axioms",
        description="Randomized check of the four weighted-mean axioms "
                    "(nullhomogeneity, reduction under interleaving, the "
                    "mean-value property, elimination of vanishing weights) "
                    "plus any flags the mean declares.")
    va.add_argument("--mean", required=True)
    va.add_argument("--trials", type=_count, default=200)
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(va, "_cmd_verify_axioms")

    vj = vs.add_parser(
        "jcin",
        help="rearrangement comparison",
        description="Prefix means never exceed those of the equal-sum "
                    "nonincreasing rearrangement (for symmetric monotone "
                    "concave means). Without those flags this runs as a "
                    "counterexample search.")
    vj.add_argument("--mean", required=True)
    vj.add_argument("--x", help="comma-separated values for a single instance")
    vj.add_argument("--w", help="comma-separated rational weights, exact even with --float")
    vj.add_argument("--trials", type=_count, default=200)
    vj.add_argument("--seed", type=int, default=0)
    vj.add_argument("--tol", type=_tolerance, default=1e-10)
    _add_common(vj, "_cmd_verify_jcin", reads_floats=True)

    vc = vs.add_parser(
        "cut",
        help="coarsening comparison",
        description="Summing consecutive weight blocks never raises the "
                    "constant, compared at matched truncations: exact "
                    "partial sums for the arithmetic mean, certified "
                    "finite-section bounds for other power orders (exit 3 "
                    "where they do not decide).")
    vc.add_argument("--mean", default="arithmetic")
    vc.add_argument("--weights", required=True)
    vc.add_argument("--blocks", required=True,
                    help="uniform block size, or a comma list of leading sizes")
    vc.add_argument("--N", type=_count, help="number of coarse truncations to check")
    _add_common(vc, "_cmd_verify_cut")

    vd = vs.add_parser(
        "decreasing",
        help="running means of step profiles",
        description="The running mean of a nonincreasing step profile over "
                    "(0, u] is nonincreasing in u, checked on a grid.")
    vd.add_argument("--mean", required=True)
    vd.add_argument("--x", required=True, help="step values")
    vd.add_argument("--w", required=True,
                    help="step widths (weights), exact even with --float")
    vd.add_argument("--grid", required=True, help="comma-separated u values")
    vd.add_argument("--tol", type=_tolerance, default=1e-9)
    _add_common(vd, "_cmd_verify_decreasing", reads_floats=True)

    vl = vs.add_parser(
        "lsc-example",
        help="semicontinuity example family",
        description="Constants of dyadic weights with one term bumped to 1: "
                    "they converge to baseline + 1/2 while the weights "
                    "converge to plain dyadic, the one-sided jump that lower "
                    "semicontinuity permits.")
    vl.add_argument("--kmax", type=int, default=25)
    vl.add_argument("--N", type=_count, default=200)
    _add_common(vl, "_cmd_verify_lsc")

    vm = vs.add_parser(
        "mu1-sweep",
        help="sup-at-unit-weights cap",
        description="Random rational weights never beat the unweighted "
                    "constant: every finite-section bound must stay below "
                    "the cap (closed form for power means) plus --tol.")
    vm.add_argument("--mean", required=True)
    vm.add_argument("--trials", type=_count, default=50)
    vm.add_argument("--N", type=_count, default=256)
    vm.add_argument("--seed", type=int, default=0)
    vm.add_argument("--cap", help="override the closed-form cap")
    vm.add_argument("--tol", type=_tolerance, default=1e-3)
    _add_common(vm, "_cmd_verify_mu1", reads_floats=True)

    x = sub.add_parser("explore", help="exploratory sweeps (no pass/fail)")
    xs = x.add_subparsers(dest="verb", required=True)
    xc = xs.add_parser(
        "continuity",
        help="constants along geometric weights approaching unit weights",
        description="Finite-section bounds for geometric weight ratios "
                    "s -> 1, against the unit-weight value. Informational "
                    "only: whether the constant varies continuously here is "
                    "an open question, not a checked claim.")
    xc.add_argument("--mean", required=True)
    xc.add_argument("--s-grid", default="1/2,3/4,9/10", dest="s_grid")
    xc.add_argument("--N", type=_count, default=128)
    xc.add_argument("--seed", type=int, default=0)
    xc.add_argument("--starts", type=_count, default=4, help=STARTS_HELP)
    _add_common(xc, "_cmd_explore_continuity", reads_floats=True)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built on the first main call of the process
    (not at import) and reused; parse_args leaves it unchanged."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        rendered = globals()[args.handler](args)
    except (HypothesisViolation, InconclusiveError, MeanDomainError) as exc:
        print(f"hardy: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"hardy: {exc}", file=sys.stderr)
        print("run 'hardy <command> --help' for usage", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program: one line, no traceback
        print(f"hardy: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return _write(args, rendered)


if __name__ == "__main__":
    sys.exit(main())
