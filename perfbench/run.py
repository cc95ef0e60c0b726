"""Benchmark for hardylab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {sections,exact,means} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; hardylab is imported from its src/.
The whole load is this one process on one thread: BLAS thread counts and
HARDY_THREADS are pinned to 1 before numpy is imported.

A run sets up the workload (import hardylab, build the inputs from the
seed) several times and keeps the median, then repeats whole rounds of
the workload's fixed operation list until the next round would end past
--seconds (at least one round). Every output of every round is checked
against computations made apart from the program. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: setup_s, wall_s, op_s_p50,
cli_s, peak_rss_mb. With --trace 1 untraced and traced rounds alternate;
the metrics are per layer, from the traced rounds, together with the
tracing overhead. The result and the per-function trace are also written
under .perfbench_out/ in the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "HARDY_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("scalars", "kernel", "families", "weights", "search", "hardy", "checks", "cli")
SETUP_REPEATS = 9

import selftest  # noqa: E402  (after the thread pins, since it imports numpy)
import tracer as T  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = (
    "search.solves", "search.solve_s", "search.evals", "search.eval_us",
    "search.updates", "search.check_s",
    "hardy.calls", "hardy.self_s", "hardy.exact_sum_s", "hardy.substitution_s",
    "checks.calls", "checks.self_s", "checks.rearrange_s", "checks.cut_s",
    "weights.calls", "weights.self_s", "weights.floats_s",
    "kernel.evaluate_calls", "kernel.evaluate_s", "kernel.axioms_s",
    "families.mean_calls", "families.mean_s",
    "cli.calls", "cli.self_s", "cli.out_bytes",
    "trace.wall_s", "trace.overhead_s",
)
COUNT_METRICS = {"search.solves", "search.evals", "search.updates", "hardy.calls",
                 "checks.calls", "weights.calls", "kernel.evaluate_calls",
                 "families.mean_calls", "cli.calls", "cli.out_bytes"}


def import_hardylab() -> SimpleNamespace:
    """Import hardylab afresh from the checkout's src/ (module-level work
    runs again each time; numpy stays imported)."""
    for name in [n for n in sys.modules if n == "hardylab" or n.startswith("hardylab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hardylab")
    if Path(pkg.__file__).resolve().parent != SRC / "hardylab":
        raise ImportError(f"hardylab was imported from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"hardylab.{name}") for name in MODULES}
    return SimpleNamespace(package=pkg, **mods)


@dataclass
class Round:
    times: List[float] = field(default_factory=list)  # one per operation
    failed: List[bool] = field(default_factory=list)
    out_bytes: int = 0
    problems: List[str] = field(default_factory=list)


def run_round(ops) -> Round:
    """Run every operation once, timing each call alone, then check it."""
    r = Round()
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            out = op.run()
            r.times.append(clock() - start)
        except Exception as exc:  # the boundary of one operation: record, go on
            r.times.append(clock() - start)
            r.failed.append(True)
            if op.expect is None or not isinstance(exc, op.expect):
                r.problems.append(f"{op.name}: unexpected {traceback.format_exc()}")
            continue
        r.failed.append(False)
        if op.cli:
            r.out_bytes += out[1].stat().st_size
        try:
            op.check(out)
        except Exception as exc:  # a wrong output, or one the check cannot read
            r.problems.append(f"{op.name}: {exc!r}")
    return r


def setup(workload: str, seed: int, out_dir: Path):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mods = import_hardylab()
        ops = WORKLOADS[workload](mods, seed, out_dir)
        times.append(time.perf_counter() - start)
    return mods, ops, statistics.median(times)


def op_times(rounds: List[Round]) -> List[float]:
    """Each operation's median time over the rounds. The machine's speed
    drifts by a fifth over seconds; the per-operation median moved less
    between runs than any one round, the fastest round or the per-operation
    minimum."""
    return [statistics.median(ts) for ts in zip(*(r.times for r in rounds))]


def layer_metrics(totals: Dict[str, float], rnd: Round) -> Dict[str, float]:
    out = {name: float(totals.get(name, 0.0)) for name in PER_LAYER}
    evals = out["search.evals"]
    out["search.eval_us"] = totals.get("search.eval_s", 0.0) / evals * 1e6 if evals else 0.0
    out["cli.out_bytes"] = float(rnd.out_bytes)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hardylab" / "__init__.py").is_file():
        print(f"perfbench: no hardylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    problems = selftest.run_all()
    if problems:
        print("perfbench: a check accepted a wrong value:\n" + "\n".join(problems),
              file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    mods, ops, setup_s = setup(args.workload, args.seed, out_dir)
    layers = {name: getattr(mods, name) for name in T.LAYERS}
    tracer = T.Tracer(layers, [mods.package] + [getattr(mods, n) for n in MODULES])

    plain: List[Round] = []
    traced: List[Round] = []
    layer_rows: List[Dict[str, float]] = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        plain.append(run_round(ops))
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(ops))
            finally:
                tracer.uninstall()
            layer_rows.append(layer_metrics(tracer.totals, traced[-1]))
        now = time.perf_counter()
        longest = max(longest, now - start)
        if now - begin + longest > args.seconds:
            break

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    correct = not problems
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads running")
        correct = False
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name in PER_LAYER:
            values = [row[name] for row in layer_rows]
            if name in COUNT_METRICS and len(set(values)) != 1:
                print(f"perfbench: count {name} differs between rounds: {values}",
                      file=sys.stderr)
                correct = False
            metrics[name] = statistics.median(values)
        metrics["trace.wall_s"] = sum(op_times(traced))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(op_times(plain))
        units = {name: ("count" if name in COUNT_METRICS else
                        "us" if name.endswith("_us") else "s") for name in PER_LAYER}
        units["cli.out_bytes"] = "bytes"
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": len(traced),
            "functions": {k: {"calls": v[0], "total_s": v[1]}
                          for k, v in sorted(tracer.per_function.items())},
        }, indent=1) + "\n")
    else:
        times = op_times(plain)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(times),
            "op_s_p50": statistics.median(
                t for t, failed in zip(times, plain[0].failed) if not failed),
            "cli_s": sum(t for t, op in zip(times, ops) if op.cli),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "cli_s": "s",
                 "peak_rss_mb": "MB"}

    result = {
        "correct": correct,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(sum(r.failed) for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"rounds-{args.workload}{'-trace' if args.trace else ''}.json").write_text(json.dumps({
        "ops": [op.name for op in ops],
        "plain": [r.times for r in plain], "traced": [r.times for r in traced],
    }) + "\n")
    (OUT / f"result-{args.workload}{'-trace' if args.trace else ''}.json").write_text(line + "\n")
    print(f"perfbench: {args.workload} seed={args.seed} rounds={len(plain)} "
          f"ops/round={len(ops)}", file=sys.stderr)
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
