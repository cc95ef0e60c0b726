"""The benchmark's three workloads.

Each workload is a fixed list of operations built from the seed. An
operation calls into hardylab and returns its output; its check compares
that output with a computation made apart from the program (see
verify.py) and raises CheckFailed on a mismatch. Every operation builds
its own weight sequences, so no lazily filled cache carries over from
one round to the next and every round does the same work.

- sections: finite-section searches, where `search` does most of the work.
- exact: exact Fraction routes, with no search at all.
- means: prefix means over large arrays and the scalar mean kernel.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

import verify as V


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = False
    # exception the operation raises every time today (a known fault): it
    # counts as failed, not as a wrong output; once the fault is mended the
    # operation succeeds and its output is checked like any other
    expect: Optional[type] = None


def _rationals(rng: random.Random, n: int, num: int = 9, den: int = 9) -> List[Fraction]:
    return [Fraction(rng.randint(1, num), rng.randint(1, den)) for _ in range(n)]


def _floats(fracs: Sequence[Fraction]) -> np.ndarray:
    return np.array([float(f) for f in fracs])


def _text(fracs: Sequence[Fraction]) -> str:
    return ",".join(f"{f.numerator}/{f.denominator}" if f.denominator != 1
                    else str(f.numerator) for f in fracs)


def _composition(rng: random.Random, parts: int, total: int) -> List[int]:
    """Random block sizes >= 1 with a fixed count and a fixed sum, so the
    work of a cut walk does not depend on the seed."""
    sizes = [1] * parts
    for _ in range(total - parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def _geometric_terms(q: Fraction, N: int) -> List[Fraction]:
    return [q ** n for n in range(1, N + 1)]


class _Cli:
    """In-process `hardy` commands writing to files under out_dir."""

    def __init__(self, mods, out_dir: Path):
        self.mods = mods
        self.out_dir = out_dir

    def op(self, name: str, argv: List[str], check: Callable[[dict], None]) -> Op:
        path = self.out_dir / f"{name}.out"
        full = argv + ["--output", str(path)]

        def run():
            return self.mods.cli.main(full), path

        def check_output(out):
            code, p = out
            V.check_equal(f"{name} exit code", code, 0)
            check(json.loads(p.read_bytes()))

        return Op(name, run, check_output, cli=True)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

# The search's work per solve is a whole number of coordinate sweeps per
# start, so one solve's cost moves by a sixth when one start needs one
# more sweep. Many small solves average that out across seeds. The
# search seed (random starting points) is fixed: the benchmark seed only
# makes the weights.
SECTIONS_RANDOM = 10      # power:1/2 solves on random rational weights
SECTIONS_RANDOM_N = 24
# power:1 solves with an exact oracle; at N = 64 one takes about as long as
# a random solve at N = 24, so op_s_p50 falls inside one cluster of
# similar operations instead of between two
SECTIONS_ORACLE_N = 64
SECTIONS_CUBE_N = 24
SECTIONS_STARTS = 4
SEARCH_SEED = 0
COPSON_CAP_HALF = 4.0 + 1e-3


def build_sections(mods, seed: int, out_dir: Path) -> List[Op]:
    rng = random.Random(f"perfbench:sections:{seed}")
    families = mods.families
    cfg = mods.search.OptimizerConfig(starts=SECTIONS_STARTS, seed=SEARCH_SEED)
    sqrt_mean = families.power(0.5)
    half = V.power_generator(0.5)
    ops: List[Op] = []

    def solve_op(name, mean, w, gen, **expect):
        def run():
            return mods.search.maximize_hardy_ratio(mean, w, cfg)

        def check(res):
            V.check_search(name, res.value, res.witness, w, gen, **expect)
        return Op(name, run, check)

    for i in range(SECTIONS_RANDOM):
        w = _floats(_rationals(rng, SECTIONS_RANDOM_N))
        ops.append(solve_op(f"half-random-{i}", sqrt_mean, w, half, cap=COPSON_CAP_HALF))

    # power:1 through the estimation route, against the oracle sum w_n/W_n
    N = SECTIONS_ORACLE_N
    oracle_terms = {
        "ones": [Fraction(1)] * N,
        "dyadic": _geometric_terms(Fraction(1, 2), N),
        "geometric:1/3": _geometric_terms(Fraction(1, 3), N),
    }
    arith = families.power(1)
    for desc, terms in oracle_terms.items():
        w = _floats(terms)
        oracle = functools.cache(lambda terms=terms: V.arithmetic_oracle(terms))

        def run(desc=desc):
            return mods.hardy.finite_lower_bound(arith, mods.weights.make_sequence(desc), N, cfg)

        def check(est, desc=desc, w=w, oracle=oracle):
            V.check_search(f"power:1 {desc}", est.value, est.witness, w,
                           V.power_generator(1.0), oracle=oracle())
        ops.append(Op(f"arith-{desc}", run, check))

    # a user-defined generator: the path a power-family solver would not replace
    cube = families.quasiarithmetic(families.make_generator("cube", lambda t: t ** 3, np.cbrt))
    ops.append(solve_op("cube-random", cube, _floats(_rationals(rng, SECTIONS_CUBE_N)), V.CUBE))

    cli = _Cli(mods, out_dir)
    est_n = 24
    dyadic = np.ldexp(1.0, -np.arange(1, est_n + 1))

    def check_estimate(doc):
        rep = doc["report"]
        V.check_search("cli finite", rep["value"], rep["witness"], dyadic, half,
                       cap=COPSON_CAP_HALF)

    ops.append(cli.op("cli-estimate-finite", [
        "estimate", "--method", "finite", "--mean", "power:1/2", "--weights", "dyadic",
        "--N", str(est_n), "--starts", "2", "--seed", str(SEARCH_SEED), "--format", "json"],
        check_estimate))

    # orders 0 and -1 on geometric weights, under their closed-form caps e and 2
    geo_half = 0.5 ** np.arange(1, est_n + 1)
    for order, cap in (("0", math.e), ("-1", 2.0)):
        def check_order(doc, order=order, cap=cap):
            rep = doc["report"]
            V.check_search(f"cli finite power:{order}", rep["value"], rep["witness"], geo_half,
                           V.power_generator(float(order)), cap=cap + 1e-3)
        ops.append(cli.op(f"cli-estimate-finite-{order}", [
            "estimate", "--method", "finite", "--mean", f"power:{order}",
            "--weights", "geometric:1/2", "--N", str(est_n), "--starts", "2",
            "--seed", str(SEARCH_SEED), "--format", "json"], check_order))

    grid = ["1/2", "3/4"]
    cont_n = 16

    def check_continuity(doc):
        rep = doc["report"]
        for row, s in zip(rep["rows"], grid):
            value = row["value"]
            w = float(Fraction(s)) ** np.arange(1, cont_n + 1)
            V.require(value >= V.start_ratio(half, w) * (1 - 1e-12),
                      f"continuity s={s}: {value!r} below the start-vector ratio")
            V.require(value <= COPSON_CAP_HALF, f"continuity s={s}: {value!r} over the cap")
        V.check_equal("continuity rows", len(rep["rows"]), len(grid))
        ones = rep["ones_value"]
        V.require(V.start_ratio(half, np.ones(cont_n)) * (1 - 1e-12) <= ones <= COPSON_CAP_HALF,
                  f"continuity ones value {ones!r} outside [start ratio, cap]")

    ops.append(cli.op("cli-explore-continuity", [
        "explore", "continuity", "--mean", "power:1/2", "--s-grid", ",".join(grid),
        "--N", str(cont_n), "--starts", "2", "--seed", str(SEARCH_SEED), "--format", "json"],
        check_continuity))
    return ops


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

EXACT_DYADIC_N = 1000
EXACT_GEOMETRIC_N = 500
EXACT_CUTS = (("geometric:1/2", Fraction(1, 2)), ("geometric:3/4", Fraction(3, 4)),
              ("ones", Fraction(1)))
EXACT_CUT_BLOCKS, EXACT_CUT_TERMS = 60, 180
EXACT_JCIN = 24           # random rational rearrangement instances
EXACT_JCIN_LEN = 8
PRIME_WEIGHTS = [Fraction(1, p) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23)]


def _cut_sums(q: Fraction, sizes: Sequence[int]):
    """Coarse and matched fine sums of w/W for geometric ratio q (q = 1 is
    unit weights) coarsened by the given block sizes."""
    fine_terms = [q ** n for n in range(1, sum(sizes) + 1)]
    coarse_terms, pos = [], 0
    for b in sizes:
        coarse_terms.append(sum(fine_terms[pos:pos + b]))
        pos += b
    fine_ratios, W = [], Fraction(0)
    for t in fine_terms:
        W += t
        fine_ratios.append(t / W)
    coarse, fine, c_acc, f_acc, pos, C = [], [], Fraction(0), Fraction(0), 0, Fraction(0)
    for t, b in zip(coarse_terms, sizes):
        C += t
        c_acc += t / C
        f_acc += sum(fine_ratios[pos:pos + b])
        pos += b
        coarse.append(c_acc)
        fine.append(f_acc)
    return coarse, fine


def build_exact(mods, seed: int, out_dir: Path) -> List[Op]:
    rng = random.Random(f"perfbench:exact:{seed}")
    sqrt_mean = mods.families.power(0.5)
    ops: List[Op] = []

    # certified intervals, against exact sums made here
    def interval_op(desc, N, term_ratio, gap):
        lower = functools.cache(lambda: V.fraction_sum([term_ratio(n) for n in range(1, N + 1)]))
        bracket = functools.cache(lambda: V.erdos_borwein_bracket(2 * N + 8))

        def run():
            return mods.hardy.arithmetic_hardy(mods.weights.make_sequence(desc), N, certified=True)

        def check(est):
            V.check_equal(f"{desc} lower end", est.lower, lower())
            V.check_equal(f"{desc} interval width", est.upper - est.lower, gap)
            if desc == "dyadic":
                V.check_interval("dyadic interval", est.lower, est.upper, bracket())
        return Op(f"interval-{desc}", run, check)

    ops.append(interval_op("dyadic", EXACT_DYADIC_N, lambda n: Fraction(1, 2 ** n - 1),
                           Fraction(1, 2 ** EXACT_DYADIC_N - 1)))
    g = EXACT_GEOMETRIC_N
    ops.append(interval_op("geometric:9/10", g, lambda n: Fraction(9 ** (n - 1), 10 ** n - 9 ** n),
                           Fraction(9 ** g, 10 ** g - 9 ** g)))

    kmax, lsc_n = 25, 200
    lsc_ref = functools.cache(lambda: V.lsc_row_values(kmax, lsc_n))

    def check_lsc_rows(rows, baseline):
        base_ref, rows_ref = lsc_ref()
        V.check_close("lsc baseline", baseline, base_ref, 1e-12)
        for (k, value), want in zip(rows, rows_ref):
            V.check_close(f"lsc row k={k}", value, want, 1e-12)
        V.check_equal("lsc row count", len(rows), kmax)
        V.require(all(v >= baseline for k, v in rows if k >= 2),
                  "lsc rows with k >= 2 fall below the baseline")

    ops.append(Op("lsc-table", lambda: mods.checks.lsc_example_table(kmax, lsc_n),
                  lambda rep: check_lsc_rows(rep.rows, rep.baseline)))

    for desc, q in EXACT_CUTS:
        sizes = _composition(rng, EXACT_CUT_BLOCKS, EXACT_CUT_TERMS)
        sums = functools.cache(lambda q=q, sizes=sizes: _cut_sums(q, sizes))

        def run(desc=desc, sizes=sizes):
            lam = mods.weights.make_sequence(desc)
            return mods.checks.verify_cut("arithmetic", mods.weights.coarsen(lam, sizes),
                                          lam, len(sizes))

        def check(rep, desc=desc, sums=sums):
            V.check_cut(f"cut {desc}", *sums(), rep.passed, rep.margin)
        ops.append(Op(f"cut-{desc}", run, check))

    def jcin_check(name, x, w):
        def check(rep):
            V.check_passed(f"{name} outcome", rep.outcome == "pass")
            V.check_rearrangement(name, x, w, [Fraction(v) for v in rep.witness["y"]])
        return check

    for i in range(EXACT_JCIN):
        x = [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(EXACT_JCIN_LEN)]
        w = _rationals(rng, EXACT_JCIN_LEN)
        ops.append(Op(f"jcin-{i}", lambda x=x, w=w: mods.checks.verify_jcin(sqrt_mean, x, w),
                      jcin_check(f"jcin-{i}", x, w)))

    # known fault: the LCM scaling of 1/prime weights counts 334,406,399
    # atoms, over the expansion budget, although the merge never expands them
    primes_x = [Fraction(k) for k in range(1, 10)]
    ops.append(Op("jcin-primes", lambda: mods.checks.verify_jcin(sqrt_mean, primes_x, PRIME_WEIGHTS),
                  jcin_check("jcin-primes", primes_x, PRIME_WEIGHTS),
                  expect=mods.checks.ExpansionBudgetError))

    for desc, q, N in (("dyadic", Fraction(1, 2), 300), ("geometric:9/10", Fraction(9, 10), 300)):
        def check(rep, desc=desc, q=q, N=N):
            terms = _geometric_terms(q, N)
            ratios = [t / s for t, s in zip(terms, accumulate(terms))]
            V.check_equal(f"ratios {desc}", list(rep.ratios), [float(r) for r in ratios])
            V.check_equal(f"ratios {desc} monotone", rep.is_nonincreasing,
                          all(a >= b for a, b in zip(ratios, ratios[1:])))
        ops.append(Op(f"ratios-{desc}",
                      lambda desc=desc, N=N: mods.weights.ratio_diagnostics(
                          mods.weights.make_sequence(desc), N),
                      check))

    # the partition order both ways: dyadic coarsened by random blocks is a
    # coarsening of dyadic, and dyadic is not one of the coarsened sequence
    sizes = _composition(rng, 40, 120)

    def want(fine_first):
        fine_sums = list(accumulate(_geometric_terms(Fraction(1, 2), 120)))
        coarse_sums = [fine_sums[i - 1] for i in accumulate(sizes)]
        inner, outer = (fine_sums[:40], coarse_sums) if fine_first else (coarse_sums, fine_sums)
        return set(inner) <= set(outer)

    for name, fine_first in (("coarsening-yes", False), ("coarsening-no", True)):
        def run(fine_first=fine_first):
            lam = mods.weights.make_sequence("dyadic")
            psi = mods.weights.coarsen(lam, sizes)
            return (mods.weights.is_coarsening_of(lam, psi, 40) if fine_first
                    else mods.weights.is_coarsening_of(psi, lam, 40))
        ops.append(Op(name, run, lambda got, name=name, fine_first=fine_first:
                      V.check_equal(name, got, want(fine_first))))

    cli = _Cli(mods, out_dir)

    def check_constant(doc):
        rep = doc["report"]
        lower, upper = Fraction(rep["lower"]), Fraction(rep["upper"])
        V.check_equal("cli constant lower end", lower,
                      V.fraction_sum([Fraction(1, 2 ** n - 1) for n in range(1, 61)]))
        V.check_interval("cli constant interval", lower, upper, V.erdos_borwein_bracket(128))

    constant = ["constant", "--arithmetic", "--weights", "dyadic", "--N", "60",
                "--certified", "--format", "json"]
    ops.append(cli.op("cli-constant", constant, check_constant))

    def check_repeat(doc):
        check_constant(doc)
        V.check_identical("cli constant rerun", (out_dir / "cli-constant-rerun.out").read_bytes(),
                          (out_dir / "cli-constant.out").read_bytes())
    ops.append(cli.op("cli-constant-rerun", constant, check_repeat))

    cut_sizes = _composition(rng, 12, 30)
    ops.append(cli.op("cli-verify-cut", [
        "verify", "cut", "--weights", "geometric:1/2", "--blocks", ",".join(map(str, cut_sizes)),
        "--format", "json"],
        lambda doc: V.check_cut("cli cut", *_cut_sums(Fraction(1, 2), cut_sizes),
                                doc["report"]["passed"], doc["report"]["margin"])))

    x = [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(EXACT_JCIN_LEN)]
    w = _rationals(rng, EXACT_JCIN_LEN)

    def check_cli_jcin(doc):
        rep = doc["report"]
        V.check_passed("cli jcin outcome", rep["outcome"] == "pass")
        V.check_rearrangement("cli jcin", x, w, [Fraction(v) for v in rep["witness"]["y"]])
    ops.append(cli.op("cli-verify-jcin", [
        "verify", "jcin", "--mean", "power:1/2", "--x", _text(x), "--w", _text(w),
        "--format", "json"], check_cli_jcin))

    def check_cli_lsc(doc):
        rep = doc["report"]
        check_lsc_rows([(r["k"], r["value"]) for r in rep["rows"]], rep["baseline"])
    ops.append(cli.op("cli-verify-lsc", ["verify", "lsc-example", "--kmax", str(kmax),
                                         "--format", "json"], check_cli_lsc))
    return ops


# ---------------------------------------------------------------------------
# means
# ---------------------------------------------------------------------------

# Orders with |p| >= 2 are left out: check_axioms' elimination test fails
# on some seeds there (see the FOUND line in CHANGES.md), and an operation
# that fails on some seeds only would make the failure share seed-dependent.
MEANS_ORDERS = (-math.inf, -1.0, -0.5, 0.0, 1 / 3, 0.5, 1.0, math.inf)
MEANS_TRIALS = 200
MEANS_SEED_SHIFT = 1_000_003  # second trial seed per order
MEANS_LIMIT_N = 1_000_000
MEANS_KEDLAYA_N = 100_000
MEANS_DENSE_N = 600


def build_means(mods, seed: int, out_dir: Path) -> List[Op]:
    rng = random.Random(f"perfbench:means:{seed}")
    families = mods.families
    ops: List[Op] = []

    for p in MEANS_ORDERS:
        mean = families.power(p)
        for k, trial_seed in enumerate((seed, seed + MEANS_SEED_SHIFT)):
            ops.append(Op(f"axioms-{p:g}-{k}",
                          lambda mean=mean, s=trial_seed: mods.kernel.check_axioms(
                              mean, MEANS_TRIALS, s),
                          lambda rep, p=p: V.check_passed(f"axioms order {p:g}", rep.passed)))

    for p, target, rel in ((0.0, math.e, 0.005), (0.5, 4.0, 0.003)):
        mean = families.power(p)
        want = functools.cache(lambda p=p: V.unweighted_value(V.power_generator(p), MEANS_LIMIT_N))

        def check(est, p=p, want=want, target=target, rel=rel):
            V.check_close(f"unweighted limit p={p:g}", est.value, want(), 1e-9)
            V.check_near(f"unweighted limit p={p:g}", est.value, target, rel)
        ops.append(Op(f"limit-{p:g}",
                      lambda mean=mean: mods.hardy.unweighted_limit(mean, MEANS_LIMIT_N), check))

    geo = families.power(0.0)
    y_grid = mods.hardy.DEFAULT_Y_GRID
    kedlaya_want = functools.cache(lambda: V.kedlaya_value(
        V.power_generator(0.0), np.ones(MEANS_KEDLAYA_N), y_grid, 0.5))

    def check_kedlaya(est):
        V.check_close("kedlaya value", est.value, kedlaya_want(), 1e-9)
        V.require(est.value <= math.e, f"kedlaya value {est.value!r} above e")
    ops.append(Op("kedlaya", lambda: mods.hardy.kedlaya_estimate(
        geo, mods.weights.make_sequence("ones"), MEANS_KEDLAYA_N), check_kedlaya))

    x = np.exp(np.array([rng.gauss(0.0, 1.0) for _ in range(MEANS_DENSE_N)]))
    w = _floats(_rationals(rng, MEANS_DENSE_N))
    half = families.power(0.5)
    ops.append(Op("dense-ratio",
                  lambda: mods.search.hardy_ratio(half, x, w, dense_check=True),
                  lambda value: V.check_close("dense hardy ratio", value,
                                              V.hardy_ratio(V.power_generator(0.5), x, w), 1e-9)))

    steps = sorted((rng.uniform(0.1, 10.0) for _ in range(40)), reverse=True)
    widths = _rationals(rng, 40)
    total = sum(widths)
    grid = sorted({total * Fraction(k, 30) for k in range(1, 31)})
    run_want = functools.cache(lambda: V.running_means(V.power_generator(0.5), steps, widths, grid))

    def check_decreasing(rep):
        V.check_passed("decreasing outcome", rep.passed)
        got = rep.details["values"]
        for u, a, b in zip(grid, got, run_want()):
            V.check_close(f"running mean at u={float(u):.4g}", a, b, 1e-12)
        V.check_nonincreasing("running means", got, 1e-9)
    ops.append(Op("decreasing", lambda: mods.checks.verify_decreasing(
        half, mods.kernel.step_profile(steps, widths), grid), check_decreasing))

    cli = _Cli(mods, out_dir)
    ops.append(cli.op("cli-verify-axioms", [
        "verify", "axioms", "--mean", "power:1/2", "--trials", str(MEANS_TRIALS),
        "--seed", str(seed), "--format", "json"],
        lambda doc: V.check_passed("cli axioms", doc["report"]["passed"])))

    ked_n = 20_000
    ked_cli_want = functools.cache(lambda: V.kedlaya_value(
        V.power_generator(0.0), np.ones(ked_n), y_grid, 0.5))
    ops.append(cli.op("cli-estimate-kedlaya", [
        "estimate", "--method", "kedlaya", "--mean", "power:0", "--weights", "ones",
        "--N", str(ked_n), "--format", "json"],
        lambda doc: V.check_close("cli kedlaya", doc["report"]["value"], ked_cli_want(), 1e-9)))

    lim_n = 100_000

    def check_cli_limit(doc):
        V.check_close("cli unweighted limit", doc["report"]["value"],
                      V.unweighted_value(V.power_generator(0.0), lim_n), 1e-9)
        V.check_near("cli unweighted limit", doc["report"]["value"], math.e, 0.005)
    ops.append(cli.op("cli-estimate-limit", [
        "estimate", "--method", "nonweighted-limit", "--mean", "power:0",
        "--N", str(lim_n), "--format", "json"], check_cli_limit))
    return ops


WORKLOADS = {"sections": build_sections, "exact": build_exact, "means": build_means}
