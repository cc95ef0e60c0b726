import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hardylab import hardy
from hardylab.families import make_generator, power, quasiarithmetic
from hardylab.hardy import (HypothesisViolation, InconclusiveError,
                            arithmetic_hardy, copson_constant,
                            finite_lower_bound, kedlaya_estimate,
                            kedlaya_sequence, unweighted_limit)
from hardylab.kernel import MeanDomainError, MeanFlags, MeanSpec, evaluate
from hardylab.search import OptimizerConfig
from hardylab.weights import (WeightSeq, make_sequence, random_rational_sequence,
                             ratio_diagnostics, term_ratios)

ERDOS_BORWEIN = 1.6066951524152917  # sum over n of 1 / (2^n - 1)


class TestCopson:
    @pytest.mark.parametrize("p,expected", [
        (0.5, 4.0),
        (0.0, math.e),
        (-math.inf, 1.0),
        (-1.0, 2.0),
        (1 / 3, 3.375),
        (1.0, math.inf),
        (2.0, math.inf),
        (math.inf, math.inf),
    ])
    def test_values(self, p, expected):
        assert copson_constant(p) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_matches_direct_formula_on_a_grid(self):
        for p in np.linspace(-6.0, 0.99, 37):
            direct = (1.0 - p) ** (-1.0 / p) if p != 0 else math.e
            assert copson_constant(float(p)) == pytest.approx(direct, rel=1e-13)

    def test_monotone_increasing_in_order(self):
        grid = [-math.inf, -8, -2, -1, -0.5, 0, 0.25, 0.5, 0.75, 0.99]
        vals = [copson_constant(p) for p in grid]
        assert vals == sorted(vals)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            copson_constant(math.nan)


class TestArithmeticHardy:
    def test_unit_weights_small(self):
        est = arithmetic_hardy(make_sequence("ones"), 3)
        assert est.lower == Fraction(11, 6)
        assert est.value == pytest.approx(11 / 6)
        assert est.direction == "lower_bound"

    def test_dyadic_partial_approaches_known_constant(self):
        est = arithmetic_hardy(make_sequence("dyadic"), 60)
        assert float(est.lower) == pytest.approx(ERDOS_BORWEIN, abs=1e-12)

    def test_certified_interval_brackets_the_constant(self):
        est = arithmetic_hardy(make_sequence("dyadic"), 40, certified=True)
        assert est.direction == "interval"
        # independent exact enclosure of the limit: 200-term partial sum of
        # 1/(2^n - 1) plus a tail crudely bounded by a geometric series
        e_lo = sum(Fraction(1, 2 ** n - 1) for n in range(1, 201))
        e_hi = e_lo + Fraction(1, 2 ** 199)
        assert est.lower < e_lo and est.upper > e_hi
        assert float(est.upper - est.lower) < 1e-9

    def test_exact_sequence_gives_exact_endpoints(self):
        est = arithmetic_hardy(make_sequence("dyadic"), 10, certified=True)
        assert isinstance(est.lower, Fraction) and isinstance(est.upper, Fraction)
        # independent accumulation of the same partial sum
        lam = make_sequence("dyadic")
        manual = sum(lam.term(n) / lam.partial_sum(n) for n in range(1, 11))
        assert est.lower == manual

    def test_fractional_power_interval_is_refused(self):
        # power:-3/2 has float terms, which certify nothing; the partial sum
        # alone is still reported
        lam = make_sequence("power:-3/2")
        with pytest.raises(InconclusiveError, match="float weights certify nothing"):
            arithmetic_hardy(lam, 100, certified=True)
        est = arithmetic_hardy(lam, 100)
        assert est.value == pytest.approx(1.824344466227119, rel=1e-12)
        assert est.upper is None and est.diagnostics["number_mode"] == "float"

    def test_float_weights_are_refused_before_any_term_is_summed(self):
        # a float tail bound never closes an interval: the float partial sum
        # of dyadic weights rounds to the float of the limit, so an interval
        # built on it would miss the limit itself
        summed = []

        def term(n):
            summed.append(n)
            return 0.5 ** n
        lam = WeightSeq("h", term, tail_bound=lambda n: 0.5 ** n)
        summed.clear()
        with pytest.raises(InconclusiveError, match="float weights certify nothing"):
            arithmetic_hardy(lam, 60, certified=True)
        assert summed == []

    def test_divergent_weights_cannot_be_certified(self):
        with pytest.raises(InconclusiveError):
            arithmetic_hardy(make_sequence("ones"), 10, certified=True)

    def test_float_path_matches_exact_path(self):
        exact = arithmetic_hardy(make_sequence("geometric:1/3"), 30)
        floaty = arithmetic_hardy(WeightSeq("g", lambda n: 3.0 ** -n), 30)
        assert floaty.diagnostics["number_mode"] == "float"
        assert floaty.value == pytest.approx(exact.value, rel=1e-13)


def bumped_dyadic(k):
    return lambda n: Fraction(1) if n == k else Fraction(1, 2 ** n)


# descriptor -> (the terms by definition, the total weight when it is finite)
ORACLE_TERMS = {
    "dyadic": (lambda n: Fraction(1, 2 ** n), Fraction(1)),
    "geometric:9/10": (lambda n: Fraction(9, 10) ** n, Fraction(9)),
    "perturbed-dyadic:3": (bumped_dyadic(3), 2 - Fraction(1, 8)),
    "perturbed-dyadic:40": (bumped_dyadic(40), 2 - Fraction(1, 2 ** 40)),
    "power:-2": (lambda n: Fraction(1, n * n), None),
}


def sequential_ratios(term, N):
    """w_n / W_n by plain left-to-right Fraction arithmetic."""
    ratios, W = [], Fraction(0)
    for n in range(1, N + 1):
        W += term(n)
        ratios.append(term(n) / W)
    return ratios, W


def sequential_sum(values):
    total = Fraction(0)
    for v in values:
        total += v
    return total


class TestExactSumsMatchSequentialOracle:
    @pytest.mark.parametrize("N", [1, 2, 7, 64, 129])
    @pytest.mark.parametrize("desc", sorted(ORACLE_TERMS))
    def test_arithmetic_hardy(self, desc, N):
        term, total = ORACLE_TERMS[desc]
        ratios, W = sequential_ratios(term, N)
        est = arithmetic_hardy(make_sequence(desc), N, certified=total is not None)
        assert est.lower == sequential_sum(ratios) and type(est.lower) is Fraction
        if total is not None:
            assert est.upper == est.lower + (total - W) / W
            assert type(est.upper) is Fraction

    @pytest.mark.parametrize("N", [1, 5, 33, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_arithmetic_hardy_on_random_rationals(self, seed, N):
        lam = random_rational_sequence(seed)
        ratios, _ = sequential_ratios(lam.term, N)
        assert arithmetic_hardy(lam, N).lower == sequential_sum(ratios)

    @pytest.mark.parametrize("N", [1, 2, 9, 60])
    @pytest.mark.parametrize("desc", sorted(ORACLE_TERMS) + ["random"])
    def test_term_ratios_and_their_diagnostics(self, desc, N):
        lam = random_rational_sequence(4) if desc == "random" else make_sequence(desc)
        ratios, W = sequential_ratios(lam.term, N)
        got = term_ratios(lam, N)
        assert got == ratios and all(type(r) is Fraction for r in got)
        rep = ratio_diagnostics(lam, N)
        assert rep.ratios == tuple(float(r) for r in ratios)
        assert rep.max_term_ratio == float(max(lam.term(n) for n in range(1, N + 1)) / W)
        assert rep.partial_sum_at_N == W

    @pytest.mark.parametrize("N", [1, 2, 9, 60])
    @pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(2, 3)])
    @pytest.mark.parametrize("desc", sorted(ORACLE_TERMS) + ["random"])
    def test_partial_sum_dominates_geometric_vectors(self, desc, q, N):
        # At p = 1 the ratio of x is a weighted mean of the tails
        # T_k = sum_{k<=n<=N} w_n / W_n with weights w_k x_k, so no vector of
        # the section beats T_1, the partial sum; x_n = q^n / w_n is one such.
        lam = random_rational_sequence(4) if desc == "random" else make_sequence(desc)
        ratios, _ = sequential_ratios(lam.term, N)
        mass, run, num = Fraction(0), Fraction(0), Fraction(0)
        for n in range(1, N + 1):
            mass += q ** n
            run += lam.term(n)
            num += lam.term(n) * mass / run
        probe = num / mass
        tails = [sequential_sum(ratios[k:]) for k in range(N)]
        assert probe == sum(q ** (k + 1) * t for k, t in enumerate(tails)) / mass
        best = arithmetic_hardy(lam, N).lower
        assert best == tails[0]
        assert probe == best if N == 1 else probe < best

    def test_dyadic_probe_falls_short_of_the_partial_sum(self):
        lam, q, N = make_sequence("dyadic"), Fraction(1, 10), 60
        mass = sum(q ** n for n in range(1, N + 1))
        num = sum(lam.term(n) * sum(q ** k for k in range(1, n + 1))
                  / sum(lam.term(k) for k in range(1, n + 1)) for n in range(1, N + 1))
        assert float(num / mass) == pytest.approx(1.5032119559900965, abs=1e-15)
        assert arithmetic_hardy(lam, N).value == pytest.approx(1.60670, abs=1e-5)


class TestFiniteSection:
    def test_bounds_increase_with_section_size(self):
        lam = make_sequence("dyadic")
        cfg = OptimizerConfig(starts=3, seed=0)
        ests = [finite_lower_bound(power(0.5), lam, N, cfg) for N in (4, 8, 16)]
        vals = [e.value for e in ests]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        assert [e.N for e in ests] == [4, 8, 16]
        assert all(e.kind == "finite-section" for e in ests)

    def test_witness_is_reported_and_replays(self):
        est = finite_lower_bound(power(1), make_sequence("ones"), 4,
                                 OptimizerConfig(starts=3, seed=0))
        assert est.witness is not None and len(est.witness) == 4
        from hardylab.search import hardy_ratio
        replay = hardy_ratio(power(1), est.witness,
                             make_sequence("ones").terms_floats(4))
        assert replay == pytest.approx(est.value, rel=1e-12)


class TestKedlaya:
    def test_arithmetic_sequence_is_harmonic_numbers(self):
        a = kedlaya_sequence(power(1), make_sequence("ones"), 1.0, 6)
        harmonic = np.cumsum(1.0 / np.arange(1.0, 7.0))
        assert a == pytest.approx(harmonic, rel=1e-14)
        assert a[2] == pytest.approx(11 / 6, rel=1e-14)

    def test_geometric_route_matches_factorial_formula(self):
        # with unit weights the substituted geometric mean gives
        # a_n = n * (n!)^(-1/n), independent of y
        for y in (0.25, 1.0, 8.0):
            a = kedlaya_sequence(power(0), make_sequence("ones"), y, 50)
            n = np.arange(1.0, 51.0)
            oracle = n * np.exp(-np.array(
                [math.lgamma(k + 1) for k in range(1, 51)]) / n)
            assert a == pytest.approx(oracle, rel=1e-12)

    def test_estimate_settles_near_e_for_geometric_mean(self):
        est = kedlaya_estimate(power(0), make_sequence("ones"), 2000)
        assert est.value == pytest.approx(math.e, rel=0.01)
        assert est.kind == "substitution"
        assert est.direction == "estimate"
        # y cancels for a homogeneous mean, so one row stands for the grid
        assert est.diagnostics["grid_collapsed"]
        assert est.diagnostics["grid_spread"] == 0.0
        assert [r["y"] for r in est.diagnostics["per_y"]] == [1.0]
        assert not est.diagnostics["divergent_trend"]

    def test_arithmetic_mean_is_flagged_divergent(self):
        est = kedlaya_estimate(power(1), make_sequence("ones"), 2000)
        assert est.diagnostics["divergent_trend"]

    def test_scale_sensitivity_is_visible_for_translation_style_means(self):
        shifted = quasiarithmetic(make_generator("softplus", np.log1p, np.expm1))
        est = kedlaya_estimate(shifted, make_sequence("ones"), 200)
        assert not est.diagnostics["grid_collapsed"]
        assert est.diagnostics["grid_spread"] > 1e-6
        assert len(est.diagnostics["per_y"]) == 21

    def test_overflowed_rows_are_left_out_of_the_grid(self, monkeypatch):
        # an exponential mean under a built-in's name: exp(y / W_1) overflows
        # at y = 1024, which reported inf (and warned) as the best row
        expo = quasiarithmetic(make_generator("log", np.exp, np.log))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = kedlaya_estimate(expo, make_sequence("ones"), 2000)
        assert est.value == pytest.approx(986.508290470738, rel=1e-9)
        assert est.diagnostics["y_best"] == 512.0
        assert math.isfinite(est.diagnostics["grid_spread"])
        assert est.diagnostics["per_y"][-1] == {"y": 1024.0, "finite": False}
        assert len(est.diagnostics["per_y"]) == 21
        monkeypatch.setattr(hardy, "DEFAULT_Y_GRID", (1024.0,))
        with pytest.raises(MeanDomainError, match="no y of the grid gives finite terms"):
            kedlaya_estimate(expo, make_sequence("ones"), 2000)

    def test_a_homogeneity_claim_does_not_collapse_the_grid(self):
        # an exponential mean is not homogeneous; claiming it once made the
        # route evaluate y = 1 alone and report the grid collapsed
        gen = make_generator("exp", np.exp, np.log)
        claimed = quasiarithmetic(gen, MeanFlags(symmetric=True, monotone=True,
                                                 homogeneous=True))
        lam = make_sequence("ones")
        est = kedlaya_estimate(claimed, lam, 64)
        ref = kedlaya_estimate(quasiarithmetic(gen), lam, 64)
        assert est.value == ref.value == pytest.approx(31.7834, abs=1e-4)
        for key in ("y_best", "per_y", "grid_collapsed"):
            assert est.diagnostics[key] == ref.diagnostics[key]
        assert est.diagnostics["y_best"] == 512.0
        assert len(est.diagnostics["per_y"]) == 21
        assert not est.diagnostics["grid_collapsed"]

    def test_convergent_weights_refused(self):
        with pytest.raises(HypothesisViolation, match="diverge"):
            kedlaya_estimate(power(0), make_sequence("dyadic"), 50)

    def test_unknown_divergence_refused(self):
        mystery = WeightSeq("mystery", lambda n: Fraction(1, n))
        with pytest.raises(HypothesisViolation, match="not certified"):
            kedlaya_estimate(power(0), mystery, 50)

    def test_bumpy_ratios_refused(self):
        bumpy = WeightSeq("bumpy", lambda n: 2 if n % 2 == 0 else 1,
                          sum_diverges=True)
        with pytest.raises(HypothesisViolation, match="nonincreasing"):
            kedlaya_estimate(power(0), bumpy, 50)


class TestUnweightedLimit:
    def test_matches_direct_evaluation_at_the_endpoint(self):
        N = 64
        est = unweighted_limit(power(0.5), N)
        direct = N * evaluate(power(0.5), [1.0 / k for k in range(1, N + 1)],
                              [1.0] * N)
        assert est.value == pytest.approx(direct, rel=1e-12)

    def test_geometric_mean_settles_toward_e(self):
        est = unweighted_limit(power(0), 2000)
        assert est.value == pytest.approx(2.711875018209425, rel=1e-12)
        assert abs(est.value - math.e) / math.e < 0.005
        assert not est.diagnostics["divergent_trend"]

    def test_arithmetic_mean_gives_harmonic_numbers_and_drifts(self):
        est = unweighted_limit(power(1), 10_000)
        h = sum(1.0 / k for k in range(1, 10_001))
        assert est.value == pytest.approx(h, rel=1e-10)
        assert est.value == pytest.approx(9.787606036044348, rel=1e-12)
        assert est.diagnostics["divergent_trend"]

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            unweighted_limit(power(0), 2)


BLOCK = hardy._BLOCK
STREAM_SIZES = [4, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
# a mean of every regime the streamed routes carry from block to block
STREAM_MEANS = {
    "geometric": power(0),
    "near-geometric": power(1e-3),
    "raw": power(-3),
    "log": power(-40),
    "min": power(-math.inf),
    "max": power(math.inf),
    "generator": quasiarithmetic(make_generator("softplus", np.log1p, np.expm1)),
}
OPAQUE = MeanSpec(family="custom", params=None, flags=MeanFlags(),
                  fn=lambda x, lam: sum(l * v for v, l in zip(x, lam)) / sum(lam),
                  name="opaque-arith")


def one_block_stats(a):
    """The trailing-window minimum, divergence flag and drift of a whole
    substitution sequence, as the routes reported them before streaming."""
    n = len(a)
    start = max(1, int(math.ceil(hardy.STEADY_WINDOW * n))) - 1
    drift = float(a[-1] - a[n // 2 - 1])
    return float(np.min(a[start:])), drift > hardy.DIVERGENCE_DRIFT, drift


def assert_streams_like_one_block(mean, lam, N, ys):
    rows, nonincreasing = hardy._substitution_stats(mean, lam, N, ys)
    assert nonincreasing
    for y, row in zip(ys, rows):
        a = kedlaya_sequence(mean, lam, y, N)
        assert row.finite == bool(np.all(np.isfinite(a)))
        assert row.last.tobytes() == a[-1].tobytes()
        assert row.at_half.tobytes() == a[N // 2 - 1].tobytes()
        got, want = row.stats(), one_block_stats(a)
        assert np.array_equal(got, want, equal_nan=True), (y, got, want)


class TestStreamedSubstitution:
    """The substitution routes stream their terms in blocks of 2^16 and
    carry the running sums across; they must report what one pass over
    the whole sequence reports, bit for bit."""

    @pytest.mark.parametrize("N", STREAM_SIZES)
    @pytest.mark.parametrize("regime", sorted(set(STREAM_MEANS) - {"generator"}))
    def test_power_regimes_match_one_block(self, regime, N):
        for desc in ("ones", "power:-1/2"):
            assert_streams_like_one_block(STREAM_MEANS[regime], make_sequence(desc), N, (1.0,))

    @pytest.mark.parametrize("N", STREAM_SIZES)
    def test_generator_over_the_y_grid_matches_one_block(self, N):
        assert_streams_like_one_block(STREAM_MEANS["generator"], make_sequence("ones"), N,
                                      hardy.DEFAULT_Y_GRID)

    @pytest.mark.parametrize("N", [4, 5, 40])
    def test_opaque_mean_runs_as_one_block(self, N, monkeypatch):
        # direct evaluation has no running state to carry
        monkeypatch.setattr(hardy, "_BLOCK", 3)
        assert_streams_like_one_block(OPAQUE, make_sequence("power:-1/2"), N, (0.5, 1.0))

    @pytest.mark.parametrize("mean", [power(0.5), power(-40), power(math.inf),
                                      STREAM_MEANS["generator"]], ids=lambda m: m.name)
    def test_small_blocks_give_the_same_reports(self, mean, monkeypatch):
        lam = make_sequence("power:-1/2")
        want = (kedlaya_estimate(mean, lam, 50).to_json(), unweighted_limit(mean, 50).to_json())
        for block in (1, 2, 7, 25, 49):
            monkeypatch.setattr(hardy, "_BLOCK", block)
            got = (kedlaya_estimate(mean, lam, 50).to_json(), unweighted_limit(mean, 50).to_json())
            assert got == want, block

    def test_overflowed_rows_stay_marked_across_blocks(self, monkeypatch):
        expo = quasiarithmetic(make_generator("log", np.exp, np.log))
        want = kedlaya_estimate(expo, make_sequence("ones"), 2000).to_json()
        monkeypatch.setattr(hardy, "_BLOCK", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kedlaya_estimate(expo, make_sequence("ones"), 2000).to_json()
        assert got == want
        assert got["diagnostics"]["per_y"][-1] == {"y": 1024.0, "finite": False}

    @pytest.mark.parametrize("N", [4, BLOCK + 1, 2 * BLOCK + 3])
    @pytest.mark.parametrize("p", [0.5, 0, -3, -math.inf])
    def test_unweighted_limit_is_the_kedlaya_reducer_on_ones_at_y_1(self, p, N):
        est = unweighted_limit(power(p), N)
        (row,), _ = hardy._substitution_stats(power(p), make_sequence("ones"), N, (1.0,))
        steady, trend, drift = row.stats()
        assert est.value == float(row.last)
        assert est.diagnostics == {"half_value": float(row.at_half), "drift": drift,
                                   "divergent_trend": trend, "steady_min": steady}
        a = kedlaya_sequence(power(p), make_sequence("ones"), 1.0, N)
        assert est.value == float(a[-1])

    @pytest.mark.parametrize("bump", [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2])
    def test_float_ratio_check_sees_a_bump_at_any_block_edge(self, bump):
        # a raised term makes its ratio w_n / W_n rise; the streamed check
        # compares across the edge of a block as the one-pass check does
        lam = WeightSeq("bumped-ones", lambda n: 2.0 if n == bump else 1.0,
                        sum_diverges=True)
        N = BLOCK + 8
        assert not ratio_diagnostics(lam, N).is_nonincreasing
        with pytest.raises(HypothesisViolation, match="nonincreasing"):
            kedlaya_estimate(power(0), lam, N)
        assert kedlaya_estimate(power(0), lam, bump - 1).N == bump - 1

    def test_exact_ratios_decide_where_their_floats_rise(self, monkeypatch):
        # geometric:3/2's exact ratios fall toward 1/3; their floats stall
        # there and rise by an ulp, which must not cut the means short
        lam = make_sequence("geometric:3/2")
        w = lam.terms_floats(200)
        r = w / np.cumsum(w)
        assert ratio_diagnostics(lam, 200).is_nonincreasing
        assert not np.all(r[:-1] >= r[1:])
        monkeypatch.setattr(hardy, "_BLOCK", 16)
        row = kedlaya_estimate(power(0), lam, 200).diagnostics["per_y"][0]
        steady, trend, drift = one_block_stats(kedlaya_sequence(power(0), lam, 1.0, 200))
        assert (row["steady"], row["divergent_trend"], row["drift"]) == (steady, trend, drift)

    def test_a_float_overflow_raises_before_a_ratio_violation(self, monkeypatch):
        # the ratios rise at n = 3 and 2^n overflows at n = 1024, blocks
        # later; read whole, the terms raised before the ratios were
        # checked, and they still do
        lam = WeightSeq("late-overflow", lambda n: 100.0 if n == 3 else 2.0 ** n,
                        sum_diverges=True)
        monkeypatch.setattr(hardy, "_BLOCK", 100)
        with pytest.raises(MeanDomainError, match="overflow float range before n=2000$"):
            kedlaya_estimate(power(0), lam, 2000)
        with pytest.raises(HypothesisViolation, match="nonincreasing"):
            kedlaya_estimate(power(0), lam, 1000)

    @pytest.mark.parametrize("route", ["limit", "kedlaya"])
    def test_memory_stays_bounded_at_a_million_terms(self, route):
        import tracemalloc
        tracemalloc.start()
        try:
            if route == "limit":
                unweighted_limit(power(0), 10 ** 6)
            else:
                kedlaya_estimate(power(0), make_sequence("ones"), 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass over whole arrays peaked at 48.0 MB and 88.0 MB
        assert peak <= 8 * 10 ** 6, peak


class TestEstimateSerialization:
    def test_directions_roundtrip(self):
        interval = arithmetic_hardy(make_sequence("dyadic"), 10, certified=True)
        lower = finite_lower_bound(power(0.5), make_sequence("dyadic"), 10)
        plain = unweighted_limit(power(0), 16)
        for est, want in ((interval, "interval"), (lower, "lower_bound"),
                          (plain, "estimate")):
            out = est.to_json()
            assert out["direction"] == want
            assert out["kind"] == est.kind
            assert out["N"] == est.N

    def test_exact_bounds_serialize_as_fraction_strings(self):
        out = arithmetic_hardy(make_sequence("dyadic"), 5, certified=True).to_json()
        assert isinstance(out["lower"], str) and "/" in out["lower"]
        assert Fraction(out["lower"]) == sum(Fraction(1, 2 ** n - 1)
                                             for n in range(1, 6))
