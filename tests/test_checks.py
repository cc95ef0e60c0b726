import dataclasses
import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import checks, families, hardy, kernel, scalars
from hardylab.checks import (equal_sum_rearrangement, jcin_sweep,
                             lsc_example_table, mu1_sweep, verify_cut,
                             verify_decreasing, verify_jcin)
from hardylab.families import builtin_generator, make_generator, power, quasiarithmetic
from hardylab.hardy import HypothesisViolation, InconclusiveError, arithmetic_hardy
from hardylab.kernel import MeanFlags, MeanSpec, StepFunction, evaluate, step_profile
from hardylab.scalars import exact_sum
from hardylab.search import SearchResult
from hardylab.weights import (WeightSeq, coarsen, make_sequence, random_rational_sequence,
                              term_ratios)

fractions_pos = st.fractions(min_value=Fraction(1, 20), max_value=100,
                             max_denominator=20)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def unit_atom_rearrangement(x, w):
    """Independent route: scale the weights to integers, expand every x_i
    into that many unit atoms, sort them nonincreasing and average the
    atoms back block by block."""
    scale = math.lcm(*(Fraction(v).denominator for v in w))
    counts = [int(Fraction(v) * scale) for v in w]
    atoms = sorted((Fraction(v) for v, c in zip(x, counts) for _ in range(c)),
                   reverse=True)
    out, start = [], 0
    for c in counts:
        out.append(sum(atoms[start:start + c]) / c)
        start += c
    return tuple(out)


class TestRearrangement:
    def test_integer_weights(self):
        res = equal_sum_rearrangement((1, 3), (2, 1))
        assert res.y == (2, 1)

    def test_rational_weights_scale_by_common_denominator(self):
        res = equal_sum_rearrangement((1, 2), (Fraction(1, 2), Fraction(1, 3)))
        assert res.y == (Fraction(5, 3), 1)

    def test_already_sorted_input_is_fixed(self):
        res = equal_sum_rearrangement((5, 3, 2), (1, 1, 2))
        assert res.y == (5, 3, 2)

    def test_float_values_embed_exactly(self):
        x = (0.1, 0.7, 0.3)
        w = (2, 1, 1)
        res = equal_sum_rearrangement(x, w)
        assert sum(Fraction(v) * c for v, c in zip(res.y, w)) == \
            sum(Fraction(v) * c for v, c in zip(x, w))
        assert res.y_floats()[0] >= res.y_floats()[1] >= res.y_floats()[2]

    def test_prime_reciprocal_weights_merge_exactly(self):
        # scaled to integers these weights would need 334,406,399 unit
        # atoms; the Fraction merge never expands them
        x = [Fraction(k) for k in range(1, 10)]
        w = [Fraction(1, q) for q in PRIMES]
        res = equal_sum_rearrangement(x, w)
        assert sum(a * b for a, b in zip(res.y, w)) == \
            sum(a * b for a, b in zip(x, w))
        assert all(a >= b for a, b in zip(res.y, res.y[1:]))
        rep = verify_jcin(power(Fraction(1, 2)), x, w)
        assert rep.outcome == "pass"
        assert rep.margin > 0.04

    def test_float_weights_rejected(self):
        with pytest.raises(TypeError, match="rational"):
            equal_sum_rearrangement((1, 2), (0.5, 0.25))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            equal_sum_rearrangement((1, 2, 3), (1, 2))

    @pytest.mark.parametrize("x, w", [([1, 3], [2 ** 62, 2 ** 62]),
                                      ([5, 1, 3], [2 ** 63 - 1, 1, 2 ** 62])])
    def test_numpy_integer_weights_do_not_wrap(self, x, w):
        # np.int64 sums past 2**63 would wrap, giving (-1, 1) for the
        # first case; the masses are Python ints
        big = [np.int64(v) for v in w]
        assert equal_sum_rearrangement(x, big).y == equal_sum_rearrangement(x, w).y

    def test_serializes_with_both_exact_and_float_views(self):
        out = equal_sum_rearrangement((1, 2), (Fraction(1, 2), Fraction(1, 3))).to_json()
        assert out["y"] == ["5/3", 1]  # integral fractions collapse to ints
        assert out["y_float"] == [pytest.approx(5 / 3), 1.0]

    @given(x=st.lists(fractions_pos, min_size=1, max_size=6),
           w=st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                      max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_preserve_sum_and_sort(self, x, w):
        n = min(len(x), len(w))
        x, w = x[:n], w[:n]
        res = equal_sum_rearrangement(x, w)
        assert sum(a * b for a, b in zip(res.y, w)) == \
            sum(a * b for a, b in zip(x, w))
        assert all(a >= b for a, b in zip(res.y, res.y[1:]))
        again = equal_sum_rearrangement(res.y, w)
        assert again.y == res.y

    @given(x=st.lists(fractions_pos, min_size=1, max_size=6),
           w=st.one_of(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=4,
                                             max_denominator=6), min_size=1, max_size=6),
                       st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                                max_size=6)))
    @settings(max_examples=80, deadline=None)
    def test_matches_unit_atom_expansion(self, x, w):
        n = min(len(x), len(w))
        x, w = x[:n], w[:n]
        assert equal_sum_rearrangement(x, w).y == unit_atom_rearrangement(x, w)


class TestJcin:
    def test_arithmetic_prefixes_never_lose(self):
        rep = verify_jcin(power(1), (1, 3), (2, 1))
        assert rep.passed and rep.outcome == "pass"
        # prefix 2 uses the full vector, where both sides agree exactly
        assert rep.margin >= 0

    def test_concave_order_holds_on_random_instances(self):
        rep = jcin_sweep(power(0.5), trials=60, seed=4)
        assert rep.outcome == "pass"
        assert rep.margin >= 0
        assert rep.instances == 60

    def test_convex_order_finds_a_counterexample(self):
        rep = verify_jcin(power(2), (1, 3), (2, 1))
        assert rep.outcome == "counterexample_found"
        assert not rep.passed
        assert rep.margin == pytest.approx(-0.18280340794379923, abs=1e-15)
        assert rep.witness["prefix"] == 2

    def test_quadratic_counterexample_replays_by_hand(self):
        # the full-vector prefix: rms((1,3); (2,1)) = sqrt(11/3) beats
        # rms((2,1); (2,1)) = sqrt(3), so the rearrangement loses
        lhs = evaluate(power(2), [1.0, 3.0], [2.0, 1.0])
        rhs = evaluate(power(2), [2.0, 1.0], [2.0, 1.0])
        assert lhs == pytest.approx(math.sqrt(11 / 3), rel=1e-15)
        assert rhs == pytest.approx(math.sqrt(3), rel=1e-15)
        assert rhs - lhs == pytest.approx(-0.18280340794379923, abs=1e-15)

    def test_sweep_search_mode_stops_at_first_counterexample(self):
        rep = jcin_sweep(power(3), trials=200, seed=0)
        assert rep.outcome == "counterexample_found"
        assert rep.instances < 200  # stopped early

    def test_sweep_inconclusive_when_unclaimed_and_unrefuted(self):
        # the arithmetic mean with its claims stripped: the order holds
        # on every instance, but without the hypotheses the sweep can
        # only say it found nothing
        from hardylab.kernel import MeanFlags
        bare = power(1, flags=MeanFlags())
        rep = jcin_sweep(bare, trials=10, seed=0)
        assert rep.outcome == "inconclusive"
        assert rep.passed and rep.margin >= -1e-10

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            jcin_sweep(power(1), trials=0)

    @pytest.mark.parametrize("mean", [
        power(Fraction(1, 2)), power(0), power(-1), power(Fraction(1, 3)),
        quasiarithmetic(builtin_generator("log")),
    ], ids=lambda m: m.name)
    def test_integer_masses_give_the_reports_of_the_callers_weights(self, mean):
        # the same mean under a family name verify_jcin does not know is
        # evaluated on the caller's weights
        opaque = dataclasses.replace(mean, family="opaque")
        for i in range(40):
            x, w = checks._random_instance(random.Random(f"jcin-masses:{i}"))
            assert verify_jcin(mean, x, w).to_json() == verify_jcin(opaque, x, w).to_json()

    def test_no_fraction_sum_or_product_and_masses_found_once(self, monkeypatch):
        # the conservation check is integer arithmetic, and the integer
        # masses of w serve the rearrangement and the prefix means alike:
        # one integer_masses call for w and one for x per verify_jcin call
        x = [Fraction(7, 2), Fraction(1, 3), 5, Fraction(9, 4), 0.5]
        w = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), 2, Fraction(5, 6)]
        want_y = equal_sum_rearrangement(x, w).y
        want = verify_jcin(power(0.5), x, w).to_json()

        def refuse(self, other):
            raise AssertionError("Fraction arithmetic")

        for op in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(Fraction, op, refuse)
        calls = []

        def counted(values):
            calls.append(values)
            return integer_masses(values)

        integer_masses = scalars.integer_masses
        for module in (scalars, checks, kernel, families):
            monkeypatch.setattr(module, "integer_masses", counted)
        assert equal_sum_rearrangement(x, w).y == want_y
        calls.clear()
        assert verify_jcin(power(0.5), x, w).to_json() == want
        assert len(calls) == 2

    def test_other_means_receive_the_callers_weights(self):
        seen = []

        def fn(xs, ws):
            seen.append(ws)
            return evaluate(power(1), xs, ws)

        spec = MeanSpec(family="recording", params=None,
                        flags=MeanFlags(monotone=True, concave=True), fn=fn)
        x = [Fraction(5), Fraction(1), Fraction(3)]
        w = [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)]
        rep = verify_jcin(spec, x, w)
        assert seen == [tuple(w[:n]) for n in (1, 1, 2, 2, 3, 3)]
        assert all(type(v) is Fraction for ws in seen for v in ws)
        assert rep.witness["w"] == w


class TestCut:
    def test_exact_mode_hand_case(self):
        lam = make_sequence("geometric:1/2")
        rep = verify_cut("arithmetic", coarsen(lam, [2]), lam, 1)
        assert rep.passed
        # merging the first two halves gives coarse sum 1 against fine
        # sum 1 + (1/4)/(3/4) = 4/3
        assert rep.witness["slack"] == Fraction(1, 3)
        assert rep.witness["matched_fine_index"] == 2
        assert rep.margin == pytest.approx(1 / 3)

    def test_exact_mode_random_coarsening_of_unit_weights(self):
        lam = make_sequence("ones")
        rng = random.Random(3)
        blocks = [rng.randint(1, 4) for _ in range(12)]
        rep = verify_cut("arithmetic", coarsen(lam, blocks), lam, 12)
        assert rep.passed and rep.margin >= 0
        assert rep.details["matched_indices"] == \
            [sum(blocks[: i + 1]) for i in range(12)]

    def test_exact_slack_matches_independent_accumulation(self):
        lam = make_sequence("geometric:3/4")
        psi = coarsen(lam, [2, 1, 3])
        rep = verify_cut("arithmetic", psi, lam, 3)
        coarse = sum(Fraction(psi.term(m)) / psi.partial_sum(m)
                     for m in range(1, 4))
        fine = sum(Fraction(lam.term(n)) / lam.partial_sum(n)
                   for n in range(1, 7))
        assert rep.witness["slack"] <= fine - coarse  # worst is no better
        assert rep.witness["fine_sum"] <= fine

    @pytest.mark.parametrize("desc", ["geometric:1/2", "geometric:3/4", "ones", "dyadic",
                                      "perturbed-dyadic:3", "power:-2"])
    def test_exact_report_matches_fraction_reference(self, desc):
        # reference: partial sums by Fraction addition, slacks by Fraction
        # subtraction, the first least slack by min and index; a block of
        # size 1 adds equal ratios to both sums, so it ties the slack before
        # it, and leading ones tie at slack 0
        lam = make_sequence(desc)
        rng = random.Random(f"cut:{desc}")
        compositions = [[1, 1, 1, 3, 1, 2], [3, 1, 1, 2, 1]]
        compositions += [[rng.choice([1, 1, 2, 3, 5]) for _ in range(rng.randint(1, 14))]
                         for _ in range(6)]
        for sizes in compositions:
            ns = list(accumulate(sizes))
            terms = [Fraction(lam.term(n)) for n in range(1, ns[-1] + 1)]
            fine = list(accumulate(t / W for t, W in zip(terms, accumulate(terms))))
            blocks = [sum(terms[n - b:n]) for b, n in zip(sizes, ns)]
            coarse = list(accumulate(t / W for t, W in zip(blocks, accumulate(blocks))))
            slacks = [fine[n - 1] - c for c, n in zip(coarse, ns)]
            k = slacks.index(min(slacks))
            rep = verify_cut("arithmetic", coarsen(lam, sizes), lam, len(sizes))
            assert rep.passed == (slacks[k] >= 0)
            assert rep.margin == float(slacks[k])
            assert rep.witness == {"truncation": k + 1, "matched_fine_index": ns[k],
                                   "coarse_sum": coarse[k], "fine_sum": fine[ns[k] - 1],
                                   "slack": slacks[k]}, (desc, sizes)

    def test_exact_negative_slacks_name_the_first_least(self, monkeypatch):
        # no coarsening gives a negative slack for the arithmetic mean, so
        # the ratios are stubbed: fine sums 1, 1, 2 against coarse sums
        # 1/2, 3/2, 5/2 give slacks 1/2, -1/2, -1/2
        lam = make_sequence("ones")
        stub = {"coarse": [Fraction(1, 2), 1, 1], "fine": [1, 0, 1]}
        monkeypatch.setattr(checks, "term_ratios", lambda w, n: [
            Fraction(v) for v in stub["fine" if w is lam else "coarse"][:n]])
        rep = verify_cut("arithmetic", coarsen(lam, [1]), lam, 3)
        assert rep.outcome == "fail" and rep.margin == -0.5
        assert rep.witness["truncation"] == 2
        assert rep.witness["slack"] == Fraction(-1, 2)
        assert type(rep.witness["slack"]) is Fraction

    def test_non_coarsening_refused(self):
        with pytest.raises(HypothesisViolation, match="not a coarsening"):
            verify_cut("arithmetic", make_sequence("geometric:1/3"),
                       make_sequence("ones"), 3)

    def test_unknown_closed_form_name(self):
        # a string is a mean descriptor, read by families.parse_mean
        with pytest.raises(ValueError, match="unknown mean descriptor"):
            verify_cut("harmonic", make_sequence("ones"),
                       make_sequence("ones"), 2)

    def test_mean_mode_orders_finite_sections(self):
        lam = make_sequence("ones")
        psi = coarsen(lam, [2] * 16)
        rep = verify_cut(power(0.5), psi, lam, 32)
        assert rep.passed and rep.margin >= 0
        assert rep.details["mode"] == "certified-sections"
        w = rep.witness
        assert w["fine_value"] - w["coarse_upper"] == rep.margin
        assert w["coarse_value"] <= w["coarse_upper"]
        assert w["fine_value"] <= w["fine_upper"]

    @pytest.mark.parametrize("p", [0.5, 0.0, -2.0])
    def test_random_coarsenings_certified_at_matched_truncations(self, p):
        # solving both sequences at the same N failed 21 of these 40 cases
        # at p = 1/2 (seed 0 by 0.17): N coarse terms cover more weight
        # than N fine ones
        for s in range(40):
            lam = random_rational_sequence(s)
            rng = random.Random(s)
            psi = coarsen(lam, [rng.randint(1, 6) for _ in range(12)])
            rep = verify_cut(power(p), psi, lam, 12)
            assert rep.passed and rep.margin >= 0, (s, rep.margin)
            assert rep.details["mode"] == "certified-sections"

    def test_section_solves_decide_pass_fail_or_nothing(self, monkeypatch):
        # coarse section [2] against fine section [1, 1]; the stub hands out
        # (value, upper_section) by section length
        def stub(bounds):
            def solve(mean, w):
                value, upper = bounds[len(w)]
                return SearchResult(value=value, witness=tuple(1.0 / w), converged=True,
                                    n_updates=0, start_values=(value,), solver="stub",
                                    iterations=0, upper_section=upper)
            return solve

        lam = make_sequence("ones")
        psi = coarsen(lam, [2])
        monkeypatch.setattr(checks, "maximize_hardy_ratio", stub({1: (1.0, 1.5), 2: (0.5, 0.8)}))
        rep = verify_cut(power(0.5), psi, lam, 1)
        assert rep.outcome == "fail" and rep.margin == pytest.approx(-0.2)
        assert rep.witness["slack"] == rep.margin
        monkeypatch.setattr(checks, "maximize_hardy_ratio", stub({1: (1.0, 1.2), 2: (1.1, 1.3)}))
        with pytest.raises(InconclusiveError, match="truncation 1"):
            verify_cut(power(0.5), psi, lam, 1)

    def test_mean_without_an_order_is_inconclusive(self):
        cube = make_generator("cube", lambda t: t ** 3, lambda t: t ** (1 / 3))
        claimed = MeanFlags(symmetric=True, monotone=True, concave=True)
        lam = make_sequence("ones")
        with pytest.raises(InconclusiveError, match="no section certificate"):
            verify_cut(quasiarithmetic(cube, claimed), coarsen(lam, [2]), lam, 2)

    def test_mean_mode_requires_continuity_in_weights(self):
        lam = make_sequence("ones")
        with pytest.raises(HypothesisViolation, match="continuous"):
            verify_cut(power(-math.inf), coarsen(lam, [2]), lam, 3)

    def test_mean_mode_requires_concavity_claim(self):
        lam = make_sequence("ones")
        with pytest.raises(HypothesisViolation, match="concave"):
            verify_cut(power(2), coarsen(lam, [2]), lam, 4)

    def test_mean_mode_requires_coarsening_certificate(self):
        with pytest.raises(HypothesisViolation, match="not a coarsening"):
            verify_cut(power(0.5), make_sequence("geometric:1/3"),
                       make_sequence("ones"), 8)


class TestDecreasing:
    def test_running_means_of_step_profile(self):
        f = StepFunction((0, 1, 2, 3), (4, 2, 1))
        rep = verify_decreasing(power(1), f, (1, 2, 3))
        assert rep.passed
        assert rep.details["values"] == [pytest.approx(4.0),
                                         pytest.approx(3.0),
                                         pytest.approx(7 / 3)]
        assert rep.margin == pytest.approx(2 / 3)

    def test_constant_profile_has_zero_margin(self):
        f = StepFunction((0, 5), (2,))
        rep = verify_decreasing(power(0), f, (1, 2, 4, 5))
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_increasing_profile_refused(self):
        f = StepFunction((0, 1, 2), (1, 3))
        with pytest.raises(HypothesisViolation):
            verify_decreasing(power(1), f, (1, 2))

    @pytest.mark.parametrize("grid", [(1,), (2, 1), (0, 1), (-1, 1), (1, 1)])
    def test_bad_grids_rejected(self, grid):
        f = StepFunction((0, 1, 2), (2, 1))
        with pytest.raises(ValueError):
            verify_decreasing(power(1), f, grid)

    def test_random_profiles_under_geometric_mean(self):
        rng = random.Random(12)
        for trial in range(100):
            n = rng.randint(1, 5)
            vals = sorted((Fraction(rng.randint(1, 60), rng.randint(1, 10))
                           for _ in range(n)), reverse=True)
            widths = [Fraction(rng.randint(1, 9), rng.randint(1, 3))
                      for _ in range(n)]
            f = step_profile(vals, widths)
            pts = sorted({sum(widths[: i + 1]) for i in range(n)}
                         | {widths[0] / 2})
            rep = verify_decreasing(power(0), f, pts)
            assert rep.passed, (trial, vals, widths, rep.margin)


class TestLscTable:
    def test_frozen_values_and_dip(self):
        rep = lsc_example_table(3, 60)
        assert dict(rep.rows)[1] == pytest.approx(1.37664326121852, abs=1e-12)
        assert dict(rep.rows)[2] == pytest.approx(1.8167728544838406, abs=1e-12)
        assert rep.dip_positions == (1,)
        assert rep.tail_min >= rep.baseline

    def test_bumped_constant_matches_direct_sum(self):
        # independent route: inject the bump by hand and accumulate
        k, N = 4, 50
        lam = make_sequence(f"perturbed-dyadic:{k}")
        direct = sum(float(Fraction(lam.term(n)) / lam.partial_sum(n))
                     for n in range(1, N + 1))
        rep = lsc_example_table(k, N)
        assert dict(rep.rows)[k] == pytest.approx(direct, rel=1e-12)

    def test_convergence_to_baseline_plus_half(self):
        rep = lsc_example_table(25, 200)
        assert rep.converged
        assert rep.limit_value == pytest.approx(rep.baseline + 0.5)
        assert abs(rep.rows[-1][1] - rep.limit_value) <= 1e-3

    @pytest.mark.parametrize("kmax,N", [(25, 200), (3, 11)])
    def test_values_are_the_rounded_exact_partial_sums(self, kmax, N):
        def exact(descriptor):
            lam = make_sequence(descriptor)
            value = float(exact_sum(term_ratios(lam, N)))
            assert value == arithmetic_hardy(lam, N).value
            return value

        rep = lsc_example_table(kmax, N)
        assert rep.baseline == exact("dyadic")
        assert rep.rows == tuple((k, exact(f"perturbed-dyadic:{k}"))
                                 for k in range(1, kmax + 1))

    def test_builds_no_exact_sum(self, monkeypatch):
        # every bracket decides its rounding, so the exact sum, the
        # fallback of ratio_fsum, is never built
        def refuse(values):
            raise AssertionError("exact sum built")

        monkeypatch.setattr(scalars, "exact_sum", refuse)
        monkeypatch.setattr(hardy, "exact_sum", refuse)
        rep = lsc_example_table(25, 200)
        assert rep.dip_positions == (1,)

    def test_calls_no_term(self, monkeypatch):
        # the closed-form masses of dyadic and perturbed-dyadic feed the
        # bracket as integer pairs, with no Fraction ratio per term
        def refuse(*args):
            raise AssertionError("a term or a Fraction ratio was built")

        want = lsc_example_table(25, 200)
        monkeypatch.setattr(WeightSeq, "term", refuse)
        monkeypatch.setattr(checks, "term_ratios", refuse)
        assert lsc_example_table(25, 200) == want

    def test_truncation_margin_enforced(self):
        with pytest.raises(ValueError, match="margin"):
            lsc_example_table(25, 30)

    def test_serialization_and_csv(self):
        rep = lsc_example_table(2, 40)
        out = rep.to_json()
        assert [r["k"] for r in out["rows"]] == [1, 2]
        assert out["dip_positions"] == [1]
        rows = rep.csv_rows()
        assert rows[0] == ["k", "value"]
        assert float(rows[1][1]) == rep.rows[0][1]


class TestMu1Sweep:
    def test_small_sweep_stays_under_cap(self):
        rep = mu1_sweep(power(0.5), trials=3, N=24, seed=1)
        assert rep.passed and rep.outcome == "pass"
        assert rep.margin >= 0
        assert rep.witness["value"] <= 4.0 + 1e-3

    def test_artificially_low_cap_fails(self):
        rep = mu1_sweep(power(0.5), trials=2, N=24, seed=1, cap=1.0)
        assert not rep.passed and rep.outcome == "fail"
        assert rep.witness["value"] > 1.0

    def test_non_power_mean_needs_explicit_cap(self):
        from hardylab.families import make_generator, quasiarithmetic
        import numpy as np
        gm = quasiarithmetic(make_generator("log", np.log, np.exp))
        with pytest.raises(ValueError, match="cap"):
            mu1_sweep(gm, trials=1, N=8)
        rep = mu1_sweep(gm, trials=2, N=16, seed=0, cap=math.e)
        assert rep.passed
