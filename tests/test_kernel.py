import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import kernel
from hardylab.kernel import (MeanFlags, MeanSpec, StepFunction, check_axioms,
                             evaluate, interval_mean, replay_axiom, shuffle,
                             step_profile)
from hardylab.families import (make_generator, order_regime, parse_mean, power,
                               power_mean, quasiarithmetic, quasiarithmetic_mean)
from hardylab.scalars import json_ready

ARITH = parse_mean("arithmetic")
# two or more orders in each families.order_regime
ORDERS_BY_REGIME = [-math.inf, -1e9, 1e9, math.inf, 0.0, 1e-9, -1e-9, 1e-3, -5e-3,
                    0.5, 1.0, -3.0, 16.0, 17.0, -100.0]

rationals = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50))
small_lists = st.integers(min_value=1, max_value=6)


def _corrupted(fn, name, flags=MeanFlags()):
    return MeanSpec(family="custom", params=None, flags=flags, fn=fn, name=name)


def _plus_sumw(x, w):
    # the arithmetic mean plus the weight total: not nullhomogeneous, and
    # outside [min x, max x]
    ws = [float(v) for v in w]
    return sum(a * b for a, b in zip(x, ws)) / sum(ws) + sum(ws)


def _position_skew(x, w):
    # weights scaled by their position: breaks reduction and symmetry
    ws = [float(v) * (i + 1) for i, v in enumerate(w)]
    return sum(a * b for a, b in zip(x, ws)) / sum(ws)


def _antitone(x, w):
    # the harmonic mean, corrupted to decrease in x_0
    ws = [float(v) for v in w]
    harmonic = 1.0 / (sum(b / a for a, b in zip(x, ws)) / sum(ws))
    return harmonic - 0.5 * float(x[0]) + 0.5 * min(x)


# name -> (fn, claimed flags, trials, seed) of the corrupted means
CORRUPTED = {
    "+sumw": (_plus_sumw, MeanFlags(), 60, 0),
    "skew": (_position_skew, MeanFlags(symmetric=True), 60, 0),
    "antitone": (_antitone, MeanFlags(monotone=True), 80, 1),
}


def _corrupted_report(name):
    fn, flags, trials, seed = CORRUPTED[name]
    mean = _corrupted(fn, f"corrupted:{name}", flags)
    return mean, check_axioms(mean, trials=trials, seed=seed)


class TestEvaluate:
    def test_weighted_average(self):
        assert evaluate(ARITH, [1, 3], [2, 1]) == pytest.approx(5 / 3, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate(ARITH, [1, 2], [1])

    @pytest.mark.parametrize("x", [[0, 1], [-1], [math.inf], [math.nan]])
    def test_rejects_bad_points(self, x):
        with pytest.raises(ValueError):
            evaluate(ARITH, x, [1] * len(x))

    @pytest.mark.parametrize("w", [[0], [-2, 1], [math.inf]])
    def test_rejects_bad_weights(self, w):
        with pytest.raises(ValueError):
            evaluate(ARITH, [1] * len(w), w)

    @given(x=st.lists(rationals, min_size=1, max_size=6))
    def test_rational_weight_scaling_is_exactly_invariant(self, x):
        w = [Fraction(1, k + 1) for k in range(len(x))]
        base = evaluate(ARITH, x, w)
        scaled = evaluate(ARITH, x, [Fraction(7, 3) * v for v in w])
        assert base == scaled  # bit-for-bit, not approx


CUBE = make_generator("cube", lambda t: t ** 3, np.cbrt)

# the four public ways in that check a point or weight vector, each
# raising the same type and message on the same defect
ENTRY_POINTS = {
    "evaluate": lambda x, w: evaluate(power(0.5), x, w),
    "evaluate-generator": lambda x, w: evaluate(quasiarithmetic(CUBE), x, w),
    "power_mean": lambda x, w: power_mean(0.5, x, w),
    "quasiarithmetic_mean": lambda x, w: quasiarithmetic_mean(CUBE, x, w),
    "step_profile": step_profile,
}
POINT_MSG = "point entries must be strictly positive and finite, got "
WEIGHT_MSG = "weights must be strictly positive and finite, got "
# (x, w, message): one defect each, so every entry point names it
REJECTED = [
    ([1, math.nan], [1, 1], POINT_MSG + "nan"),
    ([math.inf, 1], [1, 1], POINT_MSG + "inf"),
    ([1, -math.inf], [1, 1], POINT_MSG + "-inf"),
    ([0, 1], [1, 1], POINT_MSG + "0.0"),
    ([2, -1], [1, 1], POINT_MSG + "-1.0"),
    ([], [1], "point vector needs at least one entry"),
    ([1, 2], [1, math.nan], WEIGHT_MSG + "nan"),
    ([1, 2], [math.inf, 1], WEIGHT_MSG + "inf"),
    ([1, 2], [1, -math.inf], WEIGHT_MSG + "-inf"),
    ([1, 2], [1, 0], WEIGHT_MSG + "0"),
    ([1, 2], [0.0, 1], WEIGHT_MSG + "0.0"),
    ([1, 2], [-2, 1], WEIGHT_MSG + "-2"),
    ([1, 2], [1, -2], WEIGHT_MSG + "-2"),  # all ints, the first entry positive
    ([1, 2], [Fraction(-1, 2), 1], WEIGHT_MSG + "Fraction(-1, 2)"),
    ([1], [], "weight vector needs at least one entry"),
    # numpy scalars that are not Python floats are tested for finiteness too
    *(([1, 2], [v, 1], WEIGHT_MSG + repr(v))
      for v in (np.float32("inf"), np.float32("nan"), np.float16("inf"), np.float16("nan"))),
    ([1, 2], [1], "length mismatch: 2 points vs 1 weights"),
    ([1], [1, Fraction(1, 2)], "length mismatch: 1 points vs 2 weights"),
    # two defects: the weights are checked first, then the points, then the lengths
    ([0, 1], [1, 0], WEIGHT_MSG + "0"),
    ([0, 1], [1], POINT_MSG + "0.0"),
]


class TestOneBoundaryCheck:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("x, w, message", REJECTED)
    def test_rejections_keep_type_and_message(self, name, x, w, message):
        with pytest.raises(ValueError) as exc:
            ENTRY_POINTS[name](x, w)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    @pytest.mark.parametrize("w", [[10 ** 400, 1], [Fraction(10 ** 400), 1],
                                   [1, Fraction(1, 3), 2], [Fraction(10 ** 400, 7), 3],
                                   [3, np.int64(2)]])
    def test_exact_weights_of_any_size_pass(self, w):
        # math.isfinite would overflow on these; only float weights are
        # tested for finiteness
        x = [1, 2, 4, 8][:len(w)]
        assert all(isinstance(b, (int, Fraction)) for b in step_profile(x, w).breakpoints)
        scaled = [Fraction(3, 7) * v for v in w]
        for name in ENTRY_POINTS:
            ENTRY_POINTS[name](x, w)
        assert evaluate(power(0.5), x, w) == evaluate(power(0.5), x, scaled)
        assert evaluate(power(0.5), x, w) == power_mean(0.5, x, w)
        if w[0] == 10 ** 400:
            assert evaluate(power(0.5), x, w) == 1.0

    @pytest.mark.parametrize("w, floats, power_half, cube, breakpoints", [
        # a bool is no exact weight: the float route, as for [1.0, 2.0]
        ([True, 2], [1.0, 2.0], 1.6285393610547085, 1.782827080413121, (0.0, 1.0, 3.0)),
        ([2, 0.5], [2.0, 0.5], 1.172548339959391, 1.338865900164339, (0.0, 2.0, 2.5)),
        # a numpy integer is exact: integer masses, as for [3, 2]
        ([3, np.int64(2)], [3, 2], 1.3588225099390854, 1.560490750707885, (0, 3, 5)),
    ])
    def test_vectors_that_are_not_all_ints_keep_their_routes(self, w, floats, power_half,
                                                            cube, breakpoints):
        # an int first entry does not make a vector all-int: each of these
        # is accepted with the values it had before that branch existed
        x = [1, 2]
        assert evaluate(power(0.5), x, w) == power_mean(0.5, x, w) == power_half
        assert evaluate(power(0.5), x, floats) == power_half
        assert evaluate(quasiarithmetic(CUBE), x, w) == quasiarithmetic_mean(CUBE, x, w) == cube
        got = step_profile(x, w).breakpoints
        assert got == breakpoints
        assert [type(b) for b in got] == [type(b) for b in breakpoints]

    def test_numpy_arrays_pass_as_their_floats(self):
        x = np.array([0.5, 2.0, 3.25])
        w = np.array([1.5, 0.25, 2.0])
        for mean in (power(0.5), quasiarithmetic(CUBE)):
            assert evaluate(mean, x, w) == evaluate(mean, x.tolist(), w.tolist())
        assert step_profile(x, w) == step_profile(x.tolist(), w.tolist())

    @pytest.mark.parametrize("mean, x, w", [
        (power(1), [1, 4, 9], [2 ** 62, 2 ** 62, 1]),  # 2.5, not 1.0
        (power(0.5), [1, 4], [2 ** 62, 2 ** 62]),  # not a math domain error
        (quasiarithmetic(CUBE), [1, 4], [2 ** 63 - 1, 2 ** 63 - 1]),
    ])
    def test_numpy_integer_weights_do_not_wrap(self, mean, x, w):
        # sums of np.int64 weights past 2**63 would wrap; each call equals
        # the call with the same Python ints
        big = [np.int64(v) for v in w]
        assert evaluate(mean, x, big) == evaluate(mean, x, w)
        assert step_profile(x, big) == step_profile(x, w)
        assert all(type(b) is int for b in step_profile(x, big).breakpoints)

    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(st.sampled_from(ORDERS_BY_REGIME),
                       st.floats(-40, 40, allow_nan=False)),
           data=st.data())
    def test_spec_route_is_the_public_arithmetic(self, p, data):
        n = data.draw(st.integers(1, 6))
        x = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
        w = data.draw(st.one_of(
            st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
            st.lists(rationals, min_size=n, max_size=n)))
        assert evaluate(power(p), x, w) == power_mean(p, x, w)
        assert evaluate(quasiarithmetic(CUBE), x, w) == quasiarithmetic_mean(CUBE, x, w)

    def test_orders_cover_every_regime(self):
        assert {order_regime(p) for p in ORDERS_BY_REGIME} == {
            "min", "max", "geometric", "near_geometric", "raw", "log"}


class TestShuffle:
    def test_interleaves(self):
        assert shuffle((1, 2), (3, 4)) == (1, 3, 2, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shuffle((1,), (1, 2))


class TestStepFunction:
    def test_lookup(self):
        f = StepFunction((0, 1, 3), (4.0, 2.0))
        assert f(0) == 4.0 and f(0.99) == 4.0 and f(1) == 2.0 and f(2.9) == 2.0

    def test_outside_support(self):
        f = StepFunction((0, 1), (1.0,))
        with pytest.raises(ValueError):
            f(1)
        with pytest.raises(ValueError):
            f(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction((1, 2), (1.0,))  # must start at 0
        with pytest.raises(ValueError):
            StepFunction((0, 1, 1), (1.0, 2.0))  # not strictly increasing
        with pytest.raises(ValueError):
            StepFunction((0, 1), (0.0,))  # nonpositive value

    def test_is_nonincreasing(self):
        assert StepFunction((0, 1, 2), (2.0, 1.0)).is_nonincreasing()
        assert not StepFunction((0, 1, 2), (1.0, 2.0)).is_nonincreasing()


class TestStepProfile:
    def test_exact_breakpoints_for_rational_weights(self):
        f = step_profile([1, 2], [Fraction(1, 2), Fraction(1, 3)])
        assert f.breakpoints == (0, Fraction(1, 2), Fraction(5, 6))
        assert all(isinstance(b, (int, Fraction)) for b in f.breakpoints)

    def test_float_weights_still_work(self):
        f = step_profile([1, 2], [0.5, 0.25])
        assert f.support == (0, 0.75)

    def test_value_layout(self):
        f = step_profile([4, 2, 1], [1, 1, 1])
        assert [f(t) for t in (0, 1, 2)] == [4.0, 2.0, 1.0]


class TestIntervalMean:
    def test_running_means_of_step_profile(self):
        # independent oracle: running averages 4, 3, 7/3 by direct arithmetic
        f = step_profile([4, 2, 1], [1, 1, 1])
        vals = [interval_mean(ARITH, f, 0, u) for u in (1, 2, 3)]
        assert vals == pytest.approx([4.0, 3.0, 7 / 3], rel=1e-15)

    def test_partial_window_splits_pieces(self):
        f = step_profile([4, 2, 1], [1, 1, 1])
        # overlap lengths 1/2, 1, 1/2 -> (2 + 2 + 1/2) / 2
        assert interval_mean(ARITH, f, Fraction(1, 2), Fraction(5, 2)) == \
            pytest.approx(2.25, rel=1e-15)

    def test_full_support_reproduces_evaluate_exactly(self):
        x = [3, 1, 4, 1, 5]
        w = [Fraction(1, 2), Fraction(1, 3), 2, Fraction(5, 7), 1]
        f = step_profile(x, w)
        a, b = f.support
        assert interval_mean(ARITH, f, a, b) == evaluate(ARITH, x, w)

    def test_window_outside_support(self):
        f = step_profile([1], [1])
        with pytest.raises(ValueError):
            interval_mean(ARITH, f, 0, 2)


class TestCheckAxioms:
    def test_power_means_pass(self):
        for spec in ("power:-1", "power:0", "power:1/2", "power:2"):
            rep = check_axioms(parse_mean(spec), trials=60, seed=3)
            assert rep.passed, spec

    def test_extremes_skip_elimination(self):
        rep = check_axioms(parse_mean("power:-inf"), trials=40, seed=0)
        assert rep.passed
        assert rep.outcomes["elimination"].skipped

    @pytest.mark.parametrize("order, seed", [(3, 0), (2, 35), (-3, 0), (4, 0),
                                             (8, 0), (-8, 0)])
    def test_elimination_holds_for_larger_orders(self, order, seed):
        # the appended weight must get small enough that (z/x)^p cannot
        # keep the perturbation above threshold at the probe
        rep = check_axioms(power(order), trials=200, seed=seed)
        assert rep.outcomes["elimination"].passed, rep.outcomes["elimination"]

    @pytest.mark.parametrize("order, x, z", [(40, 0.1, 10.0), (-40, 10.0, 0.1)])
    def test_elimination_descends_to_a_rung_where_the_gap_is_small(self, order, x, z):
        # at the first rung, eps = 1e-12, the appended entry moves the mean
        # by a relative 0.98, as eps * (z/x)^p = 1e68 dominates; the check
        # must descend the rungs until the gap is small, then see it shrink
        mean = power(order)
        first = kernel._rel_gap(evaluate(mean, [x], [1]),
                                evaluate(mean, [x, z], [1, kernel._ELIMINATION_RUNGS[0]]))
        assert first == pytest.approx(0.98, abs=1e-3)
        assert replay_axiom(mean, "elimination", {"x": [x], "w": [1], "z": z}) == 0.0

    def test_max_mean_claiming_continuity_fails_elimination(self):
        flags = MeanFlags(symmetric=True, monotone=True, homogeneous=True,
                          continuous_in_weights=True)
        rep = check_axioms(power(math.inf, flags=flags), trials=60, seed=0)
        oc = rep.outcomes["elimination"]
        assert not oc.passed and oc.failures > 0
        assert replay_axiom(power(math.inf, flags=flags), "elimination",
                            oc.witness) == pytest.approx(oc.worst_violation)

    def test_unclaimed_flags_are_skipped_not_run(self):
        rep = check_axioms(parse_mean("power:2"), trials=40, seed=0)
        assert rep.outcomes["concave"].skipped == "flag not claimed"

    def test_additive_corruption_is_caught(self):
        _, rep = _corrupted_report("+sumw")
        assert not rep.passed
        assert not rep.outcomes["nullhomogeneity"].passed
        assert not rep.outcomes["mean_value"].passed

    def test_position_skew_breaks_reduction(self):
        _, rep = _corrupted_report("skew")
        assert not rep.outcomes["reduction"].passed
        assert not rep.outcomes["symmetric"].passed

    def test_antitone_mean_fails_claimed_monotonicity(self):
        _, rep = _corrupted_report("antitone")
        assert not rep.outcomes["monotone"].passed

    @pytest.mark.parametrize("name", sorted(CORRUPTED))
    def test_witness_replays_to_reported_violation(self, name):
        # the check hands each measure the trial's M(x, w); a replay
        # recomputes it from the witness and must land on the same number
        mean, rep = _corrupted_report(name)
        failing = [oc for oc in rep.outcomes.values() if not oc.passed]
        assert failing
        for oc in failing:
            assert oc.witness is not None
            assert replay_axiom(mean, oc.axiom, oc.witness) == oc.worst_violation, oc.axiom
            out = rep.to_json()["outcomes"][oc.axiom]
            assert not out["passed"]
            assert out["witness"] == json_ready(oc.witness)

    @pytest.mark.parametrize("order, calls", [(0.5, 2200), (2.0, 1800), (math.inf, 1400)])
    def test_one_evaluation_of_the_base_serves_every_check(self, monkeypatch, order, calls):
        # per trial: M(x, w) once, then 1 evaluation for nullhomogeneity,
        # 2 for reduction, 0 for mean_value, 2 for elimination (the first
        # rung suffices at |p| <= 4), 1 each for symmetric and monotone, 2
        # for concave and 1 for homogeneous; p = 2 claims no concavity and
        # +inf skips elimination too
        seen = []
        real = kernel.evaluate
        monkeypatch.setattr(kernel, "evaluate", lambda *args: seen.append(args) or real(*args))
        rep = check_axioms(power(order), trials=200, seed=1)
        assert rep.passed
        assert len(seen) == calls

    def test_report_serializes(self):
        rep = check_axioms(power(1.0), trials=10, seed=0)
        out = rep.to_json()
        assert out["passed"] is True
        assert set(out["outcomes"]) >= {"nullhomogeneity", "reduction",
                                        "mean_value", "elimination"}


class TestAxiomProperties:
    @given(x=st.lists(rationals, min_size=1, max_size=5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mean_value_property(self, x, data):
        w = data.draw(st.lists(rationals, min_size=len(x), max_size=len(x)))
        for spec in ("power:-1", "power:1/2", "power:2"):
            v = evaluate(parse_mean(spec), x, w)
            assert min(x) - 1e-9 <= v <= max(x) + 1e-9

    @given(x=st.lists(rationals, min_size=2, max_size=6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduction_under_interleaving(self, x, data):
        lam = data.draw(st.lists(rationals, min_size=len(x), max_size=len(x)))
        mu = data.draw(st.lists(rationals, min_size=len(x), max_size=len(x)))
        joint = evaluate(ARITH, x, [a + b for a, b in zip(lam, mu)])
        split = evaluate(ARITH, shuffle(x, x), shuffle(lam, mu))
        assert joint == pytest.approx(split, rel=1e-12)
