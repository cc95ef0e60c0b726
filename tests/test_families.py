import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.hardy import DEFAULT_Y_GRID, kedlaya_estimate
from hardylab.kernel import MeanDomainError, MeanFlags, check_axioms, evaluate
from hardylab.families import (GeneratorHandle, _normalized_weights, builtin_generator,
                               make_generator, order_regime, parse_mean, power,
                               power_mean, power_order, quasiarithmetic,
                               quasiarithmetic_mean)
from hardylab.weights import make_sequence

positive = st.floats(min_value=0.05, max_value=50, allow_nan=False)


class TestPowerMeanValues:
    # oracles below are direct formula evaluations, independent of the
    # shifted-exponential implementation path

    def test_arithmetic(self):
        assert power_mean(1.0, [1, 3], [2, 1]) == pytest.approx(5 / 3, rel=1e-15)

    def test_quadratic(self):
        oracle = math.sqrt((2 * 1 + 1 * 9) / 3)
        assert power_mean(2.0, [1, 3], [2, 1]) == pytest.approx(oracle, rel=1e-13)

    def test_geometric(self):
        oracle = 3 ** (1 / 3)
        assert power_mean(0.0, [1, 3], [2, 1]) == pytest.approx(oracle, rel=1e-13)

    def test_harmonic(self):
        oracle = 2 / (1 / 2 + 1 / 4)  # = 8/3
        assert power_mean(-1.0, [2, 4], [1, 1]) == pytest.approx(oracle, rel=1e-13)

    def test_extremes(self):
        assert power_mean(-math.inf, [2, 7, 3], [1, 5, 2]) == 2.0
        assert power_mean(math.inf, [2, 7, 3], [1, 5, 2]) == 7.0

    def test_single_point(self):
        assert power_mean(0.37, [5.5], [3]) == 5.5

    def test_constant_vector_any_order(self):
        for p in (-40.0, -1.0, 0.0, 0.5, 3.0, 40.0):
            assert power_mean(p, [2, 2, 2], [1, 2, 3]) == pytest.approx(2.0, rel=1e-15)

    def test_tiny_order_falls_back_to_geometric(self):
        g = power_mean(0.0, [1, 4], [1, 1])
        assert power_mean(1e-9, [1, 4], [1, 1]) == pytest.approx(g, rel=1e-12)

    @pytest.mark.parametrize("p", [1.01e-8, -1.01e-8, 3e-8, 1e-6, -5e-5, 9.9e-5,
                                   1e-4, -1e-3, 3e-3, 9.9e-3])
    def test_near_geometric_orders_keep_their_digits(self, p):
        # u^p rounds to 1 +- a few ulps, or within a few hundred ulps, here,
        # so raw or shifted powers lose about eps/|p| relative, more than
        # 1e-14; a 40-digit Decimal evaluation is the oracle
        rng = np.random.default_rng(7)
        x, w = rng.lognormal(0.0, 3.0, 24), rng.lognormal(0.0, 1.0, 24)
        with localcontext() as ctx:
            ctx.prec = 40
            dp = Decimal(p)
            total = sum(Decimal(wi) for wi in w)
            s = sum(Decimal(wi) / total * (dp * Decimal(xi).ln()).exp()
                    for xi, wi in zip(x, w))
            oracle = float((s.ln() / dp).exp())
        assert power_mean(p, x, w) == pytest.approx(oracle, rel=1e-14)

    def test_order_regimes(self):
        cases = {-math.inf: "min", -2e8: "min", -1e8: "log", -16.5: "log",
                 -16.0: "raw", -1e-2: "raw", -9.9e-3: "near_geometric",
                 -1e-4: "near_geometric", -9.9e-5: "near_geometric",
                 -1e-8: "near_geometric", -9.9e-9: "geometric", 0.0: "geometric",
                 1e-8: "near_geometric", 1e-4: "near_geometric",
                 9.9e-3: "near_geometric", 1e-2: "raw", 1.0: "raw", 16.0: "raw",
                 16.5: "log", 1e8: "log", 2e8: "max", math.inf: "max"}
        assert {p: order_regime(p) for p in cases} == cases

    def test_huge_order_falls_back_to_extreme(self):
        assert power_mean(1e9, [1, 4], [1, 1]) == 4.0
        assert power_mean(-1e9, [1, 4], [1, 1]) == 1.0

    def test_large_finite_order_is_stable_and_clamped(self):
        v = power_mean(200.0, [1.0, 1e6], [1, 1])
        assert 1.0 <= v <= 1e6
        assert v == pytest.approx(1e6 * (0.5) ** (1 / 200), rel=1e-10)

    def test_rational_weight_normalization_is_exact(self):
        a = power_mean(2.0, [1, 3], [Fraction(2, 7), Fraction(1, 7)])
        b = power_mean(2.0, [1, 3], [2, 1])
        assert a == b

    @given(st.lists(st.one_of(
        st.integers(1, 10 ** 6),
        st.integers(10 ** 399, 10 ** 400),
        st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
        st.builds(Fraction, st.integers(1, 10 ** 400), st.integers(1, 10 ** 400)),
        st.integers(2 ** 62 - 2 ** 20, 2 ** 62 + 2 ** 20).map(np.int64),
    ), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_integer_masses_normalize_as_fractions_do(self, entries):
        # the exact branch divides integer masses; the reference is the
        # Fraction route, on Python ints (sums of np.int64 entries wrap)
        got = _normalized_weights(tuple(entries))
        entries = [int(e) if isinstance(e, np.integer) else e for e in entries]
        assert got == [float(Fraction(e) / sum(entries)) for e in entries]
        assert all(type(v) is float for v in got)

    @given(x=st.lists(positive, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_nondecreasing_in_order(self, x, data):
        w = data.draw(st.lists(positive, min_size=len(x), max_size=len(x)))
        orders = sorted(data.draw(
            st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=4)))
        vals = [power_mean(p, x, w) for p in orders]
        for a, b in zip(vals, vals[1:]):
            assert a <= b * (1 + 1e-9) + 1e-12

    @given(x=st.lists(positive, min_size=1, max_size=6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_between_min_and_max(self, x, data):
        w = data.draw(st.lists(positive, min_size=len(x), max_size=len(x)))
        p = data.draw(st.floats(min_value=-30, max_value=30))
        v = power_mean(p, x, w)
        assert min(x) <= v <= max(x)


class TestPowerSpec:
    def test_names_and_flags(self):
        m = power(0.5)
        assert m.name == "power:1/2" or m.name == "power:0.5"
        assert m.flags.concave and m.flags.monotone and m.flags.homogeneous

    def test_convex_orders_do_not_claim_concavity(self):
        assert not power(2.0).flags.concave

    def test_extreme_orders_not_continuous_in_weights(self):
        assert not power(math.inf).flags.continuous_in_weights
        assert power(1.0).flags.continuous_in_weights

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError):
            power(math.nan)


class TestQuasiarithmetic:
    def test_log_generator_matches_geometric(self):
        m = quasiarithmetic(builtin_generator("log"))
        assert evaluate(m, [1, 3], [2, 1]) == pytest.approx(3 ** (1 / 3), rel=1e-12)

    def test_sqrt_generator_matches_half_power(self):
        m = quasiarithmetic(builtin_generator("sqrt"))
        ref = power_mean(0.5, [1, 4, 9], [1, 2, 3])
        assert evaluate(m, [1, 4, 9], [1, 2, 3]) == pytest.approx(ref, rel=1e-12)

    def test_identity_generator_matches_arithmetic(self):
        m = quasiarithmetic(builtin_generator("identity"))
        assert evaluate(m, [1, 3], [2, 1]) == pytest.approx(5 / 3, rel=1e-15)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_generator("exp")

    def test_make_generator_validates_round_trip(self):
        with pytest.raises(ValueError, match="invert"):
            make_generator("broken", np.log, np.sqrt)

    def test_custom_generator(self):
        g = make_generator("cube", lambda t: np.asarray(t) ** 3,
                           lambda s: np.asarray(s) ** (1 / 3))
        m = quasiarithmetic(g)
        assert evaluate(m, [1, 2], [1, 1]) == pytest.approx((9 / 2) ** (1 / 3), rel=1e-12)

    def test_broken_generator_stays_detectable(self):
        # inverse inflates by 10% beyond the identity; the wrapper must not
        # clamp the result back into [min, max], or the axiom check would
        # never see the defect
        # built directly: make_generator's round-trip check refuses it
        g = GeneratorHandle("inflate", lambda t: np.asarray(t, dtype=float),
                            lambda s: np.asarray(s, dtype=float) * 1.1)
        m = quasiarithmetic(g)
        assert evaluate(m, [2, 2], [1, 1]) == pytest.approx(2.2, rel=1e-12)
        rep = check_axioms(m, trials=40, seed=0)
        assert not rep.outcomes["mean_value"].passed

    def test_builtin_generators_carry_their_power_order(self):
        for name, order in (("log", 0.0), ("identity", 1.0), ("sqrt", 0.5)):
            assert builtin_generator(name).power_order == order
            assert quasiarithmetic(builtin_generator(name)).flags == power(order).flags
            assert power_order(quasiarithmetic(builtin_generator(name))) == order
        assert make_generator("sqrt", np.sqrt, np.square).power_order is None
        assert power_order(quasiarithmetic(make_generator("sqrt", np.sqrt, np.square))) is None
        assert power_order(power(-2)) == -2.0 and power_order(power(-math.inf)) == -math.inf

    def test_user_generator_named_like_a_builtin_gets_no_builtin_flags(self):
        # an exponential mean named "log" is neither homogeneous nor concave;
        # flags once came from the generator's name
        user_log = quasiarithmetic(make_generator("log", np.exp, np.log))
        assert user_log.flags == MeanFlags(symmetric=True, monotone=True)
        other = quasiarithmetic(make_generator("exp-mean", np.exp, np.log))
        lam = make_sequence("geometric:2")
        est = kedlaya_estimate(user_log, lam, 64)
        assert [row["y"] for row in est.diagnostics["per_y"]] == list(DEFAULT_Y_GRID)
        assert not est.diagnostics["grid_collapsed"]
        assert est.value == kedlaya_estimate(other, lam, 64).value

    def test_generator_domain_error_wrapped(self):
        g = make_generator("log", np.log, np.exp)
        m = quasiarithmetic(g)
        with pytest.raises(ValueError):
            evaluate(m, [1, -1], [1, 1])


class TestParseMean:
    def test_arithmetic_alias(self):
        m = parse_mean("arithmetic")
        assert m.family == "power" and float(m.params) == 1.0

    @pytest.mark.parametrize("spec,p", [
        ("power:0.5", 0.5), ("power:-inf", -math.inf), ("power:2", 2.0),
        ("power:1/4", 0.25),
    ])
    def test_power_specs(self, spec, p):
        m = parse_mean(spec)
        assert m.family == "power" and float(m.params) == p

    def test_quasiarithmetic_spec(self):
        m = parse_mean("quasiarithmetic:log")
        assert m.family == "quasiarithmetic"

    @pytest.mark.parametrize("spec", ["median", "power:", "power:abc",
                                      "quasiarithmetic:exp", ""])
    def test_rejects_unknown(self, spec):
        with pytest.raises(ValueError):
            parse_mean(spec)
