import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.cli import main
from hardylab.families import (builtin_generator, make_generator, parse_mean, power,
                               power_order, quasiarithmetic)
from hardylab.hardy import finite_lower_bound
from hardylab.kernel import MeanFlags, MeanSpec, evaluate
from hardylab.search import (_FLOOR, _MAX_UPDATES, _ZOOM_ROUNDS, OptimizerConfig,
                             _ascend, _line_search, _PrefixEngine, _structured_starts,
                             hardy_ratio, maximize_hardy_ratio, prefix_means)
from hardylab.weights import make_sequence


def brute_ratio(mean, x, w):
    """Independent route: per-prefix evaluate() with plain Python sums."""
    num = sum(wn * evaluate(mean, x[: n + 1], w[: n + 1])
              for n, wn in enumerate(w))
    den = sum(wn * xn for wn, xn in zip(w, x))
    return num / den


MEANS = [
    power(-2), power(0), power(Fraction(1, 2)), power(1), power(2),
    power(17),  # beyond the raw-power limit: a running log-sum-exp
    power(math.inf), power(-math.inf),
    quasiarithmetic(make_generator("log", np.log, np.exp)),
    quasiarithmetic(make_generator("sqrt", np.sqrt, np.square)),
]


def opaque_mean(fn, name):
    """A mean with no recognized family: the engine evaluates it directly."""
    return MeanSpec(family="custom", params=None, flags=MeanFlags(), fn=fn,
                    name=name)


OPAQUE_ARITH = opaque_mean(
    lambda x, lam: sum(l * v for v, l in zip(x, lam)) / sum(lam), "opaque-arith")

CUBE = quasiarithmetic(make_generator("cube", lambda t: t ** 3, np.cbrt))

# the ascent serves only user generators and opaque means; candidate()
# stays exact for the power orders too, which without a transform
# (power:17, +-inf) it answers by direct evaluation
CANDIDATE_MEANS = MEANS + [CUBE, OPAQUE_ARITH]


@pytest.mark.parametrize("mean", MEANS, ids=lambda m: m.name)
def test_hardy_ratio_matches_brute_force(mean):
    w = list(make_sequence("dyadic").terms_floats(12))
    x = [1.0 / (k + 1) ** 1.5 for k in range(12)]
    got = hardy_ratio(mean, x, w, dense_check=True)
    want = brute_ratio(mean, x, w)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("mean", MEANS, ids=lambda m: m.name)
def test_prefix_means_match_direct_evaluation(mean):
    w = list(make_sequence("geometric:3/4").terms_floats(9))
    x = [2.0 / (k + 1) + 0.1 * k for k in range(9)]
    got = prefix_means(mean, x, w)
    want = [evaluate(mean, x[: n + 1], w[: n + 1]) for n in range(9)]
    assert got == pytest.approx(want, rel=1e-12)


# both sides of every regime boundary of families.order_regime
POLICY_ORDERS = [1e-9, -1e-9, 1.01e-8, -1.01e-8, 3e-8, -3e-8, 1e-4, 9.9e-3, -9.9e-3,
                 1e-2, -1e-2, 16.0, -16.0, 16.5, -16.5, 1e7, -1e7, 2e8, -2e8, 1e9, -1e9,
                 math.inf, -math.inf]


@pytest.mark.parametrize("p", POLICY_ORDERS, ids=repr)
def test_prefix_means_follow_the_kernel_order_policy(p):
    # power_mean and the prefix engine share one order policy, so they agree
    # on both sides of every cutoff, on inputs spread over many decades
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, w = rng.lognormal(0.0, 3.0, 24), rng.lognormal(0.0, 1.0, 24)
        got = prefix_means(power(p), x, w)
        want = [evaluate(power(p), x[: n + 1], w[: n + 1]) for n in range(24)]
        assert got == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("p", POLICY_ORDERS, ids=repr)
def test_engine_modes(p):
    # orders up to the raw-power limit run on a transform's running sums;
    # min, max and the log domain have none
    assert (_PrefixEngine(power(p), np.ones(3)).transform is not None) == (abs(p) <= 16)


def test_generic_engine_used_for_opaque_means():
    # a mean with no recognized family falls back to per-prefix evaluation
    w = [1.0, 2.0, 0.5, 1.5]
    x = [3.0, 1.0, 2.0, 0.25]
    assert _PrefixEngine(OPAQUE_ARITH, w).transform is None
    assert hardy_ratio(OPAQUE_ARITH, x, w, dense_check=True) == pytest.approx(
        brute_ratio(OPAQUE_ARITH, x, w), rel=1e-12)


@pytest.mark.parametrize("mean", CANDIDATE_MEANS, ids=lambda m: m.name)
def test_incremental_candidate_matches_rebuild(mean):
    w = np.array(make_sequence("geometric:3/4").terms_floats(10))
    rng = np.random.default_rng(5)
    x = rng.lognormal(0.0, 1.0, size=(2, 10))
    eng = _PrefixEngine(mean, w)
    eng.rebuild(x.copy())
    fresh = _PrefixEngine(mean, w)
    rows = np.array([1, 0])  # a block of rows in any order
    ts = np.array([[0.05, 1.0, 20.0]] * len(rows))
    for j in (0, 3, 9):
        inc = eng.candidate(rows, j, eng.line(rows, j), ts)
        assert inc.shape == ts.shape
        for r, row in enumerate(rows):
            for g, t in enumerate(ts[r]):
                y = x[row:row + 1].copy()
                y[0, j] = t
                fresh.rebuild(y)
                assert inc[r, g] == pytest.approx(fresh.value[0], rel=1e-9), (row, j, t)


@pytest.mark.parametrize("j", [0, 2])
def test_candidate_keeps_the_digits_of_a_dominated_suffix(j):
    # x[j]^3 carries all but 1e-16 of the running sums after it: shifting
    # them by the change of that one term leaves rounding noise in place of
    # the rest, which the ascent read as gains
    w = np.array([1.0, 0.5, 2.0, 0.75, 1.25, 3.0])
    x = np.array([[0.7, 1.1, 0.9, 1.3, 0.5, 0.8]])
    x[0, j] = 3.1e5
    eng = _PrefixEngine(CUBE, w)
    eng.rebuild(x)
    ts = np.array([[0.3, 0.8, 2.0]])
    rows = np.array([0])
    inc = eng.candidate(rows, j, eng.line(rows, j), ts)
    for g, t in enumerate(ts[0]):
        y = x.copy()
        y[0, j] = t
        assert inc[0, g] == pytest.approx(brute_ratio(CUBE, list(y[0]), list(w)), rel=1e-12)


def test_line_search_reads_the_line_once_for_its_seven_candidates(monkeypatch):
    # the line parts are computed once per coordinate and shared by the scan
    # and every zoom round, which stay one candidate() call each
    calls = {"line": 0, "candidate": 0}
    for name in calls:
        def counted(self, *args, _f=getattr(_PrefixEngine, name), _name=name):
            calls[_name] += 1
            return _f(self, *args)
        monkeypatch.setattr(_PrefixEngine, name, counted)
    w = np.array(make_sequence("geometric:3/4").terms_floats(8))
    eng = _PrefixEngine(CUBE, w)
    eng.rebuild(np.array([1.0 / np.cumsum(w), np.linspace(0.2, 2.0, 8)]))
    rows = np.array([1, 0])
    pts, vals = _line_search(eng, rows, 3)
    assert calls == {"line": 1, "candidate": 1 + _ZOOM_ROUNDS}
    assert pts.shape == vals.shape == (len(rows),)
    assert np.all(vals >= eng.value[rows] * (1 - 1e-12))


def test_arithmetic_objective_saturates_to_harmonic_sum():
    # For the arithmetic mean the supremum over x is sum(w_n / W_n); the
    # optimizer should land on it to near machine precision.
    w = [1.0, 1.0, 1.0]
    res = maximize_hardy_ratio(power(1), w, OptimizerConfig(starts=4, seed=0))
    # attained only in the limit of vanishing trailing coordinates, so the
    # finite floor leaves a ~1e-12 gap
    assert res.value == pytest.approx(11.0 / 6.0, rel=1e-10)
    assert res.converged


def start_ratio(mean, w):
    """Hardy ratio at the fixed point's own start x_n = 1/W_n."""
    return hardy_ratio(mean, 1.0 / np.cumsum(w), w)


def test_witness_respects_floor_and_value_is_reproducible():
    cfg = OptimizerConfig(starts=4, seed=3)
    w = list(make_sequence("dyadic").terms_floats(16))
    # the ascent runs every start and keeps its coordinates on the floor
    res = maximize_hardy_ratio(CUBE, w, cfg)
    assert all(c >= _FLOOR for c in res.witness)
    assert hardy_ratio(CUBE, res.witness, w, dense_check=True) == \
        pytest.approx(res.value, rel=1e-12)
    assert len(res.start_values) == 4
    # a power route solves the section once
    res = maximize_hardy_ratio(power(0.5), w, cfg)
    assert all(c >= _FLOOR for c in res.witness)
    assert hardy_ratio(power(0.5), res.witness, w, dense_check=True) == \
        pytest.approx(res.value, rel=1e-12)
    assert res.start_values == (res.value,)
    assert res.value >= start_ratio(power(0.5), w)


def test_deterministic_across_runs():
    w = list(make_sequence("ones").terms_floats(12))
    base = OptimizerConfig(starts=5, seed=11)
    a = maximize_hardy_ratio(power(0.5), w, base)
    b = maximize_hardy_ratio(power(0.5), w, base)
    assert a.value == b.value and a.witness == b.witness


@pytest.mark.parametrize("p", [0.0, 0.5, -3.0, 2.0, math.inf], ids=repr)
def test_power_routes_keep_the_best_start(p):
    # the fixed point starts from 1/W_n and keeps it if nothing beats it; the
    # vertex route evaluates no start and still beats it
    w = list(make_sequence("geometric:3/4").terms_floats(12))
    res = maximize_hardy_ratio(power(p), w)
    assert len(res.start_values) == 1
    assert res.value >= start_ratio(power(p), w) * (1 - 1e-12)


@pytest.mark.parametrize("bad", [[], [1.0, -2.0], [1.0, math.inf], [0.0]])
def test_invalid_weight_prefixes_rejected(bad):
    with pytest.raises(ValueError):
        maximize_hardy_ratio(power(1), bad)


def test_result_serializes():
    res = maximize_hardy_ratio(power(1), [1.0, 2.0],
                               OptimizerConfig(starts=3, seed=0))
    out = res.to_json()
    assert set(out) == {"value", "witness", "converged", "n_updates",
                        "start_values", "solver", "iterations",
                        "upper_section", "gap"}
    assert out["solver"] == "vertex" and out["gap"] >= 0
    assert isinstance(out["witness"], list) and len(out["witness"]) == 2


def test_value_never_exceeds_known_cap_for_sqrt_mean():
    # power 1/2 objective is capped by 4 for any weights (sanity guard on
    # the incremental bookkeeping: an indexing bug typically inflates it)
    for desc in ("ones", "dyadic", "geometric:1/3"):
        w = list(make_sequence(desc).terms_floats(24))
        res = maximize_hardy_ratio(power(0.5), w,
                                   OptimizerConfig(starts=4, seed=1))
        assert res.value <= 4.0 + 1e-9


def test_parse_mean_roundtrip_names():
    m = parse_mean("power:1/2")
    assert m.name == "power:0.5"  # the exponent is carried as a float
    w = [0.5, 0.25]
    assert hardy_ratio(m, [1.0, 0.5], w) == pytest.approx(
        brute_ratio(m, [1.0, 0.5], w), rel=1e-12)


def test_starts_below_one_refused():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="starts"):
            OptimizerConfig(starts=bad)


@pytest.mark.parametrize("p", POLICY_ORDERS + [0.999, 1 - 1e-7], ids=repr)
def test_cli_finite_section_in_every_order_regime(capsys, p):
    order = repr(p) if math.isinf(p) else str(Fraction(p))
    argv = ["estimate", "--method", "finite", "--mean", f"power:{order}",
            "--weights", "ones", "--N", "12", "--starts", "2", "--format", "json"]
    outs = []
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and "Traceback" not in captured.err, captured.err
        outs.append(captured.out)
    assert outs[0] == outs[1]
    rep = json.loads(outs[0])["report"]
    diag = rep["diagnostics"]
    assert diag["solver"] == ("vertex" if p >= 1 else "fixed-point")
    assert diag["gap"] >= 0
    assert diag["converged"] == (diag["gap"] <= 1e-10 * rep["value"])
    if p < -1e8:  # min: the closed form
        assert rep["value"] == 1.0 and diag["upper_section"] == 1.0
        assert diag["iterations"] == 0
    assert rep["direction"] == "lower_bound" and "upper" not in rep


PROPERTY_ORDERS = [-3.0, -1.0, 0.0, 1 / 3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0,
                   math.inf, -math.inf]
PROPERTY_MEANS = [power(p) for p in PROPERTY_ORDERS] + [
    quasiarithmetic(builtin_generator("sqrt"))]


def equivalent_user_mean(p):
    """The order-p power mean in a form the power routes do not recognize,
    so that the coordinate ascent solves it."""
    if math.isinf(p):
        pick = max if p > 0 else min
        return opaque_mean(lambda x, lam: pick(x), f"user-{pick.__name__}")
    if p == 0:
        gen = make_generator("user-log", np.log, np.exp)
    else:
        gen = make_generator(f"user-power:{p}", lambda t: np.power(t, p),
                             lambda t: np.power(t, 1.0 / p))
    assert gen.power_order is None
    return quasiarithmetic(gen)


def test_lockstep_starts_match_their_runs_alone():
    # each start of a multistart ascent ends where it ends when run alone
    rng = random.Random("ascent-lockstep")
    w = [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(16)]
    cfg = OptimizerConfig(starts=4, seed=2)
    multi = maximize_hardy_ratio(CUBE, w, cfg)
    starts = _structured_starts(np.array(w), cfg.starts, cfg.seed)
    for x0, value in zip(starts, multi.start_values):
        [(alone, *_)] = _ascend(CUBE, np.array(w), [x0])
        assert alone == pytest.approx(value, rel=1e-12)


def test_a_homogeneity_claim_does_not_steer_the_ascent():
    # the search takes a mean's flags as unverified claims: a wrong one (exp
    # is not homogeneous) must not change what the ascent finds
    gen = make_generator("exp", np.exp, np.log)
    claimed = quasiarithmetic(gen, MeanFlags(symmetric=True, monotone=True,
                                             homogeneous=True))
    cfg = OptimizerConfig(starts=3, seed=0)
    for seed in range(6):
        rng = random.Random(seed)
        w = [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(12)]
        assert (maximize_hardy_ratio(claimed, w, cfg).value
                == maximize_hardy_ratio(quasiarithmetic(gen), w, cfg).value)


def test_a_true_homogeneity_claim_changes_nothing():
    # the search reads no flags: claiming the homogeneity the cube mean has
    # leaves every start's run bit-identical
    claimed = quasiarithmetic(CUBE.params, MeanFlags(symmetric=True, monotone=True,
                                                     homogeneous=True))
    w = list(make_sequence("geometric:1/2").terms_floats(10))
    cfg = OptimizerConfig(starts=3, seed=1)
    a, b = (maximize_hardy_ratio(m, w, cfg) for m in (claimed, CUBE))
    assert (a.value, a.witness, a.start_values) == (b.value, b.witness, b.start_values)


def test_scalar_only_generators_are_vectorized():
    # math.log refuses arrays, so the search wraps it in np.vectorize
    scalar = quasiarithmetic(make_generator("scalar-log", math.log, math.exp))
    array = quasiarithmetic(make_generator("array-log", np.log, np.exp))
    w = list(make_sequence("geometric:3/4").terms_floats(10))
    x = [2.0 / (k + 1) + 0.1 * k for k in range(10)]
    assert prefix_means(scalar, x, w) == pytest.approx(prefix_means(array, x, w), rel=1e-12)
    cfg = OptimizerConfig(starts=1, seed=0)
    assert (maximize_hardy_ratio(scalar, w, cfg).value
            == pytest.approx(maximize_hardy_ratio(array, w, cfg).value, rel=1e-12))


@pytest.mark.parametrize("p", [-3.0, 0.0, 0.5], ids=repr)
def test_ascent_reaches_the_certified_value_of_concave_orders(p):
    # a concave power order has no local maximum that is not global, so the
    # ascent on its user form should find the fixed point's certified value
    rng = random.Random(f"ascent-quality:{p}")
    for _ in range(3):
        w = [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(16)]
        certified = maximize_hardy_ratio(power(p), w)
        assert certified.converged
        ascent = maximize_hardy_ratio(equivalent_user_mean(p), w,
                                      OptimizerConfig(starts=4, seed=0))
        assert ascent.solver == "ascent"
        assert ascent.value == pytest.approx(certified.value, rel=1e-9)


@pytest.mark.parametrize("p", [2.0, 3.0], ids=repr)
def test_ascent_reaches_the_vertex_value_of_convex_orders(p):
    # a convex order peaks at a vertex; the ascent on its user form alone
    # stopped at local maxima up to 47 % (p = 2) and 60 % (p = 3) below it
    rng = random.Random(f"convex-vertices:{p}")
    for _ in range(8):
        w = [rng.randint(1, 9) / rng.randint(1, 9) for _ in range(16)]
        vertex = maximize_hardy_ratio(power(p), w)
        assert vertex.solver == "vertex"
        ascent = maximize_hardy_ratio(equivalent_user_mean(p), w,
                                      OptimizerConfig(starts=4, seed=0))
        assert ascent.solver == "ascent"
        assert ascent.value >= vertex.value * (1 - 1e-12)


def test_the_best_vertex_competes_with_the_starts_without_being_one():
    # an opaque mean reaches the vertices through direct evaluation; the
    # winning vertex is not counted among the start_values
    square = opaque_mean(
        lambda x, lam: math.sqrt(sum(l * v * v for v, l in zip(x, lam)) / sum(lam)),
        "opaque-square")
    w = [3.0, 1 / 7, 5.0, 2 / 3, 1.0, 4.0]
    res = maximize_hardy_ratio(square, w, OptimizerConfig(starts=2, seed=0))
    assert len(res.start_values) == 2 and max(res.start_values) < res.value
    assert res.value >= maximize_hardy_ratio(power(2), w).value * (1 - 1e-12)
    assert not res.converged
    assert sorted(res.witness)[:-1] == [_FLOOR] * (len(w) - 1)


@settings(max_examples=50, deadline=None)
@given(mean=st.sampled_from(PROPERTY_MEANS),
       w=st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                               max_denominator=1000), min_size=1, max_size=32))
def test_power_routes_bracket_the_section(mean, w):
    p = power_order(mean)
    if math.isinf(p):
        w = w[:8]  # min/max go through direct evaluation in the ascent
    w = [float(v) for v in w]
    res = maximize_hardy_ratio(mean, w, OptimizerConfig(starts=2, seed=0))
    start = hardy_ratio(mean, 1.0 / np.cumsum(w), w)
    assert start <= res.value * (1 + 1e-12)
    assert res.value <= res.upper_section * (1 + 1e-12)
    if p >= 1:  # the vertex route's bound is its best vertex ratio
        vertices = [brute_ratio(mean, [1.0 if n == k else 1e-300 for n in range(len(w))], w)
                    for k in range(len(w))]
        assert res.upper_section == pytest.approx(max(vertices), rel=1e-12)
    ascent = maximize_hardy_ratio(equivalent_user_mean(p), w,
                                  OptimizerConfig(starts=1, seed=0))
    assert ascent.solver == "ascent" and ascent.upper_section is None
    assert ascent.value <= res.upper_section * (1 + 1e-12)


@pytest.mark.parametrize("desc", ["ones", "dyadic", "geometric:1/3"])
@pytest.mark.parametrize("name,p", [("log", 0.0), ("sqrt", 0.5), ("identity", 1.0)])
def test_builtin_generators_take_their_power_route(name, p, desc):
    # the built-in generators are the power means of order 0, 1/2 and 1, so
    # they get the same certified solve, bit for bit, under their own name
    got = finite_lower_bound(quasiarithmetic(builtin_generator(name)), make_sequence(desc), 64)
    want = finite_lower_bound(power(p), make_sequence(desc), 64)
    assert got.mean == f"quasiarithmetic:{name}"
    assert got.diagnostics["solver"] == want.diagnostics["solver"] != "ascent"
    assert (got.value, got.witness, got.diagnostics["upper_section"]) == \
        (want.value, want.witness, want.diagnostics["upper_section"])


def golden_two_term(mean, w):
    """Independent oracle for a two-term section. The ratio is
    0-homogeneous and quasi-concave, so it is a unimodal function of
    t = log(x_1 / x_2); golden-section search over t with brute_ratio."""
    def f(t):
        return brute_ratio(mean, [math.exp(t), 1.0], w)
    a, b = -80.0, 80.0
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    assert -79.0 < a and b < 79.0  # the peak is inside the bracket
    return max(fc, fd)


def assert_closes(res, mean, w):
    assert res.solver == "fixed-point" and res.iterations < _MAX_UPDATES
    assert res.converged and res.gap <= 1e-10 * res.value
    assert res.value >= start_ratio(mean, w) * (1 - 1e-12)


# Each stalled the multiplicative fixed point alone at the 10,000-update cap
# with a gap of 1e-5 to 1e-8: weights about 1e5 apart.
@pytest.mark.parametrize("p,w", [(0.0, [1 / 672, 312]), (-3.0, [1 / 231, 50]),
                                 (1 / 3, [0.0016, 997, 0.0017])], ids=repr)
def test_fixed_point_closes_on_far_apart_weights(p, w):
    res = maximize_hardy_ratio(power(p), w)
    assert_closes(res, power(p), w)
    if len(w) == 2:
        best = golden_two_term(power(p), w)
        assert best <= res.upper_section * (1 + 1e-12)
        assert best * (1 - 1e-10) <= res.value <= best * (1 + 1e-12)


# Orders far below -16 stalled at the cap too (p = -100 at N = 1024: gap 1.8e-3).
@pytest.mark.parametrize("N", [1024, 4096])
@pytest.mark.parametrize("p", [-100.0, -1e7], ids=repr)
def test_fixed_point_closes_at_very_negative_orders(p, N):
    w = np.random.default_rng(0).lognormal(0.0, 1.0, N)
    assert_closes(maximize_hardy_ratio(power(p), w), power(p), w)


# A raw order just above -16 whose supremum sends a coordinate to 0 stopped
# open (gap 4.5e-2 of the value) while its iterates were floored at
# -1200/|p| in log below the largest coordinate.
def test_fixed_point_closes_at_raw_order_with_a_vanishing_coordinate():
    w = [0.14414876576053973, 0.8605443472962225, 0.14901164877230805,
         1.9541303207138805, 0.015078650804503962, 0.08361776545334537,
         0.02603154084322836, 7.785928403321131e-05, 2.7672782300660543,
         19.145236869759486, 48.41966865409153, 510.93709345960036,
         44.6538406501841]
    res = maximize_hardy_ratio(power(-16.0), w)
    assert_closes(res, power(-16.0), w)
    assert min(res.witness) == _FLOOR


@pytest.mark.parametrize("p", [0.0, -3.0, 1 / 3, 0.9], ids=repr)
def test_fixed_point_closes_on_random_rational_weights(p):
    # the replay that found the stalls above, and cycles at p = 0.9
    rng = random.Random(f"fixed-point-replay:{p}")
    for _ in range(100):
        w = [rng.randint(1, 1000) / rng.randint(1, 1000)
             for _ in range(rng.randint(1, 32))]
        assert_closes(maximize_hardy_ratio(power(p), w), power(p), w)


# At p = 1e-4 the raw transform's v**(1/p) multiplied rounding by 1/|p|: 97 of
# these 200 one-term sections, whose ratio is exactly 1 = upper_section,
# reported values up to 1 + 1.5e-12, a lower bound above its certified upper
# bound.
@pytest.mark.parametrize("p", [1e-4, -1e-4, 9.9e-3, 1e-2], ids=repr)
def test_one_term_sections_keep_their_bracket_at_small_orders(p):
    for w in np.random.default_rng(5).lognormal(0.0, 4.0, 200):
        res = maximize_hardy_ratio(power(p), [w])
        assert res.value <= res.upper_section, (w, res.value, res.upper_section)
        assert res.value == 1.0


@pytest.mark.parametrize("p", [1e-4, -1e-4], ids=repr)
def test_prefix_means_at_small_orders_match_a_50_digit_evaluation(p):
    mpmath = pytest.importorskip("mpmath")
    w = make_sequence("dyadic").terms_floats(24)
    witness = np.array(maximize_hardy_ratio(power(p), w).witness)
    rng = np.random.default_rng(3)
    for x, wx in ((witness, w), (rng.lognormal(0.0, 3.0, 64), rng.lognormal(0.0, 1.0, 64))):
        with mpmath.workdps(50):
            order, s, W, want = mpmath.mpf(p), mpmath.mpf(0), mpmath.mpf(0), []
            for xi, wi in zip(x, wx):
                s += mpmath.mpf(wi) * mpmath.mpf(xi) ** order
                W += mpmath.mpf(wi)
                want.append(float((s / W) ** (1 / order)))
        assert prefix_means(power(p), x, wx) == pytest.approx(want, rel=1e-14, abs=0)
