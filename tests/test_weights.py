import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import weights
from hardylab.kernel import MeanDomainError
from hardylab.weights import (WeightSeq, coarsen, is_coarsening_of, make_sequence,
                              random_rational_sequence, ratio_diagnostics,
                              term_ratio_pairs, term_ratios)


def accumulated(seq, n):
    total = Fraction(0) if seq.exact else 0.0
    out = []
    for k in range(1, n + 1):
        total = total + seq.term(k)
        out.append(total)
    return out


class TestDescriptors:
    def test_ones(self):
        s = make_sequence("ones")
        assert s.term(5) == 1 and s.partial_sum(10) == 10
        assert s.sum_diverges is True
        assert s.tail_bound(3) is None

    def test_dyadic_exact(self):
        s = make_sequence("dyadic")
        assert s.term(3) == Fraction(1, 8)
        assert s.partial_sum(4) == Fraction(15, 16)
        assert s.tail_bound(4) == Fraction(1, 16)
        assert s.sum_diverges is False
        assert s.exact

    def test_geometric_below_one(self):
        s = make_sequence("geometric:1/3")
        assert s.term(2) == Fraction(1, 9)
        assert s.partial_sum(3) == Fraction(13, 27)
        assert s.tail_bound(2) == Fraction(1, 2) - Fraction(4, 9)
        assert s.sum_diverges is False

    def test_geometric_above_one(self):
        s = make_sequence("geometric:2")
        assert s.term(4) == 16
        assert s.partial_sum(4) == 30
        assert s.sum_diverges is True and s.tail_bound(4) is None

    def test_geometric_ratio_one(self):
        s = make_sequence("geometric:1")
        assert s.partial_sum(7) == 7 and s.sum_diverges is True

    def test_closed_form_partial_sums_match_accumulation(self):
        for desc in ("ones", "dyadic", "geometric:1/3", "geometric:2",
                     "geometric:1", "perturbed-dyadic:3"):
            s = make_sequence(desc)
            acc = accumulated(s, 25)
            assert [s.partial_sum(n) for n in range(1, 26)] == acc, desc

    def test_perturbed_dyadic(self):
        s = make_sequence("perturbed-dyadic:3")
        assert s.term(3) == 1 and s.term(2) == Fraction(1, 4)
        assert s.tail_bound(5) == Fraction(1, 32)
        # the tail is stated directly, before and after the bump
        for n in range(0, 8):
            assert s.partial_sum(n) + s.tail_bound(n) == 2 - Fraction(1, 8)

    def test_power_integer_exponent_exact(self):
        s = make_sequence("power:2")
        assert s.term(3) == 9 and s.exact
        assert s.sum_diverges is True
        inv = make_sequence("power:-2")
        assert inv.term(3) == Fraction(1, 9)
        assert inv.sum_diverges is False

    def test_power_tail_bound_dominates_true_tail(self):
        s = make_sequence("power:-2")
        bound = s.tail_bound(10)
        true_tail = sum(1.0 / k ** 2 for k in range(11, 20_000))
        assert true_tail < bound < 2 * true_tail

    def test_fractional_power_has_no_tail_bound(self):
        # float terms certify nothing, though the sum still converges
        s = make_sequence("power:-3/2")
        assert s.number_mode == "float" and s.sum_diverges is False
        assert all(s.tail_bound(n) is None for n in (0, 1, 5, 50))

    def test_power_tail_at_zero_bounds_the_whole_mass(self):
        # the first term plus the integral bound beyond 1, 1 + 1/(-alpha-1),
        # where n^(alpha+1) / (-alpha-1) would divide by zero
        s = make_sequence("power:-2")
        bound = s.tail_bound(0)
        assert bound == 2 and isinstance(bound, Fraction)
        assert bound >= 1.6449340668482264 and bound >= s.tail_bound(1)  # zeta(2)
        assert coarsen(s, [2, 3]).tail_bound(0) == bound

    @pytest.mark.parametrize("alpha", [-2, -3, -7])
    def test_integer_power_tail_bound_is_exact(self, alpha):
        s = make_sequence(f"power:{alpha}")
        for n in (1, 2, 5, 30):
            bound = s.tail_bound(n)
            assert isinstance(bound, Fraction)
            assert bound >= sum(s.term(k) for k in range(n + 1, n + 201))

    @pytest.mark.parametrize("desc", ["power:-1e400", "power:1e400", "geometric:1e400"])
    def test_literals_beyond_the_float_range_are_refused(self, desc):
        with pytest.raises(ValueError, match="beyond the float range"):
            make_sequence(desc)

    @pytest.mark.parametrize("desc", ["bogus", "geometric:0", "geometric:-1/2",
                                      "geometric:inf", "perturbed-dyadic:0",
                                      "perturbed-dyadic:x", "power:inf", "ones:3"])
    def test_rejects_bad_descriptors(self, desc):
        with pytest.raises(ValueError):
            make_sequence(desc)

    def test_nonpositive_custom_term_rejected(self):
        # the first term is probed at construction time
        with pytest.raises(ValueError, match="not positive"):
            WeightSeq("broken", lambda n: n - 2)
        # later terms are validated on access
        s = WeightSeq("fades", lambda n: 3 - n)
        assert s.term(2) == 1
        with pytest.raises(ValueError, match="not positive"):
            s.term(3)

    def test_term_indexing_starts_at_one(self):
        with pytest.raises(ValueError):
            make_sequence("ones").term(0)
        with pytest.raises(ValueError, match="tails start at n=0"):
            make_sequence("perturbed-dyadic:3").tail_bound(-1)

    def test_a_bounded_tail_cannot_diverge(self):
        with pytest.raises(ValueError, match="cannot diverge"):
            WeightSeq("both", lambda n: Fraction(1, 2 ** n),
                      tail_bound=lambda n: Fraction(1, 2 ** n), sum_diverges=True)


class TestFloatViews:
    def test_terms_floats(self):
        arr = make_sequence("dyadic").terms_floats(4)
        assert list(arr) == [0.5, 0.25, 0.125, 0.0625]

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            make_sequence("geometric:2").terms_floats(1100)

    def test_underflow_raises(self):
        with pytest.raises(ValueError, match="underflow"):
            make_sequence("dyadic").terms_floats(1100)

    def test_partial_sums_floats_match_exact(self):
        s = make_sequence("geometric:1/3")
        exact = [float(s.partial_sum(n)) for n in range(1, 21)]
        assert list(s.partial_sums_floats(20)) == pytest.approx(exact, rel=1e-14)

    def test_ones_floats_come_in_one_block(self):
        seq = make_sequence("ones")
        assert seq._floats is not None
        for start in (0, 1, 2, 1500, 2999):
            assert seq.terms_floats(4000, start, 3000).tolist() == [1.0] * (3000 - start)

    @pytest.mark.parametrize("desc,n,fault", [("geometric:2", 1024, "overflow"),
                                              ("dyadic", 1075, "underflow")])
    def test_ranged_floats_leave_the_float_range_where_the_terms_do(self, desc, n, fault):
        # a block read from start raises where reading from 1 does
        seq = make_sequence(desc)
        if fault == "overflow":
            with pytest.raises(OverflowError):
                seq._term_float(n)
        else:
            assert seq._term_float(n) == 0.0
        assert np.all(seq.terms_floats(n - 1, n - 5) > 0)
        with pytest.raises(MeanDomainError, match=fault):
            seq.terms_floats(n, n - 5)
        # the message names the prefix being read, not the block's end
        with pytest.raises(MeanDomainError, match=f"{fault}.* before n={2 * n}$"):
            seq.terms_floats(2 * n, n - 5, n)

    @pytest.mark.parametrize("desc", ["dyadic", "geometric:2", "perturbed-dyadic:3",
                                      "geometric:3/4", "geometric:3", "power:-1/2", "power:2"])
    def test_other_families_keep_per_term_floats(self, desc):
        seq = make_sequence(desc)
        assert seq._floats is None
        assert seq.terms_floats(40, 17).tolist() == [seq._term_float(k) for k in range(18, 41)]
        assert seq.terms_floats(60, 17, 40).tolist() == seq.terms_floats(40, 17).tolist()


class TestCache:
    def test_accumulation_cache_is_thread_consistent(self):
        s = WeightSeq("custom", lambda n: Fraction(1, n))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: s.partial_sum(300), range(16)))
        expected = sum(Fraction(1, k) for k in range(1, 301))
        assert all(r == expected for r in results)


class TestRatioDiagnostics:
    def test_ones_ratios(self):
        rep = ratio_diagnostics(make_sequence("ones"), 5)
        assert rep.ratios == (1.0, 0.5, 1 / 3, 0.25, 0.2)
        assert rep.is_nonincreasing
        assert rep.divergence_verdict == "diverges"

    def test_dyadic_converges_with_monotone_ratios(self):
        rep = ratio_diagnostics(make_sequence("dyadic"), 30)
        assert rep.is_nonincreasing
        assert rep.divergence_verdict == "converges"
        assert rep.max_term_ratio == pytest.approx(0.5 / float(1 - Fraction(1, 2) ** 30))

    def test_bump_breaks_monotonicity(self):
        rep = ratio_diagnostics(make_sequence("perturbed-dyadic:3"), 10)
        assert not rep.is_nonincreasing

    def test_unknown_divergence_is_inconclusive(self):
        s = WeightSeq("mystery", lambda n: Fraction(1, n))
        rep = ratio_diagnostics(s, 10)
        assert rep.divergence_verdict == "inconclusive"

    def test_float_path_matches_exact_path(self):
        s = make_sequence("dyadic")
        exact = ratio_diagnostics(s, 20)
        floaty = ratio_diagnostics(WeightSeq("d", lambda n: 0.5 ** n), 20)
        assert floaty.ratios == pytest.approx(exact.ratios, rel=1e-12)
        assert floaty.is_nonincreasing == exact.is_nonincreasing

    def test_first_ratio_is_one_and_all_in_unit_interval(self):
        for desc in ("ones", "dyadic", "geometric:2", "perturbed-dyadic:2"):
            rep = ratio_diagnostics(make_sequence(desc), 12)
            assert rep.ratios[0] == 1.0
            assert all(0 < r <= 1 for r in rep.ratios)

    def test_serializes(self):
        out = ratio_diagnostics(make_sequence("ones"), 5).to_json()
        assert out["divergence_verdict"] == "diverges"
        assert "ratios" in out  # small N includes the full list


def _sequence(desc):
    if desc == "random-rational:1":
        return random_rational_sequence(1)
    if desc == "coarsen":
        return coarsen(make_sequence("geometric:2/3"), [2, 1, 3])
    if desc == "coarsen-bump":
        return coarsen(make_sequence("perturbed-dyadic:4"), [3, 2])
    return make_sequence(desc)


# descriptors whose masses come from a closed form
CLOSED_FORMS = ["ones", "dyadic", "geometric:9/10", "geometric:3", "perturbed-dyadic:2",
                "perturbed-dyadic:3", "perturbed-dyadic:70", "coarsen", "coarsen-bump"]


class TestMasses:
    @pytest.mark.parametrize("N", [1, 2, 60])
    @pytest.mark.parametrize("desc", CLOSED_FORMS + ["power:-2", "power:2",
                                                     "random-rational:1"])
    def test_masses_over_the_denominator_are_the_terms(self, desc, N):
        seq = _sequence(desc)
        masses, d = seq.masses(N)
        assert len(masses) == N and type(d) is int and d > 0
        assert all(type(m) is int for m in masses)
        assert [Fraction(m, d) for m in masses] == [seq.term(n) for n in range(1, N + 1)]
        # the term ratios are the running sums' pairs, equal as rationals
        pairs = term_ratio_pairs(seq, N)
        assert [Fraction(m, M) for m, M in pairs] == \
            [Fraction(seq.term(n)) / seq.partial_sum(n) for n in range(1, N + 1)]

    def test_float_sequences_have_no_masses(self):
        for seq in (make_sequence("power:-3/2"), WeightSeq("d", lambda n: 0.5 ** n)):
            with pytest.raises(TypeError, match="exact-rational"):
                seq.masses(3)

    @pytest.mark.parametrize("desc", CLOSED_FORMS)
    def test_closed_forms_call_no_term(self, desc, monkeypatch):
        seq = _sequence(desc)

        def refuse(self, n):
            raise AssertionError("WeightSeq.term called")
        monkeypatch.setattr(WeightSeq, "term", refuse)
        rep = ratio_diagnostics(seq, 60)
        assert rep.ratios[0] == 1.0
        assert len(term_ratios(seq, 60)) == 60


class TestCoarsen:
    def test_block_sums(self):
        c = coarsen(make_sequence("ones"), [2, 1, 3])
        assert [c.term(k) for k in range(1, 5)] == [2, 1, 3, 1]
        assert c.partial_sum(3) == 6

    def test_exact_geometric_blocks(self):
        q = Fraction(1, 2)
        c = coarsen(make_sequence("geometric:1/2"), [2] * 6)
        for k in range(1, 7):
            assert c.term(k) == q ** (2 * k - 1) * (1 + q)

    def test_partial_sums_are_a_subsequence(self):
        lam = make_sequence("geometric:3/4")
        c = coarsen(lam, [3, 1, 2, 5])
        assert c.partial_sum(2) == lam.partial_sum(4)
        assert c.partial_sum(4) == lam.partial_sum(11)

    def test_tail_bound_passes_through(self):
        c = coarsen(make_sequence("dyadic"), [2, 2])
        assert c.tail_bound(2) == Fraction(1, 16)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            coarsen(make_sequence("ones"), [])
        with pytest.raises(ValueError):
            coarsen(make_sequence("ones"), [2, 0])


class TestCoarseningOrder:
    def test_coarsenings_certify(self):
        lam = make_sequence("geometric:1/2")
        psi = coarsen(lam, [1, 2, 3, 1])
        assert is_coarsening_of(psi, lam, 4)

    @given(blocks=st.lists(st.integers(min_value=1, max_value=4),
                           min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_random_coarsenings_certify(self, blocks):
        lam = make_sequence("ones")
        assert is_coarsening_of(coarsen(lam, blocks), lam, len(blocks))

    def test_unrelated_sequences_fail(self):
        assert not is_coarsening_of(make_sequence("geometric:1/3"),
                                    make_sequence("ones"), 1)

    def test_float_sequences_are_rejected(self):
        with pytest.raises(TypeError):
            is_coarsening_of(WeightSeq("d", lambda n: 0.5 ** n),
                             make_sequence("dyadic"), 2)

    def test_walk_budget(self, monkeypatch):
        lam = make_sequence("geometric:1/2")  # partial sums < 1 forever
        two = WeightSeq("two", lambda n: 2 * n)
        monkeypatch.setattr(weights, "MAX_WALK_STEPS", 50)
        with pytest.raises(RuntimeError, match="walked 50 terms .* without reaching"):
            is_coarsening_of(two, lam, 1)


class TestRandomRational:
    def test_deterministic_and_positive(self):
        a = random_rational_sequence(9)
        b = random_rational_sequence(9)
        terms = [a.term(n) for n in range(1, 30)]
        assert terms == [b.term(n) for n in range(1, 30)]
        assert all(0 < t <= 9 for t in terms)
        assert a.exact and a.sum_diverges is True

    def test_seed_changes_sequence(self):
        a = [random_rational_sequence(1).term(n) for n in range(1, 20)]
        b = [random_rational_sequence(2).term(n) for n in range(1, 20)]
        assert a != b
