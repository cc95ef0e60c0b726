import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.scalars import (_digits, exact_sum, format_number, is_exact, json_ready,
                              parse_number, ratio_fsum)


class TestParseNumber:
    def test_integer_token(self):
        v = parse_number("3")
        assert v == 3 and isinstance(v, int)

    def test_rational_token(self):
        assert parse_number("1/3") == Fraction(1, 3)

    def test_decimal_token_is_exact(self):
        v = parse_number("0.25")
        assert v == Fraction(1, 4) and is_exact(v)

    def test_scientific_token(self):
        assert parse_number("1e-3") == Fraction(1, 1000)

    def test_negative_rational(self):
        assert parse_number("-7/2") == Fraction(-7, 2)

    @pytest.mark.parametrize("tok,val", [("inf", math.inf), ("-inf", -math.inf)])
    def test_infinities(self, tok, val):
        assert parse_number(tok) == val

    @pytest.mark.parametrize("tok", ["", "abc", "1/0", "2..5"])
    def test_rejects_garbage(self, tok):
        with pytest.raises(ValueError):
            parse_number(tok)


class TestFormatNumber:
    def test_fraction(self):
        assert format_number(Fraction(1, 3)) == "1/3"

    def test_integral_fraction(self):
        assert format_number(Fraction(4, 2)) == "2"

    def test_integral_float(self):
        assert format_number(4.0) == "4"

    def test_plain_float(self):
        assert format_number(2.5) == "2.5"

    def test_infinity(self):
        assert format_number(math.inf) == "inf"

    def test_round_trip(self):
        for v in (3, Fraction(22, 7), Fraction(-1, 8), math.inf):
            assert parse_number(format_number(v)) == v

    def test_rationals_beyond_the_int_string_limit(self):
        # str() refuses integers of more than sys.get_int_max_str_digits()
        # digits; the rendering must not, and must leave that limit alone
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        v = Fraction(-(3 ** 20000), 2 ** 20001 + 1)
        text = format_number(v)
        num, den = text.split("/")
        assert len(num) > 4300 and len(den) > 4300
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == v
        assert format_number(Fraction(10 ** 5000)) == "1" + "0" * 5000
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_digits_of_large_integers_equal_str(self):
        # the split rendering against str(), which renders any size once
        # the process-wide digit limit is lifted (restored after)
        rng = random.Random(11)
        ints = [0, 1, -1]
        for bits in (1, 2, 63, 2047, 2048, 2049, 4096, 4097, 50_000, 400_000):
            top = 1 << (bits - 1)
            ints += [top | rng.getrandbits(bits), -(top | rng.getrandbits(bits))]
        for k in (1, 616, 617, 5000, 40_000):
            ints += [10 ** k - 1, 10 ** k + 1, -(10 ** k) + 1, -(10 ** k) - 1]
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            for n in ints:
                assert _digits(n) == str(n), n.bit_length()
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


# ints, and Fractions whose numerators and denominators run from small to
# thousands of digits
EXACT_VALUES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 6),
    st.builds(lambda n, k, d: Fraction(n, d * 7 ** k + 1),
              st.integers(-10 ** 40, 10 ** 40), st.integers(0, 4000),
              st.integers(1, 10 ** 9)),
)


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(EXACT_VALUES, min_size=0, max_size=64))
    def test_equals_sum_in_value_and_type(self, values):
        want = sum(values)
        got = exact_sum(values)
        assert got == want
        assert type(got) is type(want)

    def test_accepts_a_generator(self):
        assert exact_sum(Fraction(1, n) for n in range(1, 5)) == Fraction(25, 12)

    @pytest.mark.parametrize("values", [
        # lambda_n/Lambda_n of dyadic, and of geometric:9/10
        [Fraction(1, 2 ** n - 1) for n in range(1, 301)],
        [Fraction(9 ** (n - 1), 10 ** n - 9 ** n) for n in range(1, 151)],
        # one shared prime denominator, so every key ties
        [Fraction(k, 2 ** 127 - 1) for k in range(1, 301)],
    ], ids=["dyadic", "geometric-9/10", "equal-denominators"])
    def test_families_with_shared_factors_equal_sum(self, values):
        want = sum(values)
        shuffled = values[:]
        random.Random(7).shuffle(shuffled)
        for got in (exact_sum(values), exact_sum(shuffled)):
            assert type(got) is type(want)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_types_of_small_inputs(self):
        got = exact_sum([3, -5, 7])
        assert got == 5 and type(got) is int
        assert exact_sum([]) == 0 and type(exact_sum([])) is int
        one = Fraction(22, 7)
        assert exact_sum([one]) == one and type(exact_sum([one])) is Fraction


def _tie_parts(d, a, b, c):
    """The midpoint between the double d and the next one up, split into
    three positive parts in the ratio a : b : c; unless a + b + c is a
    power of two the parts are not dyadic, and the bracket straddles the
    midpoint."""
    mid = Fraction(d) + Fraction(math.ulp(d)) / 2
    total = a + b + c
    return [mid * Fraction(a, total), mid * Fraction(b, total), mid * Fraction(c, total)]


POSITIVE_RATIONALS = st.one_of(
    st.integers(1, 10 ** 6),
    st.integers(1, 10 ** 400),
    st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 6),
    # 400-digit numerators and denominators
    st.builds(Fraction, st.integers(10 ** 399, 10 ** 400), st.integers(10 ** 399, 10 ** 400)),
    # near 1e-300
    st.builds(lambda a, b: Fraction(a, b * 10 ** 300),
              st.integers(1, 10 ** 20), st.integers(1, 10 ** 20)),
)


def _outcome(f, values):
    try:
        return f(values)
    except OverflowError:
        return "OverflowError"


def _pairs(values):
    """(numerator, denominator) int pairs of rationals, in lowest terms."""
    return [(Fraction(v).numerator, Fraction(v).denominator) for v in values]


def _rounded_sum(values):
    return float(exact_sum(values))


class TestRatioFsum:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(POSITIVE_RATIONALS, min_size=1, max_size=24),
        st.builds(_tie_parts,
                  st.floats(min_value=1e-300, max_value=1e300),
                  st.integers(1, 2 ** 64), st.integers(1, 2 ** 64), st.integers(1, 2 ** 64)),
    ))
    def test_equals_the_rounded_exact_sum(self, values):
        assert _outcome(ratio_fsum, _pairs(values)) == _outcome(_rounded_sum, values)

    def test_exact_float_tie_rounds_to_even(self):
        # 1 + 2**-53 lies halfway between 1 and 1 + 2**-52
        assert ratio_fsum([(1, 1), (1, 2 ** 53)]) == 1.0
        assert ratio_fsum([(1, 3 * 2 ** 53), (2, 3 * 2 ** 53), (1, 1)]) == 1.0
        assert ratio_fsum([(2 ** 52 + 1, 2 ** 52), (1, 2 ** 53)]) == 1 + 2 ** -51

    def test_straddle_above_the_midpoint(self):
        # the floors sum to the midpoint 1 + 2**-53 exactly, which rounds
        # to 1; the ceilings round to 1 + 2**-52, which is right
        assert ratio_fsum([(1, 1), (1, 2 ** 53), (1, 3 * 2 ** 400)]) == 1 + 2 ** -52

    def test_straddle_below_the_midpoint(self):
        # floors round to 1 and ceilings to 1 + 2**-52; the sum is just
        # below the midpoint, so 1 is right
        values = [1, Fraction(1, 2 ** 54) + Fraction(1, 3 * 2 ** 400),
                  Fraction(1, 2 ** 54) - Fraction(2, 3 * 2 ** 400)]
        assert ratio_fsum(_pairs(values)) == 1.0

    def test_single_values_and_empty(self):
        assert ratio_fsum([]) == 0.0
        for v in (7, Fraction(1, 3), Fraction(10 ** 400 + 1, 3 * 10 ** 399),
                  Fraction(1, 10 ** 320), Fraction(1, 10 ** 400)):
            assert ratio_fsum(_pairs([v])) == float(v)

    def test_sum_beyond_the_float_range_overflows(self):
        with pytest.raises(OverflowError):
            ratio_fsum([(2 ** 1023, 1), (2 ** 1023, 1)])
        with pytest.raises(OverflowError):
            ratio_fsum([(10 ** 400, 1)])

    def test_sum_just_inside_the_float_range(self):
        # the upper end of the bracket overflows, the sum rounds to the
        # largest double
        assert ratio_fsum([(2 ** 1024 - 2 ** 970 - 1, 1), (1, 3)]) == sys.float_info.max

    def test_harmonic_sum(self):
        assert ratio_fsum([(1, n) for n in range(1, 5)]) == 25 / 12

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(POSITIVE_RATIONALS, st.integers(1, 10 ** 30)),
                    min_size=1, max_size=16))
    def test_pairs_need_not_be_in_lowest_terms(self, scaled):
        # each value written as (k a, k b): the bracket's floors and
        # remainders, so the rounded sum, depend on a/b only
        values = [Fraction(v) for v, _ in scaled]
        pairs = [(k * v.numerator, k * v.denominator) for v, (_, k) in zip(values, scaled)]
        assert _outcome(ratio_fsum, pairs) == _outcome(_rounded_sum, values)

    def test_unreduced_pairs_at_a_straddle_fall_back_exactly(self):
        # the straddle of test_straddle_above_the_midpoint, every pair
        # scaled by 6: the fallback builds the reduced Fractions
        pairs = [(6, 6), (6, 6 * 2 ** 53), (6, 18 * 2 ** 400)]
        assert ratio_fsum(pairs) == 1 + 2 ** -52


class TestIsExact:
    def test_exact_kinds(self):
        assert is_exact(1) and is_exact(Fraction(1, 2))

    def test_inexact_kinds(self):
        assert not is_exact(0.5)

    def test_bool_is_not_a_number_here(self):
        assert not is_exact(True)


class TestJsonReady:
    def test_nested_structures(self):
        out = json_ready({"a": Fraction(1, 3), "b": [1, 2.5, (3, 4)],
                          "c": {"d": math.inf}})
        assert out == {"a": "1/3", "b": [1, 2.5, [3, 4]], "c": {"d": "inf"}}

    def test_preserves_bools_and_none(self):
        assert json_ready({"t": True, "n": None}) == {"t": True, "n": None}

    def test_nan_becomes_string(self):
        assert json_ready(math.nan) == "nan"

    def test_to_json_hook(self):
        class Thing:
            def to_json(self):
                return {"v": Fraction(1, 2)}
        assert json_ready(Thing()) == {"v": "1/2"}
