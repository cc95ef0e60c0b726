import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.scalars import (_digits, exact_ratio, exact_sum, format_number,
                              is_exact, json_ready, parse_number)


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

    @settings(max_examples=200, deadline=None)
    @given(EXACT_VALUES, EXACT_VALUES.filter(lambda v: v != 0))
    def test_ratio_equals_fraction_division(self, a, b):
        got = exact_ratio(a, b)
        assert got == Fraction(a) / Fraction(b) and type(got) is Fraction


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
