import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_digits import dense
from golden_tables import FACTORIAL_TABLE, PRIME_TABLE, SQUARE_TABLE
from seqbase import base_sequences as bs
from seqbase.codec import Representation, decode, encode_greedy
from seqbase.digit_text import AUTO, COMPACT, RenderFormat, delimited, parse, render, table
from seqbase.errors import (
    CompactOverflow,
    DigitOutOfRange,
    DigitSyntaxError,
    IndexBeyondCapacity,
    InvalidParameter,
    LeadingZero,
)

FACTORIAL = bs.factorial()
PRIME = bs.prime()
SQUARE = bs.square()


class TestRender:
    def test_prime_27_compact(self):
        assert render(encode_greedy(PRIME, 27), COMPACT) == "1000000101"

    def test_zero_any_format(self):
        zero = Representation(PRIME)
        for fmt in (COMPACT, AUTO, delimited(), delimited(":")):
            assert render(zero, fmt) == "0"

    def test_auto_switches_to_delimited_for_wide_digits(self):
        # 10 * 10! has the single digit 10 at position 9
        rep = encode_greedy(FACTORIAL, 10 * 3_628_800)
        assert FACTORIAL.digit_bound(9) == 10
        assert render(rep, AUTO) == "10.0.0.0.0.0.0.0.0.0"

    def test_compact_overflow(self):
        rep = encode_greedy(FACTORIAL, 10 * 3_628_800)
        with pytest.raises(CompactOverflow):
            render(rep, COMPACT)

    def test_delimited_single_field_gets_prefix(self):
        assert render(encode_greedy(PRIME, 1), delimited()) == ".1"
        # a lone digit above 9 must not read as two compact digits
        hexa = bs.power_of(16)
        assert render(encode_greedy(hexa, 12), AUTO) == ".12"

    def test_delimited_custom_separator(self):
        assert render(encode_greedy(PRIME, 27), delimited(":")) == "1:0:0:0:0:0:0:1:0:1"

    def test_separator_must_be_single_non_digit(self):
        with pytest.raises(InvalidParameter):
            RenderFormat("delimited", "12")
        with pytest.raises(InvalidParameter):
            RenderFormat("delimited", "7")
        with pytest.raises(InvalidParameter):
            RenderFormat("sideways")


class TestParse:
    def test_square_103(self):
        rep = parse(SQUARE, "103")
        assert dense(rep) == (3, 0, 1)
        assert decode(rep) == 12

    def test_zero(self):
        rep = parse(SQUARE, "0")
        assert rep.entries == ()

    def test_digit_out_of_range_reports_position(self):
        with pytest.raises(DigitOutOfRange) as exc:
            parse(SQUARE, "130")
        assert exc.value.position == 1

    def test_leading_zero_rejected(self):
        with pytest.raises(LeadingZero):
            parse(SQUARE, "0103")
        with pytest.raises(LeadingZero):
            parse(SQUARE, "0.1.2", delimited())
        with pytest.raises(LeadingZero):
            parse(FACTORIAL, "1.01.0", delimited())

    @pytest.mark.parametrize("bad", ["", "12a", "1 0", "-10"])
    def test_compact_syntax_errors(self, bad):
        with pytest.raises(DigitSyntaxError):
            parse(SQUARE, bad)

    @pytest.mark.parametrize("bad", ["1..2", "1.2.", ".", ".1.2", "1.x.2"])
    def test_delimited_syntax_errors(self, bad):
        with pytest.raises(DigitSyntaxError):
            parse(FACTORIAL, bad, delimited())

    def test_field_beyond_int_str_limit_rejected(self):
        with pytest.raises(DigitSyntaxError):
            parse(bs.power_of(10), "." + "9" * 4400)

    def test_forced_delimited_requires_separator(self):
        with pytest.raises(DigitSyntaxError):
            parse(FACTORIAL, "12", delimited())

    def test_prefixed_single_field(self):
        hexa = bs.power_of(16)
        rep = parse(hexa, ".12", AUTO)
        assert dense(rep) == (12,)
        assert decode(rep) == 12

    def test_auto_picks_grammar_by_separator(self):
        assert dense(parse(SQUARE, "12")) == (2, 1)
        assert dense(parse(SQUARE, "1.2", AUTO)) == (2, 1)

    def test_parse_does_not_require_canonicity(self):
        # "11" in the prime base is 3, within bounds but not greedy
        rep = parse(PRIME, "11")
        assert decode(rep) == 3

    def test_finite_base_length_check(self):
        base = bs.make_explicit([1, 2])
        with pytest.raises(IndexBeyondCapacity):
            parse(base, "100")

    def test_finite_base_top_digit_unbounded(self):
        base = bs.make_explicit([1, 2, 3])
        assert dense(parse(base, "200")) == (0, 0, 2)


EXPLICIT = bs.make_explicit([1, 2, 5, 11, 24])  # digit bounds 1, 1, 1, 1; position 4 unbounded
FINITE_MIXED = bs.make_mixed_radix([1, 2, 3, 4])  # weights 1, 2, 6, 24, 120


class TestParseErrorParity:
    """Malformed input and the exact error each one raises, with the position where one is reported."""

    @pytest.mark.parametrize(
        "base, text, fmt, error, position",
        [
            pytest.param(SQUARE, "0103", AUTO, LeadingZero, None, id="compact-leading-zero"),
            pytest.param(FACTORIAL, "0.1.0", delimited(), LeadingZero, None, id="delimited-leading-zero"),
            pytest.param(FACTORIAL, "1.01.0", delimited(), LeadingZero, None, id="field-leading-zero"),
            pytest.param(FACTORIAL, ".0", AUTO, LeadingZero, None, id="prefixed-zero"),
            pytest.param(SQUARE, "\u0661\u0662", AUTO, DigitSyntaxError, None, id="compact-non-ascii"),
            pytest.param(FACTORIAL, "1.\u0662", AUTO, DigitSyntaxError, None, id="field-non-ascii"),
            # the more significant bad field decides the error
            pytest.param(FACTORIAL, "1.\u0662.01", AUTO, DigitSyntaxError, None, id="non-ascii-before-leading-zero"),
            pytest.param(FACTORIAL, "1..0", AUTO, DigitSyntaxError, None, id="empty-field"),
            pytest.param(FACTORIAL, "1.0.", AUTO, DigitSyntaxError, None, id="empty-last-field"),
            pytest.param(FACTORIAL, ".", AUTO, DigitSyntaxError, None, id="lone-separator"),
            pytest.param(FACTORIAL, ".1.2", AUTO, DigitSyntaxError, None, id="prefixed-two-fields"),
            # a field too long for the int/str conversion limit, also before a zero or a bad field
            pytest.param(bs.power_of(10), "1." + "9" * 4400, AUTO, DigitSyntaxError, None, id="long-field"),
            pytest.param(bs.power_of(10), "0." + "9" * 4400, AUTO, DigitSyntaxError, None, id="long-field-after-zero"),
            pytest.param(bs.power_of(10), "9" * 4400 + ".01", AUTO, DigitSyntaxError, None,
                         id="long-field-before-leading-zero"),
            # digits over their bound at two positions: the lower one is named
            pytest.param(SQUARE, "2300", AUTO, DigitOutOfRange, 2, id="dense-two-over-bound"),
            pytest.param(PRIME, "2" + "0" * 50 + "2" + "0" * 10, AUTO, DigitOutOfRange, 10, id="sparse-two-over-bound"),
            pytest.param(FACTORIAL, "5.0.9.0", delimited(), DigitOutOfRange, 1, id="delimited-two-over-bound"),
            pytest.param(FACTORIAL, "5:0:9:0", delimited(":"), DigitOutOfRange, 1, id="colon-two-over-bound"),
            # a digit past a finite base's capacity, unless a lower digit is already over its bound
            pytest.param(EXPLICIT, "100000", AUTO, IndexBeyondCapacity, None, id="past-explicit-capacity"),
            pytest.param(FINITE_MIXED, "1.0.0.0.0.0", AUTO, IndexBeyondCapacity, None, id="past-mixed-capacity"),
            pytest.param(EXPLICIT, "100009", AUTO, DigitOutOfRange, 0, id="over-bound-below-capacity"),
            pytest.param(PRIME, "1" + "0" * 6_000_000, AUTO, IndexBeyondCapacity, None, id="past-prime-sieve"),
        ],
    )
    def test_error_class_and_position(self, base, text, fmt, error, position):
        with pytest.raises(error) as exc:
            parse(base, text, fmt)
        assert type(exc.value) is error
        if position is not None:
            assert exc.value.position == position

    @pytest.mark.parametrize(
        "base, text, entries",
        [
            (EXPLICIT, "90000", ((4, 9),)),
            (EXPLICIT, "31111", ((0, 1), (1, 1), (2, 1), (3, 1), (4, 3))),
            (FINITE_MIXED, "9.4.3.2.1", ((0, 1), (1, 2), (2, 3), (3, 4), (4, 9))),
        ],
    )
    def test_finite_top_term_is_exempt_from_the_bound(self, base, text, entries):
        assert parse(base, text).entries == entries

    def test_a_top_digit_alone_is_unbounded(self):
        assert parse(bs.make_mixed_radix([1, 2, 3, 4]), "2.0.0.0.0").entries == ((4, 2),)
        assert parse(bs.make_explicit([1, 2, 4, 7]), "5000").entries == ((3, 5),)


class TestSparseParse:
    def test_keeps_no_dense_vector(self):
        base = bs.square()
        text = "1" + "0" * 10**6
        tracemalloc.start()
        try:
            rep = parse(base, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.entries == ((10**6, 1),)
        assert "digits" not in rep.__dict__
        assert peak < 4 * 2**20

    def test_prime_value_past_position_78000_round_trips(self):
        # 10^6 = 999983 + 17: w_78498 = 999983 is pi(10^6), w_7 = 17
        rep = encode_greedy(PRIME, 10**6)
        assert rep.entries == ((7, 1), (78498, 1))
        text = render(rep)
        assert len(text) == 78499
        back = parse(PRIME, text)
        assert back.entries == rep.entries
        assert decode(back) == 10**6


class TestRoundTrip:
    @given(st.integers(0, 10**6))
    @settings(max_examples=250, deadline=None)
    def test_parse_render_identity(self, value):
        for base in (PRIME, SQUARE, FACTORIAL):
            rep = encode_greedy(base, value)
            for fmt in (AUTO, delimited(), delimited(":")):
                assert parse(base, render(rep, fmt), fmt) == rep

    @given(st.integers(0, 10**9))
    @settings(max_examples=250, deadline=None)
    def test_factorial_wide_digits_roundtrip(self, value):
        rep = encode_greedy(FACTORIAL, value)
        assert parse(FACTORIAL, render(rep, AUTO), AUTO) == rep

    def test_render_parse_identity_on_golden_tables(self):
        for base, golden in ((PRIME, PRIME_TABLE), (SQUARE, SQUARE_TABLE), (FACTORIAL, FACTORIAL_TABLE)):
            for s in golden:
                assert render(parse(base, s), AUTO) == s

    def test_formats_are_disjoint_languages(self):
        # compact strings never contain the separator; delimited ones always do (or are "0")
        for value in range(0, 4000, 7):
            rep = encode_greedy(FACTORIAL, value)
            compact_s = render(rep, COMPACT) if all(d <= 9 for d in dense(rep)) else None
            if compact_s is not None:
                assert "." not in compact_s
            delim_s = render(rep, delimited())
            assert "." in delim_s or delim_s == "0"


class TestTable:
    def test_prime_listing_head(self):
        assert table(PRIME, 0, 9) == PRIME_TABLE[:10]

    def test_factorial_listing_head(self):
        assert table(FACTORIAL, 0, 5) == ["0", "1", "10", "11", "20", "21"]

    def test_single_element(self):
        assert table(PRIME, 5, 5) == ["1000"]

    def test_bad_range(self):
        with pytest.raises(InvalidParameter):
            table(PRIME, 3, 2)
        for lo, hi in ((0, 2.5), (0.5, 3)):
            with pytest.raises(InvalidParameter):
                table(PRIME, lo, hi)
