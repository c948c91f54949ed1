import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert rep.digits == (3, 0, 1)
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
        assert rep.digits == (12,)
        assert decode(rep) == 12

    def test_auto_picks_grammar_by_separator(self):
        assert parse(SQUARE, "12").digits == (2, 1)
        assert parse(SQUARE, "1.2", AUTO).digits == (2, 1)

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
        assert parse(base, "200").digits == (0, 0, 2)


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
            compact_s = render(rep, COMPACT) if all(d <= 9 for d in rep.digits) else None
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
