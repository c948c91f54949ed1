import seqbase

PUBLIC = {
    "ArithTrace", "AUTO", "BaseSequence", "COMPACT", "CompactOverflow", "DigitOutOfRange",
    "DigitSyntaxError", "DivisionByZero", "IndexBeyondCapacity", "InvalidParameter", "LeadingZero",
    "NotCanonical", "NotStartingAtOne", "NotStrictlyIncreasing", "RenderFormat", "Representation",
    "SeqBaseError", "Underflow", "VerificationReport", "add", "decode", "delimited",
    "divrem", "encode_greedy", "expansion_superior_parts", "factorial", "fibonacci", "is_canonical",
    "load_base_file", "lucas", "m_power", "make_explicit", "make_mixed_radix", "mul", "parse",
    "parse_base_file", "power_of", "prime", "render", "square", "sub", "table", "verify_range",
}


def test_all_is_pinned():
    assert sorted(seqbase.__all__) == sorted(PUBLIC)
    # family dispatch, the raw digit-vector sum and the purity check stay in their modules,
    # out of the package namespace
    assert not hasattr(seqbase, "make_builtin")
    assert not hasattr(seqbase, "digits_value")
    assert not hasattr(seqbase, "is_pure_mixed_radix")


def test_every_public_name_resolves():
    for name in seqbase.__all__:
        assert getattr(seqbase, name) is not None
