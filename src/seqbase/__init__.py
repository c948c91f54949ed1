"""Positional numeration over arbitrary strictly increasing weight sequences.

Greedy encoding, canonical-form checking, arithmetic on canonical forms
(computed on values, with the mixed-radix carry/borrow chain as an
optional trace), digit-string formats, and range verification, with the
factorial number system as the flagship pure mixed-radix case.
"""

from .base_sequences import (
    BaseSequence,
    factorial,
    fibonacci,
    load_base_file,
    lucas,
    m_power,
    make_explicit,
    make_mixed_radix,
    parse_base_file,
    power_of,
    prime,
    square,
)
from .codec import (
    Representation,
    VerificationReport,
    decode,
    encode_greedy,
    expansion_superior_parts,
    is_canonical,
    verify_range,
)
from .digit_text import AUTO, COMPACT, RenderFormat, delimited, parse, render, table
from .errors import (
    CompactOverflow,
    DigitOutOfRange,
    DigitSyntaxError,
    DivisionByZero,
    IndexBeyondCapacity,
    InvalidParameter,
    LeadingZero,
    NotCanonical,
    NotStartingAtOne,
    NotStrictlyIncreasing,
    SeqBaseError,
    Underflow,
)
from .mixed_radix_arith import ArithTrace, add, divrem, mul, sub

__version__ = "0.1.0"

__all__ = [
    "ArithTrace",
    "AUTO",
    "BaseSequence",
    "COMPACT",
    "CompactOverflow",
    "DigitOutOfRange",
    "DigitSyntaxError",
    "DivisionByZero",
    "IndexBeyondCapacity",
    "InvalidParameter",
    "LeadingZero",
    "NotCanonical",
    "NotStartingAtOne",
    "NotStrictlyIncreasing",
    "RenderFormat",
    "Representation",
    "SeqBaseError",
    "Underflow",
    "VerificationReport",
    "add",
    "decode",
    "delimited",
    "divrem",
    "encode_greedy",
    "expansion_superior_parts",
    "factorial",
    "fibonacci",
    "is_canonical",
    "load_base_file",
    "lucas",
    "m_power",
    "make_explicit",
    "make_mixed_radix",
    "mul",
    "parse",
    "parse_base_file",
    "power_of",
    "prime",
    "render",
    "square",
    "sub",
    "table",
    "verify_range",
]
