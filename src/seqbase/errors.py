"""Exception types shared across the package."""


class SeqBaseError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameter(SeqBaseError):
    """A constructor or operation argument is out of its allowed domain."""


class NotStartingAtOne(SeqBaseError):
    """An explicit term list does not begin with 1."""


class NotStrictlyIncreasing(SeqBaseError):
    """An explicit term list is not strictly increasing."""


class IndexBeyondCapacity(SeqBaseError):
    """A position or value lies past what a base can reach.

    A finite base has no term (or no digit bound) there, the prime base's
    sieve stops below it, or a digit string would be too long to write.
    """


class Underflow(SeqBaseError):
    """Subtraction was asked to produce a negative result."""


class DivisionByZero(SeqBaseError, ZeroDivisionError):
    """Division by a zero representation."""


class NotCanonical(SeqBaseError):
    """An arithmetic operand is not in canonical (greedy) form."""


class CompactOverflow(SeqBaseError):
    """A digit above 9 cannot be rendered as a single character."""


class DigitSyntaxError(SeqBaseError):
    """A digit string does not match the compact or delimited grammar."""


class LeadingZero(DigitSyntaxError):
    """A digit string carries a leading zero (only the exact string "0" may)."""


class DigitOutOfRange(SeqBaseError):
    """A parsed digit exceeds the digit bound at its position."""

    def __init__(self, position: int, message: str | None = None):
        super().__init__(message or f"digit out of range at position {position}")
        self.position = position
