"""The dense digit word of a representation, for tests that compare whole words."""


def dense(rep) -> tuple[int, ...]:
    """Little-endian digits at every position up to the top one; empty for zero."""
    digits = [0] * (rep.top + 1)
    for pos, d in rep.entries:
        digits[pos] = d
    return tuple(digits)
