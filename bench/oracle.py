"""Independent checks for the digit strings and digit vectors seqbase produces.

Nothing here imports seqbase.  Weights are rebuilt from their definitions:
a bytearray sieve for the primes, (i+1)^m, p^i, running products for the
factorial and mixed-radix bases, and the Fibonacci and Lucas recurrences.
A digit string over weights w_0 = 1 < w_1 < ... is accepted for an expected
integer when

* its value sum(d_i * w_i) equals the integer,
* it has no leading zero,
* at every nonzero position i the prefix sum sum_{j<=i} d_j * w_j stays
  below w_{i+1} (the canonical-form property that makes greedy digits
  unique, Fraenkel, "Systems of numeration", Amer. Math. Monthly 1985), and
* a power:10 string equals the decimal numeral, and factorial digits equal
  those from successive division by 2, 3, 4, ...

Every base used by the benchmark is infinite, so the prefix bound applies
at every position.  Run this file to run the self-test.
"""

from __future__ import annotations

import itertools
import re
import sys
from array import array

_NONZERO = re.compile(r"[1-9]")


class Weights:
    """The weights of one base family, extended on demand."""

    def __init__(self, family: str):
        self.family = family
        name, _, param = family.partition(":")
        self._closed = None
        self._terms: list[int] | array = [1]
        if name == "prime":
            self._sieve_limit = 0
            self._terms = array("q", [1])
            self._grow = self._grow_primes
        elif name in ("square", "mpower"):
            m = 2 if name == "square" else int(param)
            self._closed = lambda i: (i + 1) ** m
        elif name == "power":
            self._grow = self._recurrence(lambda t: t[-1] * int(param))
        elif name == "factorial":
            self._grow = self._recurrence(lambda t: t[-1] * (len(t) + 1))
        elif name == "fibonacci":
            self._terms = [1, 2]
            self._grow = self._recurrence(lambda t: t[-1] + t[-2])
        elif name == "lucas":
            self._terms = [1, 3]
            self._grow = self._recurrence(lambda t: t[-1] + t[-2])
        elif name == "mixed":
            radices = [int(b) + 1 for b in param.split(",")]
            self._grow = self._recurrence(lambda t: t[-1] * radices[(len(t) - 1) % len(radices)])
        else:
            raise ValueError(f"oracle has no family {family!r}")

    def __call__(self, i: int) -> int:
        if self._closed is not None:
            return self._closed(i)
        if i >= len(self._terms):
            self._grow(i)
        return self._terms[i]

    __getitem__ = __call__

    def upto(self, i: int):
        """Something indexable by every position up to i, without a call per lookup where possible."""
        if self._closed is not None:
            return self
        if i >= len(self._terms):
            self._grow(i)
        return self._terms

    def _recurrence(self, step):
        def grow(i: int) -> None:
            terms = self._terms
            while len(terms) <= i:
                terms.append(step(terms))

        return grow

    def _grow_primes(self, i: int) -> None:
        limit = max(1024, 2 * self._sieve_limit)
        while True:
            sieve = bytearray([1]) * limit
            sieve[0:2] = b"\0\0"
            for p in range(2, int(limit**0.5) + 1):
                if sieve[p]:
                    sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
            terms = array("q", [1])
            terms.extend(itertools.compress(range(limit), sieve))
            if len(terms) > i:
                self._terms, self._sieve_limit = terms, limit
                return
            limit *= 2


def string_entries(text: str) -> list[tuple[int, int]]:
    """Nonzero (position, digit) pairs of a digit string, lowest position first.

    Compact strings hold one character per digit; delimited ones decimal
    fields joined by ".", a lone field carrying a leading ".".  Raises
    ValueError on anything else, on a leading zero included.
    """
    if text == "0":
        return []
    if "." in text:
        fields = [text[1:]] if text.startswith(".") and "." not in text[1:] else text.split(".")
        if not all(f.isascii() and f.isdigit() and (f == "0" or f[0] != "0") for f in fields):
            raise ValueError(f"malformed delimited digit string {text[:40]!r}")
        if fields[0] == "0":
            raise ValueError("leading zero")
        return [(i, int(f)) for i, f in enumerate(reversed(fields)) if f != "0"]
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"malformed compact digit string {text[:40]!r}")
    if text[0] == "0":
        raise ValueError("leading zero")
    if 8 * (len(text) - text.count("0")) < len(text):  # sparse: let the regex engine skip the zeros
        top = len(text) - 1
        return [(top - m.start(), int(m.group())) for m in reversed(list(_NONZERO.finditer(text)))]
    return [(i, c - 48) for i, c in enumerate(text[::-1].encode()) if c != 48]


def factorial_digits(value: int) -> list[tuple[int, int]]:
    """Nonzero factorial-base digits by successive division by 2, 3, 4, ..."""
    out = []
    radix = 2
    while value:
        value, d = divmod(value, radix)
        if d:
            out.append((radix - 2, d))
        radix += 1
    return out


def entries_problem(w: Weights, entries, expected: int) -> str | None:
    """Why ascending nonzero (position, digit) pairs are not the canonical form of `expected`, or None."""
    entries = list(entries)
    terms = w.upto(entries[-1][0] + 1 if entries else 0)
    total = 0
    last = -1
    for pos, d in entries:
        if pos <= last or d < 1:
            return f"positions must ascend with nonzero digits, got ({pos}, {d})"
        last = pos
        total += d * terms[pos]
        if total >= terms[pos + 1]:
            return f"prefix sum at position {pos} reaches w_{pos + 1}"
    if total != expected:
        return "value differs from the expected one"
    if w.family == "factorial" and entries != factorial_digits(expected):
        return "digits differ from successive division by 2, 3, 4, ..."
    if w.family == "power:10" and entries != string_entries(str(expected)):
        return "digits differ from the decimal numeral"
    return None


def string_problem(w: Weights, text: str, expected: int) -> str | None:
    """Why `text` is not the canonical digit string of `expected`, or None."""
    try:
        entries = string_entries(text)
    except ValueError as e:
        return str(e)
    if w.family == "power:10" and text != str(expected):
        return "power:10 digits differ from the decimal numeral"
    return entries_problem(w, entries, expected)


def decimal_value(text: str) -> int:
    """Value of a decimal numeral of any length, read in chunks below the int/str digit limit."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal numeral: {text[:40]!r}")
    value = 0
    for k in range(0, len(text), 1000):
        chunk = text[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def self_test() -> None:
    """Raise OracleBroken unless the oracle accepts hand-worked forms and rejects corrupted ones."""
    ok = {
        # family, value, digits worked by hand from the weights
        ("prime", 3, "100"),  # 1 2 3: 3 = w_2
        ("prime", 10, "10100"),  # 1 2 3 5 7: 10 = 7 + 3
        ("square", 8, "20"),  # 1 4 9: 8 = 2*4
        ("square", 12, "103"),  # 12 = 9 + 3*1
        ("mpower:3", 35, "110"),  # 1 8 27: 35 = 27 + 8
        ("factorial", 5, "21"),  # 1 2 6: 5 = 2*2 + 1
        ("factorial", 23, "321"),  # 23 = 3*6 + 2*2 + 1
        ("factorial", 36288000, "10.0.0.0.0.0.0.0.0.0"),  # 10 * 10!
        ("fibonacci", 4, "101"),  # 1 2 3: 4 = 3 + 1
        ("fibonacci", 12, "10101"),  # 1 2 3 5 8: 12 = 8 + 3 + 1
        ("lucas", 6, "102"),  # 1 3 4: 6 = 4 + 2*1
        ("lucas", 2, "2"),
        ("power:10", 1234, "1234"),
        ("power:7", 50, "101"),  # 49 + 1
        ("mixed:9,5", 75, "115"),  # 1 10 60: 75 = 60 + 10 + 5
        ("mixed:9,5", 0, "0"),
    }
    bad = {
        ("prime", 3, "11"),  # 2 + 1: not greedy
        ("prime", 3, "101"),  # one digit changed
        ("prime", 4, "100"),  # wrong value
        ("square", 8, "0020"),  # leading zero
        ("factorial", 5, "13"),  # 1*2 + 3*1 = 5: the prefix reaches w_1
        ("factorial", 23, "322"),  # one digit changed
        ("fibonacci", 4, "11"),  # 2 + 1 = 3, and not greedy
        ("fibonacci", 5, "110"),  # 3 + 2: adjacent ones
        ("lucas", 6, "1002"),  # wrong value
        ("power:10", 1234, "1243"),
        ("power:10", 1234, "12.3.4"),  # same value, not the decimal numeral
        ("mixed:9,5", 75, "1.1.5x"),
        ("mixed:9,5", 75, "7.5"),  # 7*10 + 5: the prefix reaches w_2
    }
    for family, value, text in ok:
        problem = string_problem(Weights(family), text, value)
        _require(problem is None, f"rejected {text!r} for {value} in {family}: {problem}")
    for family, value, text in bad:
        problem = string_problem(Weights(family), text, value)
        _require(problem is not None, f"accepted {text!r} for {value} in {family}")
    primes = Weights("prime")
    _require([primes(i) for i in range(8)] == [1, 2, 3, 5, 7, 11, 13, 17], "first primes")
    _require(primes(78498) == 999983, "pi(10^6) = 78498")
    _require([Weights("lucas")(i) for i in range(6)] == [1, 3, 4, 7, 11, 18], "Lucas weights")
    _require([Weights("mixed:9,5")(i) for i in range(5)] == [1, 10, 60, 600, 3600], "mixed weights")
    _require(factorial_digits(23) == [(0, 1), (1, 2), (2, 3)], "factorial digits of 23")
    _require(decimal_value("1" + "0" * 5000) == 10**5000, "chunked decimal reading")


class OracleBroken(Exception):
    """The oracle failed its own self-test."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise OracleBroken(what)

if __name__ == "__main__":
    try:
        self_test()
    except OracleBroken as e:
        sys.exit(f"oracle self-test failed: {e}")
    print("oracle self-test passed")
