"""Weight sequences for positional numeration over strictly increasing terms.

Every base exposes weights w_0 = 1 < w_1 < w_2 < ..., and digit position i
weighs w_i.  Built-in families, explicit finite term lists, and mixed-radix
constructions (w_{i+1} = (t_i + 1) * w_i) all share one lazily materialized,
memoized interface.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    IndexBeyondCapacity,
    InvalidParameter,
    NotStartingAtOne,
    NotStrictlyIncreasing,
)


def _prime_weights() -> Iterator[int]:
    """1 followed by the primes, found by trial division against earlier primes."""
    yield 1
    yield 2
    primes = [2]
    candidate = 3
    while True:
        for p in primes:
            if p * p > candidate:
                primes.append(candidate)
                yield candidate
                break
            if candidate % p == 0:
                break
        candidate += 2


def _power_series_weights(m: int) -> Iterator[int]:
    return ((i + 1) ** m for i in itertools.count())


def _factorial_weights() -> Iterator[int]:
    w, k = 1, 1
    while True:
        yield w
        k += 1
        w *= k


def _geometric_weights(p: int) -> Iterator[int]:
    w = 1
    while True:
        yield w
        w *= p


def _fibonacci_weights() -> Iterator[int]:
    # distinct Fibonacci numbers >= 1: 1, 2, 3, 5, 8, ...
    a, b = 1, 2
    while True:
        yield a
        a, b = b, a + b


def _lucas_weights() -> Iterator[int]:
    # increasing tail of the Lucas numbers starting at 1: 1, 3, 4, 7, 11, ...
    # (starting at the conventional leading 2 would lose the required w_0 = 1)
    a, b = 1, 3
    while True:
        yield a
        a, b = b, a + b


@dataclass(frozen=True)
class MixedRadixSpec:
    """Per-position digit bounds t_i; the induced weights obey w_{i+1} = (t_i + 1) * w_i.

    A non-cyclic spec defines a finite base of len(bounds) + 1 weights; a
    cyclic one repeats the bound list forever.
    """

    bounds: tuple[int, ...]
    cyclic: bool = False

    def __post_init__(self):
        bounds = tuple(self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if not bounds:
            raise InvalidParameter("mixed-radix spec needs at least one bound")
        for i, t in enumerate(bounds):
            if t < 1:
                raise InvalidParameter(f"mixed-radix bound t_{i} must be >= 1, got {t}")

    @classmethod
    def constant(cls, t: int) -> "MixedRadixSpec":
        """A fixed radix t+1 at every position (t = 9 gives decimal weights)."""
        return cls((t,), cyclic=True)

    def weights(self) -> Iterator[int]:
        w = 1
        yield w
        bounds = itertools.cycle(self.bounds) if self.cyclic else iter(self.bounds)
        for t in bounds:
            w *= t + 1
            yield w


class BaseSequence:
    """A memoized weight sequence, safe to share across concurrent readers.

    The term cache is append-only: once term(i) has been handed out, every
    later call returns the identical value.
    """

    def __init__(
        self,
        name: str,
        signature: tuple,
        weights: Iterator[int],
        capacity: int | None = None,
        prefix: Sequence[int] = (),
    ):
        self.name = name
        self.signature = signature
        self.capacity = capacity
        self._weights = weights
        self._cache: list[int] = list(prefix)
        self._lock = threading.Lock()
        self._max_encodable: int | None = None

    def __repr__(self) -> str:
        return f"BaseSequence({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BaseSequence) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def term(self, i: int) -> int:
        """The weight w_i, materializing and memoizing terms up to i."""
        if i < 0:
            raise InvalidParameter(f"term index must be >= 0, got {i}")
        cache = self._cache
        if i < len(cache):
            return cache[i]
        if self.capacity is not None and i >= self.capacity:
            raise IndexBeyondCapacity(
                f"base {self.name} has only {self.capacity} terms; no term {i}"
            )
        with self._lock:
            while len(cache) <= i:
                cache.append(next(self._weights))
        return cache[i]

    def digit_bound(self, i: int) -> int:
        """Largest digit allowed at position i: floor((w_{i+1} - 1) / w_i)."""
        if i < 0:
            raise InvalidParameter(f"digit position must be >= 0, got {i}")
        if self.capacity is not None and i + 1 >= self.capacity:
            raise IndexBeyondCapacity(
                f"digit bound undefined at position {i}: "
                f"base {self.name} has no term {i + 1}"
            )
        return (self.term(i + 1) - 1) // self.term(i)

    def superior_part(self, value: int) -> tuple[int, int]:
        """(index, weight) of the largest term <= value.

        Extends the cache until a term exceeds value (or a finite base runs
        out, in which case the final term is the answer), then bisects.
        """
        if value < 1:
            raise InvalidParameter(f"superior part requires a value >= 1, got {value}")
        self._extend_past(value)
        cache = self._cache
        idx = bisect_right(cache, value) - 1
        return idx, cache[idx]

    def max_encodable(self) -> int | None:
        """Largest greedy-encodable value, or None when the base is unbounded.

        For a finite base the top term has no successor to bound its digit,
        so values are capped at w_N plus every lower position at its bound.
        """
        if self.capacity is None:
            return None
        if self._max_encodable is None:
            last = self.capacity - 1
            total = self.term(last)
            for i in range(last):
                total += self.digit_bound(i) * self.term(i)
            self._max_encodable = total
        return self._max_encodable

    def _extend_past(self, value: int) -> None:
        while not self._cache or self._cache[-1] <= value:
            n = len(self._cache)
            if self.capacity is not None and n >= self.capacity:
                return
            self.term(n)


def prime() -> BaseSequence:
    """Weights 1, 2, 3, 5, 7, ... (w_i is the i-th prime for i >= 1)."""
    return BaseSequence("prime", ("prime",), _prime_weights())


def square() -> BaseSequence:
    """Weights 1, 4, 9, 16, ... (w_i = (i+1)^2)."""
    return BaseSequence("square", ("square",), _power_series_weights(2))


def m_power(m: int) -> BaseSequence:
    """Weights w_i = (i+1)^m for an exponent m >= 2."""
    if m < 2:
        raise InvalidParameter(f"m-power base needs m >= 2, got {m}")
    return BaseSequence(f"mpower:{m}", ("mpower", m), _power_series_weights(m))


def factorial() -> BaseSequence:
    """Weights 1, 2, 6, 24, ... (w_i = (i+1)!)."""
    return BaseSequence("factorial", ("factorial",), _factorial_weights())


def power_of(p: int) -> BaseSequence:
    """Weights w_i = p^i for p >= 2; digit strings then read as ordinary base p."""
    if p < 2:
        raise InvalidParameter(f"power base needs p >= 2, got {p}")
    return BaseSequence(f"power:{p}", ("power", p), _geometric_weights(p))


def fibonacci() -> BaseSequence:
    """Weights 1, 2, 3, 5, 8, ... (the distinct Fibonacci numbers, one 1 only)."""
    return BaseSequence("fibonacci", ("fibonacci",), _fibonacci_weights())


def lucas() -> BaseSequence:
    """Weights 1, 3, 4, 7, 11, ... (Lucas numbers from 1 upward, 2 dropped)."""
    return BaseSequence("lucas", ("lucas",), _lucas_weights())


_BUILTINS = {
    "prime": (prime, ()),
    "square": (square, ()),
    "mpower": (m_power, ("m",)),
    "factorial": (factorial, ()),
    "power": (power_of, ("p",)),
    "fibonacci": (fibonacci, ()),
    "lucas": (lucas, ()),
}


def make_builtin(kind: str, **params) -> BaseSequence:
    """Construct a built-in family by name: prime, square, mpower(m), factorial, power(p), fibonacci, lucas."""
    try:
        factory, wanted = _BUILTINS[kind]
    except KeyError:
        raise InvalidParameter(f"unknown base kind {kind!r}") from None
    if set(params) != set(wanted):
        raise InvalidParameter(
            f"base kind {kind!r} takes parameters {list(wanted)}, got {sorted(params)}"
        )
    return factory(*(params[k] for k in wanted))


def _listed_name(kind: str, numbers: Sequence[int]) -> str:
    try:
        return f"{kind}{list(numbers)}"
    except ValueError:  # the interpreter's int/str conversion limit
        raise InvalidParameter(f"{kind} base: a number has too many decimal digits to name") from None


def make_explicit(terms: Sequence[int]) -> BaseSequence:
    """A finite base over exactly the given terms (must start at 1, strictly increase)."""
    terms = list(terms)
    if not terms:
        raise InvalidParameter("explicit base needs at least one term")
    if terms[0] != 1:
        raise NotStartingAtOne(f"explicit base must start at 1, got {terms[0]}")
    for a, b in zip(terms, terms[1:]):
        if b <= a:
            raise NotStrictlyIncreasing(f"terms must strictly increase: {a} then {b}")
    return BaseSequence(
        _listed_name("explicit", terms),
        ("explicit", tuple(terms)),
        iter(()),
        capacity=len(terms),
        prefix=terms,
    )


def make_mixed_radix(spec: MixedRadixSpec | Sequence[int], cyclic: bool = False) -> BaseSequence:
    """Base with weights w_{i+1} = (t_i + 1) * w_i; digit_bound(i) is exactly t_i."""
    if not isinstance(spec, MixedRadixSpec):
        spec = MixedRadixSpec(tuple(spec), cyclic=cyclic)
    capacity = None if spec.cyclic else len(spec.bounds) + 1
    suffix = " cyclic" if spec.cyclic else ""
    return BaseSequence(
        _listed_name("mixed-radix", spec.bounds) + suffix,
        ("mixed-radix", spec.bounds, spec.cyclic),
        spec.weights(),
        capacity=capacity,
    )


def parse_base_file(text: str) -> BaseSequence:
    """Parse the line-oriented custom base format.

    Line 1 is ``format=terms`` or ``format=bounds`` (optionally
    ``format=bounds cyclic``); every later non-empty, non-``#`` line is one
    decimal natural.  ``terms`` lines are explicit weights, ``bounds`` lines
    are the t_i of a mixed-radix base.
    """
    lines = text.splitlines()
    if not lines:
        raise InvalidParameter("empty base file")
    header = lines[0].split()
    if header == ["format=terms"]:
        kind, cyclic = "terms", False
    elif header == ["format=bounds"]:
        kind, cyclic = "bounds", False
    elif header == ["format=bounds", "cyclic"]:
        kind, cyclic = "bounds", True
    else:
        raise InvalidParameter(f"bad base file header {lines[0]!r}")
    numbers = []
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not (line.isascii() and line.isdigit()):
            raise InvalidParameter(f"expected a decimal natural, got {line!r}")
        try:
            numbers.append(int(line))
        except ValueError:  # the interpreter's int/str conversion limit
            raise InvalidParameter(f"a {len(line)}-digit line exceeds the integer conversion limit") from None
    if kind == "terms":
        return make_explicit(numbers)
    return make_mixed_radix(numbers, cyclic=cyclic)


def load_base_file(path) -> BaseSequence:
    """Read and parse a custom base file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_base_file(fh.read())
