"""The prime base against sympy's primes: counts, neighbours and n-th primes."""

import random

import pytest

from seqbase import base_sequences as bs

sympy = pytest.importorskip("sympy")


def expected_part(v):
    """(pi(v), the largest prime <= v), or w_0 = 1 below the first prime."""
    return int(sympy.primepi(v)), (int(sympy.prevprime(v + 1)) if v > 1 else 1)


def around(edges):
    return {e + d for e in edges for d in (-2, -1, 0, 1, 2)}


class TestPrimeAgainstSympy:
    def test_superior_part_at_block_and_sieve_edges(self):
        block = 2 * bs._PRIME_BLOCK  # the numbers one directory block covers
        doubling = [block << j for j in range(20) if block << j < 10**7]  # ascending values grow the sieve here
        values = {1, 2, 3, 4, 10**6, 10**7}
        values |= around(range(block, 2 * 10**5, block)) | around(doubling)
        base = bs.prime()
        for v in sorted(values):  # ascending, so the sieve grows past each doubling edge in turn
            assert base.superior_part(v) == expected_part(v), v

    def test_terms_at_random_indices(self):
        sympy.sieve.extend(10**7)  # sympy's n-th prime is a lookup inside its own sieve
        rng = random.Random(2000)
        base = bs.prime()
        for i in [rng.randrange(1, 664_580) for _ in range(300)] + [664_579, 78_498, 1]:
            assert base.term(i) == sympy.prime(i), i
