import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from seqbase import base_sequences


@pytest.fixture(scope="session")
def prime_base():
    return base_sequences.prime()


@pytest.fixture(scope="session")
def square_base():
    return base_sequences.square()


@pytest.fixture(scope="session")
def factorial_base():
    return base_sequences.factorial()


@pytest.fixture(scope="session")
def all_builtin_bases():
    """One shared instance per built-in family (caches persist across tests)."""
    return [
        base_sequences.prime(),
        base_sequences.square(),
        base_sequences.m_power(3),
        base_sequences.factorial(),
        base_sequences.power_of(10),
        base_sequences.fibonacci(),
        base_sequences.lucas(),
    ]


def run_capped(argv: list[str], limit: int) -> subprocess.CompletedProcess:
    """`python -m seqbase *argv` in a child whose address space is capped at limit bytes.

    The cap is set by `preexec_fn`, so it binds the child alone.
    """

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "seqbase", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=cap_address_space,
        timeout=120,
    )
