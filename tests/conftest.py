import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def prime_cache_1e5():
    from trigzeta import sieve_primes

    return sieve_primes(100_000)
