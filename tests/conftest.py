"""Fixtures shared by the test modules."""

import pytest

from supercong import arith


@pytest.fixture
def primality_tests(monkeypatch):
    """The p of every arith.is_odd_prime call from here on, in call order."""
    calls = []

    def counting(p, _real=arith.is_odd_prime):
        calls.append(p)
        return _real(p)

    monkeypatch.setattr(arith, "is_odd_prime", counting)
    return calls
