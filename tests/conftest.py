"""Set-up shared by every test module."""

import os

import pytest

_cpu_count = os.cpu_count


def at_least_two_cpus() -> int:
    """The CPU count, raised to 2 where the machine has fewer."""
    return max(2, _cpu_count() or 1)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    # Many tests run `--threads 2`, which --threads' bound of one worker per
    # CPU refuses on a 1-CPU machine.  The tests of that bound patch
    # os.cpu_count themselves.
    monkeypatch.setattr(os, "cpu_count", at_least_two_cpus)
