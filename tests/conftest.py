"""Fixtures shared by the test modules."""

import pytest

from ckernels import quadrature


@pytest.fixture
def sweeps(monkeypatch) -> list:
    """A one-element list that counts the quadrature's sweeps from here on."""
    count = [0]
    sweep = quadrature._sweep

    def counting(*args):
        count[0] += 1
        return sweep(*args)

    monkeypatch.setattr(quadrature, "_sweep", counting)
    return count
