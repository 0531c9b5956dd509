"""Fixtures shared by the test modules."""

import pytest

from mwscodes import bounds, codes, gf


@pytest.fixture
def block_rows(monkeypatch):
    """Set codes.BLOCK_ROWS, which sets the enumeration blocks, the size of
    a full search batch and so how small a space runs without a pool; the
    per-code layout cache is cut to one block size, so it is cleared each
    time."""

    def set_rows(rows):
        monkeypatch.setattr(codes, "BLOCK_ROWS", rows)
        codes._layout.cache_clear()

    yield set_rows
    codes._layout.cache_clear()


@pytest.fixture
def no_factoring(monkeypatch):
    """Make decomposing a field order as p^m fail the test, for inputs that a
    guard must refuse before q is decomposed."""

    def decomposed(*args, **kwargs):
        pytest.fail("q was decomposed")

    for module in (gf, bounds):  # bounds imports the name
        monkeypatch.setattr(module, "_prime_power_decomposition", decomposed)
