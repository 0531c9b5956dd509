"""Fixtures shared by the test modules."""

import pytest

from mwscodes import codes, gf


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
    """Make factoring a field order by trial division fail the test, for
    inputs that a guard must refuse before they are factored."""

    def factored(*args, **kwargs):
        pytest.fail("q was factored")

    monkeypatch.setattr(gf, "_prime_factors", factored)
