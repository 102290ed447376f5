"""Shared fixtures."""

import pytest

from gridband import coeffs


@pytest.fixture
def cold_rows():
    """Empty the row cache before and after, so rows are built from degree 0."""
    coeffs._ROWS.clear()
    yield
    coeffs._ROWS.clear()
