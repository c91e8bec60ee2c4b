import pytest

from oadiag.diagonal import _phase_expansion


@pytest.fixture(autouse=True)
def fresh_phase_expansions():
    """Clear the cached phase expansions around each test, so no test reads
    one built while another test had patched _step_values, _slot_coefficients
    or a block size."""
    _phase_expansion.cache_clear()
    yield
    _phase_expansion.cache_clear()
