import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from oadiag.diagonal import _phase_expansion

# the numpy loops, by ufunc and type signature, whose SIMD target the bitwise
# pins in these tests rest on: another target (AVX2 for AVX-512, say) rounds
# some inputs differently and moves a pinned float by an ulp
PINNED_LOOPS = [("absolute", "Dd"), ("arctan2", "ddd"), ("exp", "dd"), ("log", "dd"),
                ("power", "ddd")]


def pytest_report_collectionfinish(config):
    """numpy's version and the SIMD target it dispatches each pinned loop to,
    printed after collection: unlike the session header, these lines show
    under -q too."""
    info = opt_func_info()
    targets = ", ".join(f"{name} {sig}: {info[name][sig]['current']}"
                        for name, sig in PINNED_LOOPS)
    return [f"numpy {np.__version__}", f"numpy dispatch: {targets}"]


@pytest.fixture(autouse=True)
def fresh_phase_expansions():
    """Clear the cached phase expansions around each test, so no test reads
    one built while another test had patched _step_values, _slot_coefficients
    or a block size."""
    _phase_expansion.cache_clear()
    yield
    _phase_expansion.cache_clear()
