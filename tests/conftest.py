import os
import sys

import pytest

from lt_spectral import sturm

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def fresh_exact_memo():
    """Each test starts with no exact spectrum kept: a test that patches
    EXACT_STATES_MAX or EXACT_RTOL, or spies on find_root or _shoot, sees
    every solve run."""
    sturm._solve_exact.cache_clear()
