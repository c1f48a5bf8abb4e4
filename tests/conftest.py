import sys
from pathlib import Path

import pytest

from glogtda import cubical_persistence

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _clear_persistence_slot():
    # compute_persistence reuses the previous call's pairing when the vertex
    # ranks repeat; start every test without one
    cubical_persistence._last_line = None
