import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import env  # noqa: E402


@pytest.fixture(scope="session")
def qc():
    return env.import_package()
