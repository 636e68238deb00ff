import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def child_env():
    """Environment for a child interpreter: it imports the package this test
    imports, whether that came from PYTHONPATH or from pytest's own
    pythonpath setting."""
    import recdig

    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(recdig.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])
        ),
    )
