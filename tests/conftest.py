"""Fixtures shared by the test modules."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kolmo


@pytest.fixture
def fresh_python():
    """A function that runs Python source in a new interpreter importing this
    kolmo and asserts a zero exit, so that a test sees what a cold start
    imports."""
    path = os.pathsep.join(filter(None, [str(Path(kolmo.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))

    def run(code: str):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr

    return run
