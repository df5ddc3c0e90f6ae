"""Every script under ``examples/`` runs to completion.

The scripts drive the public API the README shows, and nothing else
runs them, so an API change could break one unnoticed.  Each runs in
its own interpreter, as a user would run it, from a scratch directory.
"""

import glob
import os
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))


def test_the_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(path, tmp_path):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, path], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
