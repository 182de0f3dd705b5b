"""The output of ``scripts/cli_sweep.py``, pinned by its sha256 and line count.

The sweep prints every CLI command's output over the corpus, so a change
that alters any of it changes the digest.  Such a change must update the
digest here and say so in CHANGES.md.  The digest does not depend on
``PYTHONHASHSEED`` or on where the repository is checked out.  It is the
same on Python 3.10, 3.11 and 3.12, but the argparse help text differs on
3.13, so it is pinned for 3.10 to 3.12 only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import REPO

SHA256 = "3efff47808eb3adbd1d929cffb693801b92f211d245949d08dc3758b4f5020d1"
LINES = 306_671


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] <= (3, 12),
    reason="argparse help text differs on other Python versions",
)
def test_the_sweep_output_is_unchanged():
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "cli_sweep.py")],
        capture_output=True, cwd=REPO, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout.count(b"\n") == LINES
    assert hashlib.sha256(proc.stdout).hexdigest() == SHA256
