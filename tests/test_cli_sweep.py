"""The output of ``scripts/cli_sweep.py``, pinned by sha256 and line count.

The sweep prints every CLI command's output over the corpus, so a change
that alters any of it changes a digest.  Such a change must update the
digest here and say so in CHANGES.md.  The digests do not depend on
``PYTHONHASHSEED`` or on where the repository is checked out.

The output is pinned in two parts.  The help block at its top is what
argparse lays out, and argparse lays it out differently from 3.13 on, so
it is pinned per layout.  The rest, every command's output over the
corpus, is pinned by one digest on every version from 3.10 to 3.13.  On
3.10 to 3.12 the two parts together are the output whose sha256 was
pinned whole before, ``3efff47808eb3adb...``, in 306,671 lines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import REPO

# Every command's output after the help block.
SHA256 = "8812fcdf223ce9033c98fea870216f86b8e16fd39ccceb653eda940896a77463"
LINES = 306_511
# The help block, as (lines, sha256), per argparse layout.
HELP_BEFORE_3_13 = (
    160, "51b7333dc49b12ecd0d045f990c6d805f8c554abee4278211caad56a8e94925f"
)
HELP_3_13 = (159, "33d76ba491b5c46f199009987877188bdefb43b63a46d76c0ae655161d766617")
# The first call after the help block.
FIRST_CALL = b"$ occob check corpus/"


@pytest.fixture(scope="module")
def sweep() -> tuple[bytes, bytes]:
    """The sweep's help block and the rest of its output."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "cli_sweep.py")],
        capture_output=True, cwd=REPO, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    cut = proc.stdout.index(b"\n" + FIRST_CALL) + 1
    return proc.stdout[:cut], proc.stdout[cut:]


def _pin(text: bytes) -> tuple[int, str]:
    return text.count(b"\n"), hashlib.sha256(text).hexdigest()


def test_the_sweep_output_is_unchanged(sweep):
    assert _pin(sweep[1]) == (LINES, SHA256)


@pytest.mark.skipif(
    not (3, 10) <= sys.version_info[:2] <= (3, 13),
    reason="no help layout is pinned for this Python version",
)
def test_the_help_block_is_unchanged(sweep):
    expected = HELP_3_13 if sys.version_info >= (3, 13) else HELP_BEFORE_3_13
    assert _pin(sweep[0]) == expected
