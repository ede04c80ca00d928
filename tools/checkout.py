"""The other tree that `tools/parity.py` and `tools/ab.py` compare this one with.

`--against` takes a directory that holds a checkout of the project (its
`src/mvx`), used as it is, or else a git revision of this repository, which
is exported with `git archive` into a temporary directory that is removed
afterwards. A directory wins over a revision of the same name.
"""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def checkout(against: str) -> Iterator[Path]:
    """The root of the tree that `against` names, for the context's duration."""
    path = Path(against)
    if path.is_dir():
        if not (path / "src" / "mvx").is_dir():
            raise SystemExit(f"--against {against}: a directory without src/mvx")
        yield path.resolve()
        return
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", against],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        raise SystemExit(f"--against {against}: neither a directory nor a git revision")
    with tempfile.TemporaryDirectory(prefix="mvx-against-") as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield Path(tmp)
