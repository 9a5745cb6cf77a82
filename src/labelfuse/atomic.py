"""The one file writer of the package.

Every file the package writes (corpora, checkpoints, attention exports, the
CLI's reports, logs and config snapshots) goes through `write_atomic`.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path


def write_atomic(path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is written as UTF-8) in one step.

    The bytes go to a temp file in the target's directory, are flushed to
    disk, and `os.replace` then renames the temp file over the target. On
    any failure the temp file is removed and the target is left as it was.
    """
    target = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    temp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    fh = open(temp, "xb")
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
