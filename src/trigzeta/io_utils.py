"""Output helpers: the one text form of a binary64, the one JSON
layout, and the atomic file writer every ``--out`` goes through."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def float_text(x: float) -> str:
    """x at 17 significant digits, which round-trips every binary64."""
    return format(x, ".17g")


def json_text(payload: object) -> str:
    """payload as JSON, two-space indent, with a final newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    """Write text to path atomically: temp file in the same directory,
    then rename.  Either the complete file appears or nothing does."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
