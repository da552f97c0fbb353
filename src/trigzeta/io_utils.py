"""Output helpers: the one text form of a binary64, the one JSON
layout, and the atomic file writer every ``--out`` goes through."""

from __future__ import annotations

import errno
import json
import os
import stat
from pathlib import Path


def float_text(x: float) -> str:
    """x at 17 significant digits, which round-trips every binary64."""
    return format(x, ".17g")


def json_text(payload: object) -> str:
    """payload as JSON, two-space indent, with a final newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    """Write text to path atomically: temp file in the same directory,
    then rename.  Either the complete file appears or nothing does.

    Like ``open(path, "w")``, it writes through a symbolic link: the path
    is resolved first, so the link stays and its target gets the text.
    The file gets the mode that ``open`` would give it: an existing file
    keeps its own, and a new one gets 0o666 less the umask, which the
    kernel applies as it creates the temp file."""
    path = Path(os.path.realpath(path))
    if path.is_symlink():  # realpath stops inside a loop of links
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(path))
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
