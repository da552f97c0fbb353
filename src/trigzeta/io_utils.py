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
    kernel applies as it creates the temp file.  An error on the temp
    file, whose name is random, is raised naming path as given."""
    target = Path(os.path.realpath(path))
    if target.is_symlink():  # realpath stops inside a loop of links
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), str(target))
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            if target.exists():
                os.chmod(tmp, stat.S_IMODE(target.stat().st_mode))
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None
