"""Crash-safe file writes (write a temp file, then ``os.replace`` it) and
the matching JSON reader.

Every JSON artifact the toolkit persists -- tuned shape caches, emitted
parallelism plans, fault plans, priced-cell stores, ``--json`` reports and
profile snapshots -- goes through :func:`atomic_write_text`.  A run
interrupted mid-write (the exact failure mode the sweep store already
quarantines for its JSONL lines) can therefore never leave a truncated or
half-written file behind: either the old content survives untouched, or the
complete new content is in place.

``os.replace`` is atomic on POSIX and Windows when source and destination
live on the same filesystem, which the same-directory temp file guarantees.
The result has the permissions a plain ``open(path, "w")`` would leave: a new
file gets ``0o666`` minus the umask, and a replaced file keeps its mode.

:func:`read_json` loads those artifacts back.  A file that is not JSON, or is
JSON of the wrong structure, raises a :class:`ValueError` naming the file,
which the CLI reports as a one-line error.  Loaders of other formats (the
JSONL request traces) get the same conversion from :func:`malformed_artifact`.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import stat
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any, TypeVar

__all__ = ["atomic_write_text", "malformed_artifact", "read_json"]

T = TypeVar("T")


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically write ``text`` (UTF-8) to ``path``, creating parent directories.

    The content is written to a temporary file in the destination directory
    and renamed over the target in one step.  On any failure the temporary
    file is removed and the previous content of ``path`` (if any) is left
    intact.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temp_name = str(target.parent / f".{target.name}.{secrets.token_hex(8)}.tmp")
    # Created the way open(path, "w") creates a file: 0o666 minus the umask.
    fd = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.suppress(FileNotFoundError):  # a replaced file keeps its mode
            os.chmod(temp_name, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


@contextlib.contextmanager
def malformed_artifact(path: str | Path) -> Iterator[None]:
    """Report a malformed artifact file as a :class:`ValueError` naming ``path``.

    A decode error, and the ``KeyError``, ``TypeError`` or ``AttributeError``
    that building an object from well-formed data of the wrong structure
    raises inside the block, become that ``ValueError``.
    """
    try:
        yield
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"malformed {path}: {type(error).__name__}: {error}") from error


def read_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """Decode the JSON file at ``path`` and build an object from it with ``parse``.

    Decode and structure errors become a :class:`ValueError` that names the
    file (see :func:`malformed_artifact`).
    """
    target = Path(path)
    text = target.read_text(encoding="utf-8")
    with malformed_artifact(target):
        return parse(json.loads(text))
