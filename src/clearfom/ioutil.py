"""Deterministic, atomic file output helpers.

All artifacts are UTF-8 with LF line endings, '.' decimal separators, and
scientific notation where appropriate. Files are written to a temporary name
in the target directory and renamed into place, so a failed run never leaves
a partial artifact.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ClearError, DomainError

__all__ = ["fmt", "atomic_write_text", "write_csv", "write_json", "IoError"]


class IoError(ClearError):
    """Filesystem failure while reading inputs or writing artifacts."""


def fmt(value) -> str:
    """Canonical cell formatting: shortest-repr floats, plain ints, raw strings."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def atomic_write_text(path: str | Path, text: str):
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            # mkstemp creates the file 0600; give it the mode open(path, "w") would.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp_name, 0o666 & ~umask)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]):
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str | Path, document):
    try:
        text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or Infinity, which strict JSON cannot hold
        raise DomainError(f"cannot write {path}: {exc}") from exc
    atomic_write_text(path, text + "\n")
