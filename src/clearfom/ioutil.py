"""File helpers: the one CSV reader for inputs, and atomic artifact output.

All artifacts are UTF-8 with LF line endings, '.' decimal separators, and
scientific notation where appropriate. Files are written to a temporary name
in the target directory and renamed into place, so a failed run never leaves
a partial artifact.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ClearError, DomainError

__all__ = ["fmt", "read_csv", "finite_float", "finite_floats", "atomic_write_text", "write_csv",
           "write_json", "IoError"]

T = TypeVar("T")


class IoError(ClearError):
    """Filesystem failure while reading inputs or writing artifacts."""


def fmt(value) -> str:
    """Canonical cell formatting: shortest-repr floats, plain ints, raw strings."""
    kind = type(value)  # nearly every cell is an exact float or str
    if kind is float:
        return repr(value)
    if kind is str:
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def read_csv(path: str | Path, header: Sequence[str],
             parse: Callable[[list[str]], T]) -> list[T]:
    """``parse`` of the cells of each row of the CSV input at ``path``.

    The file is UTF-8, its first row is exactly ``header`` and every later
    row has one cell per column; blank lines are skipped. A file that cannot
    be read raises :class:`IoError`. Undecodable bytes, bad quoting, a row of
    the wrong width, or a row that ``parse`` refuses with a ``ValueError``
    raise :class:`DomainError` naming ``path:line``.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DomainError(f"{path}:{line}: not UTF-8: {exc.reason}") from exc
    import csv  # only a CSV input pays for the import
    import io
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    rows = []
    try:
        first = next(reader, [])
        if first != list(header):
            raise ValueError(f"expected CSV header {','.join(header)}, got {','.join(first)}")
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
            rows.append(parse(cells))
    except (csv.Error, ValueError) as exc:  # an empty file has read no line yet
        raise DomainError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    return rows


def finite_float(text: str) -> float:
    """A numeric CSV cell; like a config number, it must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def finite_floats(cells: Sequence[str]) -> tuple[float, ...]:
    """Numeric CSV cells, each checked as by :func:`finite_float`; a refusal names the left-most."""
    # One test for every cell. A bad cell, or finite cells whose sum leaves the
    # float range, goes cell by cell.
    try:
        values = tuple(map(float, cells))
        if math.isfinite(sum(values)):
            return values
    except ValueError:
        pass
    return tuple(map(finite_float, cells))


def atomic_write_text(path: str | Path, text: str):
    path = Path(path)
    # Unique to this process; mode 0o666 lets the kernel apply the umask, as open(path, "w") does.
    tmp_name = f"{path}.{os.getpid()}.tmp"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(paths: Iterable[str | Path], header: Sequence[str], rows: Iterable[Sequence]):
    """Render one table once and write it to each of ``paths``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(fmt, row)) for row in rows)
    text = "\n".join(lines) + "\n"
    for path in paths:
        atomic_write_text(path, text)


def write_json(path: str | Path, document):
    try:
        # No indent: indentation would make json use its pure-Python encoder.
        text = json.dumps(document, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or Infinity, which strict JSON cannot hold
        raise DomainError(f"cannot write {path}: {exc}") from exc
    atomic_write_text(path, text + "\n")
