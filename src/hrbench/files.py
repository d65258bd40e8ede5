"""The one place hrbench opens a file: typed reads and whole writes."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from pathlib import Path

from .errors import DataError


@contextlib.contextmanager
def _named(path):
    """An OSError or a UnicodeDecodeError in the block as a DataError naming `path`."""
    if "\0" in str(path):
        raise DataError(f"{str(path)!r}: a file name cannot hold a NUL byte")
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def reading(path, newline=None):
    """`path` open for reading UTF-8 text; a file that cannot be opened or
    read as UTF-8 is a DataError naming it."""
    with _named(path), open(path, encoding="utf-8", newline=newline) as fh:
        yield fh


@contextlib.contextmanager
def writing(path, newline=None):
    """A UTF-8 text handle on a temp file beside `path`, which replaces `path`
    only when the block ends without an exception, so a failed or killed
    write leaves the previous file, or none. Missing parent directories are
    made first."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with _named(path.parent):
        path.parent.mkdir(parents=True, exist_ok=True)
    with _named(path):
        try:
            with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def sha256(path) -> str:
    """The hex sha256 of the bytes of `path`."""
    with _named(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def remove(path) -> None:
    with _named(path):
        Path(path).unlink(missing_ok=True)


def write_json(path, value) -> None:
    with writing(path) as fh:
        json.dump(value, fh, indent=2)


def write_csv(path, rows) -> None:
    """`rows` as `csv.writer` writes them: CRLF lines, a field quoted only
    when it must be, None as an empty field and a float as its repr."""
    with writing(path, newline="") as fh:
        csv.writer(fh).writerows(rows)
