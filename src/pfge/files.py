"""How the package writes and reads its files.

Every file is written through ``replacing``: its bytes go to
``{name}.{pid}.tmp`` next to the target, which is renamed over the target
only once the file is complete. A reader therefore sees the previous file or
the new one, never a torn one, and a failed write leaves the previous file
as it was. A ``*.{pid}.tmp`` file left by a killed process is never read and
is safe to delete.

All JSON is written with sorted keys, so that repeated runs with one
(config, seed) pair produce byte-identical artifacts apart from creation
timestamps, and never with a non-finite number, so that everything written
reads back. JSON is read under one rule: a file that is not UTF-8 text, not
JSON, or holds a non-finite number (``NaN``, ``Infinity``, ``-Infinity`` or
a number too large for a float) is rejected with the caller's error type.
"""

import csv
import io
import json
import math
import numbers
import os
from contextlib import contextmanager, suppress
from pathlib import Path

from .errors import NumericError


@contextmanager
def replacing(path):
    """Yield a binary file whose bytes replace ``path`` if the block completes.

    On any exception the temp file is removed and the exception re-raised,
    so ``path`` keeps its previous contents.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb")
    except OSError as exc:
        # A missing or unwritable directory: name the caller's file, not ours.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def json_text(doc) -> str:
    """``doc`` as the package writes JSON: indented, sorted keys, final newline.
    A non-finite float is a ``ValueError``, as ``read_json`` would reject it."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, doc) -> None:
    """Write ``json_text(doc)`` to ``path`` through ``replacing``; a document
    holding a non-finite number is a ``NumericError`` and leaves ``path`` as
    it was."""
    try:
        text = json_text(doc)
    except ValueError as exc:
        raise NumericError(f"{path}: cannot write JSON: {exc}") from None
    with replacing(path) as fh:
        fh.write(text.encode())


def _cell(value) -> str:
    return str(int(value)) if isinstance(value, numbers.Integral) else repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, with integers as integers and every
    other value as the ``repr`` of its float, which reads back exactly."""
    with replacing(path) as fh, io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _finite(text: str, number=float):
    # Handed every number and ``NaN``, ``Infinity``, ``-Infinity``; ``1e400``
    # and an integer of more than 308 digits read as an infinite float.
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text}")
    return number(text)


def _parse_json(text: str):
    """``json.loads`` that rejects every non-finite number with a ValueError."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite,
                      parse_int=lambda text: _finite(text, int))


def read_json(path, error, what: str):
    """The JSON document in ``path``; raises ``error`` naming the file and
    ``what`` it holds on bytes that are not UTF-8, invalid JSON or a
    non-finite number."""
    try:
        return _parse_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text: {exc}") from None
    except ValueError as exc:
        raise error(f"{path}: invalid JSON {what}: {exc}") from None
