"""The one place records become files: byte-stable CSV and JSON.

All files may carry a single leading `#` comment line recording the
invocation that produced them; nothing time-dependent is ever written,
so reruns with identical seeds produce byte-identical files. numpy
scalars are written as the equal Python values.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import suppress

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)  # for a float, str is repr: the shortest round-trip form
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, records: list[dict], header_line: str | None = None) -> None:
    """One row per record; the columns are the first record's keys."""
    columns = list(records[0]) if records else []
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_format_cell(rec.get(col)) for col in columns))
    atomic_write_text(path, "\n".join(lines) + "\n", header_line)


def write_json(path, obj, header_line: str | None = None) -> None:
    """obj as two-space-indented JSON."""
    text = json.dumps(obj, indent=2, default=_json_default) + "\n"
    atomic_write_text(path, text, header_line)


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def atomic_write_text(path, text: str, header_line: str | None = None) -> None:
    """Write text to path atomically (temp file + rename).

    The file gets the mode open(path, "w") would give it: an existing
    file keeps its mode, a new one gets 0o666 less the umask.
    header_line, when given, becomes a leading `# ...` comment.
    """
    path = os.fspath(path)
    if header_line is not None:
        text = f"# {header_line}\n{text}"
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        with suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
