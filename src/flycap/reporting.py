"""Shared CSV/JSON emission with reproducible, byte-stable formatting.

All files may carry a single leading `#` comment line recording the
invocation that produced them; nothing time-dependent is ever written,
so reruns with identical seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import suppress


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def records_to_csv_text(records: list[dict], columns: list[str] | None = None) -> str:
    if columns is None:
        columns = list(records[0].keys()) if records else []
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(format_cell(rec.get(col)) for col in columns))
    return "\n".join(lines) + "\n"


def to_json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def atomic_write_text(path, text: str, header_line: str | None = None) -> None:
    """Write text to path atomically (temp file + rename).

    The file gets the mode open(path, "w") would give it: an existing
    file keeps its mode, a new one gets 0o666 less the umask.
    header_line, when given, becomes a leading `# ...` comment.
    """
    path = os.fspath(path)
    body = text
    if header_line is not None:
        body = f"# {header_line}\n{text}"
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(body)
        with suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

