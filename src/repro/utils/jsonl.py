"""Append-only JSON-lines files that survive an interrupted append.

The sweep result store and the run-metrics history both append one JSON
record per line.  A process killed mid-append leaves a *torn* final line: a
partial record with no trailing newline.  :func:`read_jsonl` skips exactly
that line with a warning, so every complete record stays readable, and
:func:`append_jsonl` cuts a torn tail off before writing, so the fragment
never ends up as a bad line in the middle of the file.  Any other line that
is not valid JSON is corruption and raises.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, List

from repro.utils.validation import ValidationError

logger = logging.getLogger(__name__)


def read_jsonl(path: Path) -> List[Any]:
    """Every parsed line of ``path`` in order; [] when the file does not exist.

    Blank lines are skipped, and so is a final line that has no newline and
    does not parse (a torn append), with a warning.  Any other unparsable
    line raises :class:`ValidationError` naming ``path:line``.
    """
    if not path.is_file():
        return []
    payloads: List[Any] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                # Only the last line of a file can lack its newline.
                if not line.endswith("\n"):
                    logger.warning(
                        "%s:%d: skipping torn final line (interrupted append)", path, number
                    )
                    break
                raise ValidationError(f"{path}:{number}: not valid JSON") from None
            payloads.append(payload)
    return payloads


def append_jsonl(path: Path, payload: Any) -> None:
    """Append ``payload`` as one JSON line, in a single flushed write.

    Creates the file and its parent directories as needed.  When the file
    does not end in a newline, its last line either is a complete record,
    which the new one then follows on a fresh line, or is torn, in which
    case it is cut off (with a warning) before the record is written.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    with path.open("ab+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                handle.seek(0)
                content = handle.read()
                tail_start = content.rfind(b"\n") + 1
                if _parses(content[tail_start:]):
                    data = b"\n" + data
                else:
                    line = content.count(b"\n") + 1
                    logger.warning(
                        "%s:%d: dropping torn final line (interrupted append)", path, line
                    )
                    handle.truncate(tail_start)
        handle.write(data)
        handle.flush()


def _parses(text: bytes) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


__all__ = ["append_jsonl", "read_jsonl"]
