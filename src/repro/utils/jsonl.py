"""Append-only JSON-lines files that survive an interrupted append.

The sweep result store and the run-metrics history both append one JSON
record per line.  A process killed mid-append leaves a *torn* final line: a
partial record with no trailing newline.  :func:`read_jsonl` skips exactly
that line with a warning, so every complete record stays readable (through
:func:`iter_jsonl`, which also reads on from where a caller stopped), and
:func:`append_jsonl` cuts a torn tail off before writing, so the fragment
never ends up as a bad line in the middle of the file.  Any other line that
is not valid JSON is corruption and raises.

Appenders in several processes take turns through an exclusive lock on the
file (POSIX ``flock``), so one never mistakes another's in-progress write
for a torn tail.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple

from repro.utils.validation import ValidationError

try:
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    _fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)


def read_jsonl(path: Path) -> List[Any]:
    """Every parsed line of ``path`` in order; [] when the file does not exist.

    Blank lines are skipped, and so is a final line that has no newline and
    does not parse (a torn append), with a warning.  Any other unparsable
    line raises :class:`ValidationError` naming ``path:line``.
    """
    if not path.is_file():
        return []
    with path.open("rb") as handle:
        return [payload for payload, *_ in iter_jsonl(handle, path)]


def iter_jsonl(
    handle: BinaryIO, path: Path, offset: int = 0, line: int = 0
) -> Iterator[Tuple[Any, bytes, Optional[int], int]]:
    """``(payload, text, end, number)`` for each parsed line of ``path`` from byte ``offset`` on.

    The one reader behind :func:`read_jsonl`, under the same rules, for a
    caller that keeps its place in a growing file.  ``handle`` is ``path``
    open in binary mode, ``offset`` is the start of a line and ``line``
    counts the lines before it, so ``number`` (and every warning or error)
    counts lines from the start of the file.  ``text`` is the line's bytes
    and ``end`` the byte offset just past its newline, or None for a final
    line without one.
    """
    handle.seek(offset)
    for raw in handle:
        line += 1
        offset += len(raw)
        if not raw.strip():
            continue
        terminated = raw.endswith(b"\n")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            # Only the last line of a file can lack its newline.
            if not terminated:
                logger.warning(
                    "%s:%d: skipping torn final line (interrupted append)", path, line
                )
                return
            raise ValidationError(f"{path}:{line}: not valid JSON") from None
        yield payload, raw, offset if terminated else None, line


def append_jsonl(path: Path, payload: Any) -> None:
    """Append ``payload`` as one JSON line, in a single flushed write.

    Creates the file and its parent directories as needed.  When the file
    does not end in a newline, its last line either is a complete record,
    which the new one then follows on a fresh line, or is torn, in which
    case it is cut off (with a warning) before the record is written.  The
    file is locked from that check until the write is flushed, so appenders
    in other processes wait their turn.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    with path.open("ab+") as handle:
        if _fcntl is not None:
            # Released when the file is closed, after the flush below.
            _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX)
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


__all__ = ["append_jsonl", "iter_jsonl", "read_jsonl"]
