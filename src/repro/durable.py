"""Durable files: the append-only JSONL journal and the atomic write.

Two on-disk disciplines carry every result this package keeps, and this
module owns both (stdlib only, so importing it pulls in no solver code):

* **JSONL journals** -- the campaign store (:mod:`repro.campaign`) and the
  service's job journal (:mod:`repro.serve.queue`).  Every record is one
  ``write(json + "\\n")`` to a file opened for appending, so a process
  killed mid-write can leave at most one partial line, at the end.
  :func:`scan_jsonl` reads a journal line by line and :func:`open_append`
  opens one for appending.
* **Atomic whole-file writes** -- result-cache entries, the cache's
  ``gc-stats.json`` and model bundles (:mod:`repro.serve.cache`,
  :mod:`repro.ml.models`).  :func:`atomic_write` writes a ``.tmp-`` file
  in the target's directory and ``os.replace``-s it over the target, so a
  reader sees the old content or the new, never a mix.

**The torn-tail rule.**  A line is torn exactly when it lacks its
terminating newline and does not parse as JSON; only the final line of a
file can be torn.  :func:`scan_jsonl` drops that tail and
:func:`open_append` truncates the same tail before the first append, so
the next record never glues onto it.  A newline-less final line that
*does* parse is a complete record whose newline was lost: the scanner
yields it and :func:`open_append` completes it with ``"\\n"``.  A line
that ends in a newline and does not parse is corruption, not a torn
write, and raises wherever it sits -- skipping a complete line would
silently recompute (or double-report) what it recorded.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterator, Optional, TextIO, Tuple

__all__ = ["scan_jsonl", "open_append", "atomic_write"]

#: Bytes read per backward step while :func:`open_append` seeks the tail.
_TAIL_BLOCK = 1 << 16


def scan_jsonl(
    path: str, key: str, what: str
) -> Iterator[Tuple[int, Optional[Dict[str, object]]]]:
    """Stream ``(line_number, record)`` pairs from a JSONL journal.

    Holds one line at a time.  Blank lines are skipped.  A torn tail (see
    the module docstring) ends the stream as ``(line_number, None)``.  Any
    other line that is not a JSON object with a ``key`` field raises
    ``ValueError("<path>:<n>: malformed <what> ...")``.
    """
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            complete = line.endswith(b"\n")
            if complete and not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if not complete:
                    yield number, None
                    return
                raise ValueError(
                    f"{path}:{number}: malformed {what} (not JSON)"
                ) from None
            if not isinstance(record, dict) or key not in record:
                raise ValueError(
                    f"{path}:{number}: malformed {what}: expected a JSON "
                    f"object with key {key!r}"
                )
            yield number, record


def open_append(path: str) -> Tuple[TextIO, bool]:
    """Open a JSONL journal for appending: ``(handle, dropped_torn_tail)``.

    Creates the parent directory and first applies the torn-tail rule to
    the file's end, reading only its final partial line (stepping back
    from the end to the last newline): a torn tail is truncated away
    (``dropped_torn_tail`` is then True), a parseable one completed with
    ``"\\n"``.
    """
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    dropped = False
    with open(path, "a+b") as handle:
        start = handle.seek(0, os.SEEK_END)
        while start > 0:
            step = min(_TAIL_BLOCK, start)
            handle.seek(start - step)
            cut = handle.read(step).rfind(b"\n")
            start -= step
            if cut >= 0:
                start += cut + 1
                break
        handle.seek(start)
        tail = handle.read()
        if tail:
            try:
                json.loads(tail)
            except ValueError:
                handle.truncate(start)
                dropped = True
            else:
                handle.write(b"\n")
    return open(path, "a", encoding="utf-8"), dropped


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` atomically (temp file + ``os.replace``).

    Creates the parent directory.  The temp file (``.tmp-*`` next to the
    target) is removed if anything fails, and the error propagates with
    the previous content of ``path`` untouched.
    """
    directory = os.path.dirname(path) or os.curdir
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except FileNotFoundError:
            pass
        raise
