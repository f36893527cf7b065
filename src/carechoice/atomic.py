"""All-or-nothing file writes for the pipeline's artifacts."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Sequence


@contextmanager
def open_atomic(path: Path | str, binary: bool = False) -> Iterator[IO]:
    """Open `path` for writing UTF-8 text (or bytes, if `binary`) that
    readers see whole or not at all.

    The text goes to a temporary file in the same directory, which replaces
    `path` only when the block completes. If the block raises, the temporary
    file is removed and any previous `path` is left as it was. Newlines are
    written as given, untranslated.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path: Path | str, columns: Sequence[str], rows: Iterable[Sequence],
              header_comment: Optional[str] = None) -> None:
    """Atomically write an optional `# header_comment` line, the column
    names and the rows, in the csv module's default dialect (lines end
    with \\r\\n)."""
    with open_atomic(path) as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
