"""Binary artifacts: an uncompressed zip of `.npy` arrays beside a JSON header.

Every member carries the same fixed timestamp and mode, so equal content
gives equal bytes. Each member's CRC-32 is checked as it is read, so a file
cut short or altered fails to read rather than yielding other values.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .atomic import open_atomic

_ZIP_DATE = (1980, 1, 1, 0, 0, 0)  # the earliest zip timestamp, so the bytes carry no clock

# what reading a file that is not whole or not in this layout raises
READ_ERRORS = (zipfile.BadZipFile, KeyError, TypeError, ValueError, EOFError)


def file_sha256(path: str | Path) -> str:
    with open(path, "rb") as fh:  # hashed a block at a time, not read whole
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _member(name: str) -> zipfile.ZipInfo:
    info = zipfile.ZipInfo(name, date_time=_ZIP_DATE)
    info.external_attr = 0o644 << 16
    return info


def write_array_zip(path: str | Path, header: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
    """Atomically write `header` as `header.json` and each array as
    `{name}.npy`, in the order given."""
    with open_atomic(path, binary=True) as fh, zipfile.ZipFile(fh, "w") as zf:
        zf.writestr(_member("header.json"), json.dumps(header, sort_keys=True).encode())
        for name, array in arrays.items():
            # streamed into the member, not staged in a buffer: the same bytes
            # as writestr, since the file is seekable, with one copy fewer
            with zf.open(_member(f"{name}.npy"), "w") as member:
                np.lib.format.write_array(member, np.ascontiguousarray(array), allow_pickle=False)


def read_array_zip(path: str | Path, names: Iterable[str],
                   expect: Mapping) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named arrays of a file write_array_zip wrote.

    The arrays are read only if every `expect` entry equals the header's;
    otherwise ValueError names the first that differs. A damaged file raises
    one of READ_ERRORS.
    """
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        if not isinstance(header, dict):
            raise ValueError("header.json is not an object")
        for key, value in expect.items():
            if header.get(key) != value:
                raise ValueError(f"{key} {header.get(key)!r}, expected {value!r}")
        # read_array fills each array straight from the member, a block at a
        # time, with no copy of the member's bytes; zipfile checks the CRC-32
        # once the member is read to its end
        arrays = {}
        for name in names:
            with zf.open(f"{name}.npy") as member:
                arrays[name] = np.lib.format.read_array(member, allow_pickle=False)
    return header, arrays
