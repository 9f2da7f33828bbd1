"""Stores written while the solve store held compiled tables (kind 1).

The store no longer reads or writes that kind, so tests build such a
store by appending kind-1 records to one the current code filled: the
payload at the next 8-byte boundary of ``store.dat``, then its 56-byte
entry in ``store.idx``, as the store appended every record.
"""

import struct
import zlib
from pathlib import Path

#: Index entry layout: key, kind, crc32, offset, length.
_ENTRY = struct.Struct("<32sBxxxIQQ")

RETIRED_KIND = 1


def append_retired(root: Path, key: bytes, payload: bytes) -> int:
    """Append one kind-1 record; returns the data bytes it adds
    (alignment padding included)."""
    dat, idx = root / "store.dat", root / "store.idx"
    data = dat.read_bytes()
    offset = len(data) + (-len(data)) % 8
    dat.write_bytes(data.ljust(offset, b"\x00") + payload)
    with idx.open("ab") as handle:
        handle.write(
            _ENTRY.pack(key, RETIRED_KIND, zlib.crc32(payload), offset, len(payload))
        )
    return offset - len(data) + len(payload)
