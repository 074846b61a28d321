"""The package's one binary file format: a container of named arrays of
one payload type, float64.

A parameter store (``params.ParameterStore``) is a container of tensors.
A posterior-stream archive (``pipeline.write_streams``) is a container of
log-probability matrices, one per utterance id. A feature file
(``features.write_features``) is a container of one matrix.

Layout (little-endian):

    magic          4 bytes  b"SNA2"
    count          u32, number of entries
    count entries, each:
        name_len   u16, name utf-8 bytes (unique in the file)
        itemsize   u8, always 8 (float64); an earlier float32 file is refused
        rank       u8, then dims u32 * rank
        payload    itemsize * prod(dims) bytes, C order

No byte follows the last entry. ``write`` takes the entries one at a
time from an iterator and patches the count in at the end, so
a generator's arrays need not all be held; it writes a temporary sibling
file and moves it over the target only once every entry is written, so a
refused write leaves the target as it was. ``read`` checks each field
before it uses it, and an entry's exact payload size against the bytes
left before it allocates; every malformed file raises ContainerError.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SNA2"
_HEADER = struct.Struct("<4sI")  # magic, count
_KIND = struct.Struct("<BB")  # itemsize, rank
PAYLOAD = np.dtype("<f8")
# the largest dim a u32 dims field holds
MAX_DIM = 2**32 - 1


class ContainerError(ValueError):
    """Malformed container file."""


def write(path, entries, what):
    """Write ``(name, array)`` entries to ``path`` as they come. Every
    array is float64 (never converted). A name given twice or longer than
    65535 bytes, an array of another dtype or a dim past the u32 range
    raises ValueError naming the entry as ``what``, such as "utterance
    id"; ``path`` is then left as it was, absent or whole."""
    names = set()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, 0))  # count, patched in below
            for name, arr in entries:
                raw = name.encode("utf-8")
                if name in names:
                    raise ValueError(f"duplicate {what} {name!r}")
                if len(raw) > 0xFFFF:
                    raise ValueError(f"{what} of {len(raw)} bytes is longer than 65535")
                if arr.dtype != np.float64:
                    raise ValueError(f"{what} {name!r}: {arr.dtype} payload, "
                                     "the file holds float64")
                if max(arr.shape, default=0) > MAX_DIM:
                    raise ValueError(f"{what} {name!r}: dim {max(arr.shape)} of shape "
                                     f"{arr.shape} is larger than {MAX_DIM}")
                names.add(name)
                fh.write(struct.pack(f"<H{len(raw)}sBB{arr.ndim}I", len(raw), raw,
                                     PAYLOAD.itemsize, arr.ndim, *arr.shape))
                fh.write(arr.astype(PAYLOAD, copy=False).tobytes())
            fh.seek(0)
            fh.write(_HEADER.pack(MAGIC, len(names)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read(path, what):
    """``{name: array}`` of the container at ``path``, in file order,
    each array a fresh float64 one. Messages name each entry by its
    index and, once read, its name (``what``)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ContainerError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    if len(blob) < _HEADER.size:
        raise ContainerError("truncated archive header")
    _, count = _HEADER.unpack_from(blob)
    off, arrays = _HEADER.size, {}
    for i in range(count):
        if off == len(blob):
            raise ContainerError(f"truncated: the archive holds {i} of {count} entries")
        end = off + 2 + int.from_bytes(blob[off : off + 2], "little")
        if len(blob) < end:
            raise ContainerError(f"entry {i}: truncated {what}")
        try:
            name = blob[off + 2 : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"entry {i}: {what} is not valid utf-8: {exc}") from None
        if name in arrays:
            raise ContainerError(f"entry {i}: duplicate {what} {name!r} appears twice")
        where = f"entry {i} ({name!r})"
        if len(blob) < end + _KIND.size:
            raise ContainerError(f"{where}: truncated itemsize and rank")
        itemsize, rank = _KIND.unpack_from(blob, end)
        if itemsize != PAYLOAD.itemsize:
            raise ContainerError(f"{where}: payload of {itemsize}-byte items, "
                                 f"expected float64 ({PAYLOAD.itemsize}-byte)")
        off = end + _KIND.size + 4 * rank
        if len(blob) < off:
            raise ContainerError(f"{where}: truncated dims")
        dims = struct.unpack_from(f"<{rank}I", blob, end + _KIND.size)
        # exact integer size: a fixed-width product can wrap to a size the
        # payload seems to match
        size = itemsize * math.prod(dims)
        if len(blob) - off < size:
            raise ContainerError(f"{where}: payload truncated to {len(blob) - off} bytes, "
                                 f"dims {dims} need {size}")
        payload = np.frombuffer(blob, PAYLOAD, size // itemsize, off)
        try:
            arrays[name] = payload.reshape(dims).astype(np.float64)
        except ValueError as exc:  # too many dims, or a size numpy cannot hold
            raise ContainerError(f"{where}: unusable dims {dims}: {exc}") from None
        off += size
    if off != len(blob):
        raise ContainerError(f"trailing bytes after the last of {count} entries")
    return arrays
