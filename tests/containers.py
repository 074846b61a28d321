"""Container files built byte by byte from the layout in
``sslasr.container``, and the one fuzz suite that every reader of the
format runs (``reader_fuzz``)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr.container import MAGIC, ContainerError


def entry(name, dims, payload=None, itemsize=8):
    """One entry's bytes: ``name`` (raw bytes), the item size (8, float64,
    unless a test plants another), ``dims`` and the payload, by default
    ones of the size the dims promise."""
    if payload is None:
        payload = np.ones(math.prod(dims), dtype=f"<f{itemsize}").tobytes()
    return struct.pack(f"<H{len(name)}sBB{len(dims)}I", len(name), name, itemsize,
                       len(dims), *dims) + payload


def container_blob(entries, count=None):
    """A container of entry bytes whose header claims ``count`` entries
    (default: as many as there are)."""
    return MAGIC + struct.pack("<I", len(entries) if count is None else count) + b"".join(entries)


@st.composite
def well_formed_blobs(draw):
    """Up to three entries over random names, item sizes, dims and payload
    bits, under a header claiming a random count."""
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        itemsize = draw(st.sampled_from([4, 8]))
        dims = draw(st.lists(st.integers(0, 3), max_size=3))
        size = itemsize * math.prod(dims)
        entries.append(entry(draw(st.binary(max_size=3)), dims,
                             draw(st.binary(min_size=size, max_size=size)), itemsize))
    return container_blob(entries, draw(st.none() | st.integers(0, 4)))


def reader_fuzz(valid, load):
    """The three fuzz tests of a reader, as methods for a test class: every
    truncation of the blob ``valid`` raises ContainerError, and so does
    every bit flip of it and every random blob that ``load`` does not load.
    ``load`` reads a blob and asserts whatever a loaded one must meet."""

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, len(valid) - 1))
    def test_every_truncation_is_named(self, cut):
        with pytest.raises(ContainerError):
            load(valid[:cut])

    @settings(max_examples=300, deadline=None)
    @given(pos=st.integers(0, len(valid) - 1), bit=st.integers(0, 7))
    def test_bit_flip_loads_or_is_named(self, pos, bit):
        blob = bytearray(valid)
        blob[pos] ^= 1 << bit
        try:
            load(bytes(blob))
        except ContainerError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(blob=st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(MAGIC.__add__),
                          well_formed_blobs()))
    @example(blob=container_blob([]))
    @example(blob=container_blob([entry(b"", (1, 1), b"\xff" * 7 + b"\x7f")]))  # NaN
    def test_random_blob_loads_or_is_named(self, blob):
        try:
            load(blob)
        except ContainerError:
            pass

    return test_every_truncation_is_named, test_bit_flip_loads_or_is_named, \
        test_random_blob_loads_or_is_named
