"""Log-mel filterbank frontend, stream fusion, and the binary feature-file
and feature-archive formats.

The frame contract: audio is 16 kHz (``SAMPLE_RATE``), and ``read_wav``
rejects a file at any other rate. The filterbank's window is 25 ms
(``FBANK_WIN``, 400 samples), as is the encoder's receptive field; the
encoder's 20 ms frames, doubled in rate by the bottleneck adapter, and the
filterbank's hop are all 10 ms (``FRAME_SHIFT_US``), so streams fuse frame
by frame. Nothing is resampled: a stream at another shift is rejected.

Feature file layout (little-endian), magic ``SFF1``; one such record
holds one utterance's matrix:

    magic          4 bytes  b"SFF1"
    version        u32 (currently 1)
    rows, cols     u32, u32
    frame_shift_us u32
    label_len      u8, label utf-8 bytes
    payload        f32 * rows * cols, row-major

Feature archive layout (little-endian), magic ``SFA1``; one file holds a
set of utterances, such as a system's posterior streams over a test set:

    magic          4 bytes  b"SFA1"
    count          u32, number of entries
    count entries, each:
        id_len     u8, utterance id utf-8 bytes (unique in the archive)
        record     one SFF1 record as above, magic through payload

No byte follows the last entry. Every malformed file or archive raises
FeatureFileError.
"""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16_000
# the filterbank hop, and the shift every stream is fused at
FRAME_SHIFT_US = 10_000
# the filterbank's 25 ms window and its hop, FRAME_SHIFT_US, in samples,
# and its FFT size, the next power of two
FBANK_WIN = SAMPLE_RATE * 25 // 1000
FBANK_HOP = SAMPLE_RATE * FRAME_SHIFT_US // 1_000_000
FBANK_FFT = 512
FBANK_MELS = 40
FBANK_FLOOR = 1e-10
PREEMPHASIS = 0.97
# the analysis window, shared by every call and so read-only
HAMMING = np.hamming(FBANK_WIN)
HAMMING.flags.writeable = False

FILE_MAGIC = b"SFF1"
FILE_VERSION = 1
ARCHIVE_MAGIC = b"SFA1"
_HEADER = struct.Struct("<IIIIB")


class FeatureFileError(ValueError):
    """Malformed feature file."""


class BadMagicError(FeatureFileError):
    pass


class VersionMismatchError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class FrameCountMismatchError(FeatureFileError):
    """Streams to fuse are off FRAME_SHIFT_US or differ in length too much."""


# frames two streams of one utterance may differ by
MAX_FUSE_MISMATCH = 2


@dataclass
class AudioBuffer:
    """Mono waveform at SAMPLE_RATE with amplitudes in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).ravel()
        if self.samples.size == 0:
            raise ValueError("audio buffer must contain at least one sample")

    def __len__(self):
        return self.samples.size


@dataclass
class FeatureMatrix:
    """T x D frame features at a fixed frame shift.

    Values are kept as float32, the on-disk payload type, so file round
    trips are bit exact.
    """

    data: np.ndarray
    frame_shift_us: int
    label: str = ""

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"feature matrix must be T x D with T,D >= 1, got {self.data.shape}")
        if self.frame_shift_us <= 0:
            raise ValueError(f"frame_shift_us must be positive, got {self.frame_shift_us}")
        if not np.isfinite(self.data).all():
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_frames(self):
        return self.data.shape[0]

    @property
    def dim(self):
        return self.data.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def mel_filterbank():
    """Triangular unit-height mel filters, 0 Hz to Nyquist, at FFT bins.

    Returns (FBANK_MELS, FBANK_FFT // 2 + 1) weights and the filter center
    frequencies in Hz. Both are computed once and shared by every caller,
    so they are read-only.
    """
    edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2.0), FBANK_MELS + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_hz = np.arange(FBANK_FFT // 2 + 1) * (SAMPLE_RATE / FBANK_FFT)
    weights = np.zeros((FBANK_MELS, bin_hz.size))
    for i in range(FBANK_MELS):
        left, center, right = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        up = (bin_hz - left) / max(center - left, 1e-12)
        down = (right - bin_hz) / max(right - center, 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(up, down))
    centers = edges_hz[1:-1]
    weights.flags.writeable = False
    centers.flags.writeable = False
    return weights, centers


def compute_fbank(audio: AudioBuffer) -> FeatureMatrix:
    """Log-mel filterbank features with pre-emphasis and a Hamming window.

    Frames are FBANK_HOP samples apart, unpadded: T = (N - FBANK_WIN) //
    FBANK_HOP + 1, so the audio must cover one analysis window.
    """
    n = len(audio)
    if n < FBANK_WIN:
        raise ValueError(
            f"audio of {n} samples is shorter than one {FBANK_WIN}-sample analysis window"
        )
    x = audio.samples.copy()
    x[1:] -= PREEMPHASIS * x[:-1]
    frames = sliding_window_view(x, FBANK_WIN)[::FBANK_HOP] * HAMMING
    power = np.abs(np.fft.rfft(frames, n=FBANK_FFT, axis=1)) ** 2 / FBANK_FFT
    fbank, _ = mel_filterbank()
    energies = power @ fbank.T
    logmel = np.log(np.maximum(energies, FBANK_FLOOR))
    return FeatureMatrix(logmel, FRAME_SHIFT_US, label="fbk")


def fuse_features(streams) -> FeatureMatrix:
    """Truncate the streams of one utterance to the shortest and
    concatenate them along the feature axis.

    Streams of one utterance are all at FRAME_SHIFT_US and differ by at
    most a frame or two (conv arithmetic at the stream edges). A stream at
    another shift, or a larger mismatch, means they do not belong together
    and raises FrameCountMismatchError naming the shifts and lengths.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one feature stream to fuse")
    shifts = [s.frame_shift_us for s in streams]
    lengths = [s.n_frames for s in streams]
    t_min = min(lengths)
    if set(shifts) != {FRAME_SHIFT_US} or max(lengths) - t_min > MAX_FUSE_MISMATCH:
        raise FrameCountMismatchError(
            f"streams of {lengths} frames at {shifts} us: fusion needs {FRAME_SHIFT_US} us "
            f"streams within {MAX_FUSE_MISMATCH} frames of each other"
        )
    fused = np.concatenate([s.data[:t_min] for s in streams], axis=1)
    label = "+".join(s.label for s in streams if s.label) or "fused"
    return FeatureMatrix(fused, FRAME_SHIFT_US, label)


def _write_record(fh, f: FeatureMatrix):
    label = f.label.encode("utf-8")
    if len(label) > 255:
        raise ValueError("label longer than 255 bytes")
    rows, cols = f.data.shape
    fh.write(FILE_MAGIC)
    fh.write(_HEADER.pack(FILE_VERSION, rows, cols, f.frame_shift_us, len(label)))
    fh.write(label)
    fh.write(np.ascontiguousarray(f.data, dtype="<f4").tobytes())


def _parse_record(blob, off=0):
    """Parse the SFF1 record at ``blob[off:]``; returns the matrix and the
    offset just past its payload. Bytes after the payload are the
    caller's to judge."""
    if blob[off : off + 4] != FILE_MAGIC:
        raise BadMagicError(f"bad magic {blob[off : off + 4]!r}, expected {FILE_MAGIC!r}")
    off += 4
    if len(blob) < off + _HEADER.size:
        raise TruncatedFileError("truncated header")
    version, rows, cols, shift, label_len = _HEADER.unpack_from(blob, off)
    if version != FILE_VERSION:
        raise VersionMismatchError(f"unsupported version {version}, expected {FILE_VERSION}")
    off += _HEADER.size
    if len(blob) < off + label_len:
        raise TruncatedFileError("truncated label")
    try:
        label = blob[off : off + label_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FeatureFileError(f"label is not valid utf-8: {exc}") from exc
    off += label_len
    payload = 4 * rows * cols
    if len(blob) < off + payload:
        raise TruncatedFileError(
            f"payload holds {len(blob) - off} bytes, header promises {payload}"
        )
    data = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
    try:
        return FeatureMatrix(data.reshape(rows, cols).copy(), shift, label), off + payload
    except ValueError as exc:  # empty shape, zero shift or non-finite payload
        raise FeatureFileError(str(exc)) from exc


def write_features(f: FeatureMatrix, path):
    with open(path, "wb") as fh:
        _write_record(fh, f)


def read_features(path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        blob = fh.read()
    f, end = _parse_record(blob)
    if end != len(blob):
        raise FeatureFileError("trailing bytes after payload")
    return f


def write_archive(path, items):
    """Write ``(utt_id, FeatureMatrix)`` pairs to one archive file, an
    entry at a time, so a generator's matrices need not all be held. A
    duplicate or over-long id raises ValueError."""
    seen = set()
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        fh.write(struct.pack("<I", 0))  # entry count, filled in below
        for utt_id, f in items:
            raw = utt_id.encode("utf-8")
            if len(raw) > 255:
                raise ValueError(f"utterance id {utt_id!r} longer than 255 bytes")
            if utt_id in seen:
                raise ValueError(f"duplicate utterance id {utt_id!r}")
            seen.add(utt_id)
            fh.write(struct.pack("<B", len(raw)))
            fh.write(raw)
            _write_record(fh, f)
        fh.seek(len(ARCHIVE_MAGIC))
        fh.write(struct.pack("<I", len(seen)))


def read_archive(path) -> dict[str, FeatureMatrix]:
    """Read an archive into ``{utt_id: FeatureMatrix}``, in file order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != ARCHIVE_MAGIC:
        raise BadMagicError(f"bad magic {blob[:4]!r}, expected {ARCHIVE_MAGIC!r}")
    if len(blob) < 8:
        raise TruncatedFileError("truncated archive header")
    (count,) = struct.unpack_from("<I", blob, 4)
    off, out = 8, {}
    for i in range(count):
        if len(blob) <= off:
            raise TruncatedFileError(f"archive holds {i} of {count} entries")
        end = off + 1 + blob[off]
        if len(blob) < end:
            raise TruncatedFileError(f"entry {i}: truncated utterance id")
        try:
            utt_id = blob[off + 1 : end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FeatureFileError(f"entry {i}: utterance id is not valid utf-8: {exc}") from exc
        if utt_id in out:
            raise FeatureFileError(f"entry {i}: duplicate utterance id {utt_id!r}")
        try:
            out[utt_id], off = _parse_record(blob, end)
        except FeatureFileError as exc:
            raise type(exc)(f"entry {i} ({utt_id!r}): {exc}") from exc
    if off != len(blob):
        raise FeatureFileError(f"trailing bytes after the last of {count} entries")
    return out


def read_wav(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file at SAMPLE_RATE."""
    with wave.open(str(path), "rb") as wf:
        if wf.getnchannels() != 1:
            raise ValueError(f"expected mono WAV, got {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise ValueError(f"expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
        if wf.getframerate() != SAMPLE_RATE:
            raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz audio, "
                             f"got {wf.getframerate()} Hz")
        raw = wf.readframes(wf.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioBuffer(samples)


def write_wav(path, audio: AudioBuffer):
    pcm = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())
