"""Log-mel filterbank frontend, stream fusion, and feature files.

The frame contract: audio is 16 kHz (``SAMPLE_RATE``), and ``read_wav``
rejects a file at any other rate. The filterbank's window is 25 ms
(``FBANK_WIN``, 400 samples), as is the encoder's receptive field; the
encoder's 20 ms frames, doubled in rate by the bottleneck adapter, and the
filterbank's hop are all 10 ms (``FRAME_SHIFT_US``), so streams fuse frame
by frame. Nothing is resampled, and no stream or file carries its shift:
every ``FeatureMatrix`` is at ``FRAME_SHIFT_US``.

Features are computed from the models, never read from an archive. A
``FeatureMatrix`` stays float32: every trained acoustic model and every
hypothesis is made from features rounded to it. A feature file, kept
while benchmark metrics name ``write_features``/``read_features``, is a
container of one float64 matrix (``container``), read back as the same
float32 matrix; a malformed one raises ``container.ContainerError``.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import container

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


class FrameCountMismatchError(ValueError):
    """Streams to fuse differ in length too much."""


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
    """T x D frame features at FRAME_SHIFT_US, kept as float32."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"feature matrix must be T x D with T,D >= 1, got {self.data.shape}")
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
    return FeatureMatrix(logmel)


def fuse_features(streams) -> FeatureMatrix:
    """Truncate the streams of one utterance to the shortest and
    concatenate them along the feature axis.

    Streams of one utterance differ by at most a frame or two (conv
    arithmetic at the stream edges). A larger mismatch means they do not
    belong together and raises FrameCountMismatchError naming the lengths.
    """
    streams = list(streams)
    if not streams:
        raise ValueError("need at least one feature stream to fuse")
    lengths = [s.n_frames for s in streams]
    t_min = min(lengths)
    if max(lengths) - t_min > MAX_FUSE_MISMATCH:
        raise FrameCountMismatchError(
            f"streams of {lengths} frames: fusion needs streams within "
            f"{MAX_FUSE_MISMATCH} frames of each other"
        )
    return FeatureMatrix(np.concatenate([s.data[:t_min] for s in streams], axis=1))


def write_features(f: FeatureMatrix, path):
    """Write one matrix as a container of one float64 entry, named ""."""
    container.write(path, [("", f.data.astype(np.float64))], "utterance id")


def read_features(path) -> FeatureMatrix:
    """Read the matrix of a container of one entry, whatever its name."""
    arrays = container.read(path, "utterance id")
    if len(arrays) != 1:
        raise container.ContainerError("a feature file holds one matrix, "
                                       f"this one {len(arrays)}")
    ((name, data),) = arrays.items()
    try:
        with np.errstate(over="ignore"):  # past float32's range: inf, refused below
            return FeatureMatrix(data)
    except ValueError as exc:  # not T x D, or a non-finite payload
        raise container.ContainerError(f"entry 0 ({name!r}): {exc}") from None


def read_wav(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file at SAMPLE_RATE; any other file, or
    one of no samples, raises ValueError naming ``path``."""
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise ValueError(f"expected mono WAV, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise ValueError(f"expected 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
            if wf.getframerate() != SAMPLE_RATE:
                raise ValueError(f"expected {SAMPLE_RATE} Hz audio, got {wf.getframerate()} Hz")
            raw = wf.readframes(wf.getnframes())
        return AudioBuffer(np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0)
    except (wave.Error, EOFError, ValueError) as exc:  # not a WAV, or not one of these
        raise ValueError(f"{path}: {exc}") from None


def write_wav(path, audio: AudioBuffer):
    pcm = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())
