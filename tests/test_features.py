import struct
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslasr import container
from sslasr.container import ContainerError
from sslasr.ctc import PosteriorStream
from sslasr.features import (
    AudioBuffer,
    FBANK_FLOOR,
    FBANK_MELS,
    HAMMING,
    FeatureMatrix,
    FrameCountMismatchError,
    compute_fbank,
    fuse_features,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    read_features,
    read_wav,
    write_features,
    write_wav,
)
from sslasr.params import ParameterStore
from sslasr.pipeline import read_streams, write_streams

from containers import container_blob, entry, reader_fuzz
from oracles import reference_fbank


def tone(freq, n, amp=0.5):
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * np.arange(n) / 16000))


class TestComputeFbank:
    def test_single_window_frame_count(self):
        feats = compute_fbank(tone(440.0, 400))
        assert feats.data.shape == (1, 40)

    def test_zero_audio_hits_floor(self):
        feats = compute_fbank(AudioBuffer(np.zeros(800)))
        assert np.allclose(feats.data, np.log(FBANK_FLOOR))

    def test_pure_tone_peaks_at_nearest_mel_center(self):
        # oracle: mel filter centers computed from first principles
        edges = np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), FBANK_MELS + 2)
        centers_hz = mel_to_hz(edges[1:-1])
        expected_bin = int(np.argmin(np.abs(centers_hz - 1000.0)))
        feats = compute_fbank(tone(1000.0, 4000))
        assert np.all(np.argmax(feats.data, axis=1) == expected_bin)

    def test_too_short_audio_raises(self):
        with pytest.raises(ValueError, match="shorter than one"):
            compute_fbank(tone(440.0, 399))

    @given(n=st.integers(min_value=400, max_value=12_000))
    @settings(max_examples=25, deadline=None)
    def test_frame_count_formula(self, n):
        feats = compute_fbank(tone(300.0, n))
        assert feats.n_frames == (n - 400) // 160 + 1

    @given(n=st.integers(400, 4000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    @example(n=400, seed=0)
    @example(n=7040, seed=0)  # a test-set utterance
    def test_equals_index_gather_reference(self, n, seed):
        samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        feats = compute_fbank(AudioBuffer(samples))
        assert feats.data.tobytes() == reference_fbank(samples).astype(np.float32).tobytes()
        assert not HAMMING.flags.writeable  # one window shared by every call

    def test_filterbank_covers_all_filters(self):
        weights, centers = mel_filterbank()
        assert weights.shape == (40, 257)
        assert (weights.max(axis=1) > 0).all()
        assert len(centers) == 40
        # built once and shared, so read-only
        assert mel_filterbank()[0] is weights
        assert not weights.flags.writeable and not centers.flags.writeable


class TestFuseFeatures:
    def test_widths_add_and_rows_truncate(self):
        rng = np.random.default_rng(1)
        fbk = FeatureMatrix(rng.normal(size=(100, 40)))
        bn = FeatureMatrix(rng.normal(size=(99, 256)))
        fused = fuse_features([fbk, bn])
        assert fused.data.shape == (99, 296)

    def test_two_frame_mismatch_truncates(self):
        rng = np.random.default_rng(4)
        a = FeatureMatrix(rng.normal(size=(12, 2)))
        b = FeatureMatrix(rng.normal(size=(10, 3)))
        assert fuse_features([a, b]).data.shape == (10, 5)

    def test_three_frame_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        fbk = FeatureMatrix(rng.normal(size=(100, 40)))
        bn = FeatureMatrix(rng.normal(size=(97, 8)))
        with pytest.raises(FrameCountMismatchError, match=r"\[100, 97\]"):
            fuse_features([fbk, bn])
        assert issubclass(FrameCountMismatchError, ValueError)
        assert not issubclass(FrameCountMismatchError, ContainerError)

    def test_single_stream_unchanged(self):
        f = FeatureMatrix(np.random.default_rng(3).normal(size=(4, 2)))
        fused = fuse_features([f])
        assert np.array_equal(fused.data, f.data)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse_features([])


class TestFeatureFile:
    @given(
        t=st.integers(1, 8),
        d=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_bit_exact(self, t, d, tmp_path_factory):
        rng = np.random.default_rng(t * 101 + d)
        f = FeatureMatrix(rng.normal(size=(t, d)).astype(np.float32))
        path = tmp_path_factory.mktemp("ff") / "m.sff"
        write_features(f, path)
        g = read_features(path)
        assert np.array_equal(f.data, g.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sff"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ContainerError, match="magic"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.sff"
        write_features(FeatureMatrix(np.ones((3, 4))), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ContainerError, match="payload"):
            read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "trail.sff"
        write_features(FeatureMatrix(np.ones((1, 1))), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ContainerError, match="trailing"):
            read_features(path)

    def test_stored_as_float64(self, tmp_path):
        path = tmp_path / "m.sff"
        f = FeatureMatrix(np.array([[0.1, -2.5]], dtype=np.float32))
        write_features(f, path)
        (data,) = container.read(path, "utterance id").values()
        assert data.dtype == np.float64 and np.array_equal(data, f.data)

    @pytest.mark.parametrize("n", [0, 2])
    def test_one_matrix_per_file(self, n, tmp_path):
        path = tmp_path / "set.sfa"
        container.write(path, [(f"u{i}", np.ones((1, 1))) for i in range(n)], "utterance id")
        with pytest.raises(ContainerError, match=f"holds one matrix, this one {n}"):
            read_features(path)


def load_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob.sff"
        path.write_bytes(blob)
        return read_features(path)


def sff_blob(rows, cols, name=b"", payload=None):
    """A feature file: one float64 ``rows`` x ``cols`` entry."""
    return container_blob([entry(name, (rows, cols), payload)])


VALID_BLOB = sff_blob(3, 2, payload=np.arange(6, dtype="<f8").tobytes())


class TestFeatureFileRobustness:
    (test_every_truncation_is_named, test_bit_flip_loads_or_is_named,
     test_random_blob_loads_or_is_named) = reader_fuzz(VALID_BLOB, load_blob)

    def test_valid_blob_loads(self):
        f = load_blob(VALID_BLOB)
        assert f.data.shape == (3, 2)
        assert np.array_equal(f.data.ravel(), np.arange(6))

    @pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (0, 0)])
    def test_empty_matrix(self, rows, cols):
        with pytest.raises(ContainerError, match="T x D"):
            load_blob(sff_blob(rows, cols))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload(self, value):
        payload = np.array([1.0, value], dtype="<f8").tobytes()
        with pytest.raises(ContainerError, match="non-finite"):
            load_blob(sff_blob(1, 2, payload=payload))

    def test_float32_file_refused(self):
        """A feature file of the earlier float32 payload fails by entry."""
        blob = container_blob([entry(b"", (1, 2), bytes(8), itemsize=4)])
        with pytest.raises(ContainerError, match=r"entry 0 \(''\): payload of 4-byte items, "
                                                 r"expected float64 \(8-byte\)"):
            load_blob(blob)


def archive_blob(entries, count=None):
    """An archive of entry bytes whose header claims ``count`` of them
    (default: as many as there are)."""
    return container_blob(entries, count)


def load_archive_blob(blob):
    """Read ``blob`` as an archive; if it loads, check that writing what
    was read gives back the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blob.sfa"
        path.write_bytes(blob)
        archive = read_streams(path)
        write_streams(path, archive)
        assert path.read_bytes() == blob
        return archive


def log_softmax(x):
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


U1 = entry(b"u1", (3, 2), log_softmax(np.arange(6.0).reshape(3, 2)).tobytes())
VALID_ARCHIVE = archive_blob([U1, entry(b"u2", (1, 2), np.log([0.25, 0.75]).tobytes())])


class TestFeatureArchive:
    """The one archive of utterance matrices is the posterior-stream archive
    (``pipeline.write_streams``/``read_streams``) since feature archives
    went: a malformed one fails by name, and a read one writes back the
    same bytes."""

    (test_every_truncation_is_named, test_bit_flip_loads_or_is_named,
     test_random_blob_loads_or_is_named) = reader_fuzz(VALID_ARCHIVE, load_archive_blob)

    @given(
        shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(2, 4)), max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_bit_exact(self, shapes, tmp_path_factory):
        rng = np.random.default_rng(len(shapes))
        items = {f"utt{i}\u00e9": PosteriorStream(log_softmax(rng.normal(size=shape)))
                 for i, shape in enumerate(shapes)}
        path = tmp_path_factory.mktemp("fa") / "set.sfa"
        write_streams(path, items)
        back = read_streams(path)
        assert list(back) == list(items)
        for f, g in zip(items.values(), back.values()):
            assert f.logp.tobytes() == g.logp.tobytes() and g.logp.dtype == np.float64
            assert g.logp.flags.writeable  # a fresh array, not a view of the file's bytes

    def test_valid_blob_loads(self):
        archive = load_archive_blob(VALID_ARCHIVE)
        assert list(archive) == ["u1", "u2"]
        assert archive["u1"].logp.shape == (3, 2)

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            load_archive_blob(b"SFA1" + VALID_ARCHIVE[4:])

    def test_shifted_format_is_refused(self):
        """A file of the earlier layout, whose header held a frame shift
        after the count, fails on its magic."""
        blob = b"SNA1" + struct.pack("<II", 1, 10_000) + U1
        with pytest.raises(ContainerError, match="bad magic b'SNA1', expected b'SNA2'"):
            load_archive_blob(blob)

    def test_store_is_not_an_archive(self, tmp_path):
        path = tmp_path / "m.spm"
        ParameterStore({"lin.w": np.ones((2, 3))}).save(path)
        with pytest.raises(ContainerError, match=r"entry 0 \('lin.w'\): rows must "
                                                 r"log-sum-exp to 0"):
            read_streams(path)

    def test_truncated_header(self):
        with pytest.raises(ContainerError, match="archive header"):
            load_archive_blob(VALID_ARCHIVE[:6])

    def test_missing_entries(self):
        blob = archive_blob([U1], count=3)
        with pytest.raises(ContainerError, match="holds 1 of 3 entries"):
            load_archive_blob(blob)

    def test_truncated_id(self):
        blob = archive_blob([U1[:3]])
        with pytest.raises(ContainerError, match="entry 0: truncated utterance id"):
            load_archive_blob(blob)

    def test_truncated_record(self):
        with pytest.raises(ContainerError, match="entry 1 \\('u2'\\): payload"):
            load_archive_blob(VALID_ARCHIVE[:-3])

    def test_bad_record_names_its_entry(self):
        blob = archive_blob([U1, entry(b"u2", (1, 2), bytes(12), itemsize=6)])
        with pytest.raises(ContainerError, match="entry 1 \\('u2'\\): payload of 6-byte items"):
            load_archive_blob(blob)

    def test_non_utf8_id(self):
        with pytest.raises(ContainerError, match="entry 0: utterance id is not valid utf-8"):
            load_archive_blob(archive_blob([entry(b"\xff", (1, 1))]))

    def test_duplicate_id(self):
        blob = archive_blob([U1, U1])
        with pytest.raises(ContainerError, match="entry 1: duplicate utterance id 'u1'"):
            load_archive_blob(blob)

    def test_trailing_bytes(self):
        with pytest.raises(ContainerError, match="trailing bytes after the last of 2"):
            load_archive_blob(VALID_ARCHIVE + b"\x00")

    @pytest.mark.parametrize("utt_ids, message", [(["a", "a"], "duplicate utterance id"),
                                                  (["x" * 2**16], "longer than 65535")])
    def test_writer_rejects_unreadable_ids(self, utt_ids, message, tmp_path):
        # a dict cannot repeat an id, so the pairs go to the container writer
        logp = np.log([[0.5, 0.5]])
        with pytest.raises(ValueError, match=message):
            container.write(tmp_path / "bad.sfa", [(u, logp) for u in utt_ids], "utterance id")
        assert not any(tmp_path.iterdir())  # no partial file, no temporary left

    def test_writer_names_a_float32_entry(self, tmp_path):
        f = PosteriorStream(np.log([[0.5, 0.5]]))
        narrow = PosteriorStream(np.log([[0.5, 0.5]]))
        narrow.logp = narrow.logp.astype(np.float32)
        with pytest.raises(ValueError, match="utterance id 'b': float32 payload, the file "
                                             "holds float64"):
            write_streams(tmp_path / "bad.sfa", {"a": f, "b": narrow})
        assert not any(tmp_path.iterdir())  # no partial file, no temporary left


class TestWav:
    def test_round_trip(self, tmp_path):
        audio = tone(523.0, 1600)
        path = tmp_path / "t.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert np.abs(back.samples - audio.samples).max() < 1.0 / 32767

    def test_other_rate_rejected_by_name(self, tmp_path):
        path = tmp_path / "narrow.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(np.zeros(800, dtype="<i2").tobytes())
        with pytest.raises(ValueError) as err:
            read_wav(path)
        assert str(err.value) == f"{path}: expected 16000 Hz audio, got 8000 Hz"

    @pytest.mark.parametrize("channels, width, samples, message", [
        (None, 2, 0, "file does not start with RIFF id"),
        (1, 2, 0, "audio buffer must contain at least one sample"),
        (2, 2, 800, "expected mono WAV, got 2 channels"),
        (1, 1, 800, "expected 16-bit PCM, got 8-bit"),
    ], ids=["not-riff", "no-samples", "stereo", "8-bit"])
    def test_refusal_names_the_file(self, channels, width, samples, message, tmp_path):
        path = tmp_path / "bad.wav"
        if channels is None:
            path.write_bytes(b"not a wav file at all")
        else:
            with wave.open(str(path), "wb") as wf:
                wf.setnchannels(channels)
                wf.setsampwidth(width)
                wf.setframerate(16000)
                wf.writeframes(bytes(samples * channels * width))
        with pytest.raises(ValueError) as err:
            read_wav(path)
        assert str(err.value) == f"{path}: {message}"


class TestInvariants:
    def test_feature_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureMatrix(np.array([[1.0, np.nan]]))

    def test_feature_matrix_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((0, 3)))

    def test_audio_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([]))
