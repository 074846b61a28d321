"""Desk-scale toolkit for integrating self-supervised speech representations
into hybrid ASR systems: feature fusion, frame-level joint decoding, and
multi-pass N-best rescoring, plus the supporting encoder, CTC, acoustic
model, and articulatory inversion machinery."""

from .features import (
    AudioBuffer,
    FeatureMatrix,
    compute_fbank,
    fuse_features,
    read_features,
    read_wav,
    write_features,
    write_wav,
)
from .ctc import (
    NBestEntry,
    NBestList,
    PosteriorStream,
    TokenVocab,
    UnsatisfiableTargetError,
    ctc_forward_score,
    ctc_loss,
)

__all__ = [
    "AudioBuffer",
    "FeatureMatrix",
    "compute_fbank",
    "fuse_features",
    "read_features",
    "read_wav",
    "write_features",
    "write_wav",
    "NBestEntry",
    "NBestList",
    "PosteriorStream",
    "TokenVocab",
    "UnsatisfiableTargetError",
    "ctc_forward_score",
    "ctc_loss",
]

__version__ = "0.1.0"
