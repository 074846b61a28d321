"""Desk-scale toolkit for integrating self-supervised speech representations
into hybrid ASR systems: feature fusion, frame-level joint decoding, and
multi-pass N-best rescoring, plus the supporting encoder, CTC, acoustic
model, and articulatory inversion machinery."""

__version__ = "0.1.0"
