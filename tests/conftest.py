import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sslasr.config import load_config
from sslasr import pipeline

# fixed encoder settings for unit tests, set apart from DEFAULT_CONFIG so
# that their inputs do not follow it; the Gumbel temperature stays fixed
ENCODER = {"d_model": 64, "n_blocks": 2, "n_heads": 4, "groups": 2, "codebook_entries": 8,
           "code_dim": 16, "mask_prob": 0.065, "mask_span": 10,
           "contrastive_temperature": 0.1, "gumbel_temperature": 2.0,
           "gumbel_temperature_min": 2.0, "distractors": 5, "loss_weight_diversity": 0.1}


@pytest.fixture(scope="session")
def tiny_config():
    """Small, fast settings shared by the integration-flavored tests."""
    return load_config(overrides={
        "seed": 77,
        "corpus": {
            "n_words": 6,
            "unseen_fraction": 0.34,
            "n_speakers": 2,
            "train_reps": {"source": 2, "target": 1},
            "test_reps": {"source": 1, "target": 1},
        },
        "pretrain": {"epochs": 3},
        "finetune": {
            "adapter_init_epochs": 10,
            "stages": [
                {"epochs": 4, "scope": "head-only",
                 "optimizer": {"optimizer": "adam", "lr": 1e-2}},
                {"epochs": 6, "scope": "no-feature-encoder",
                 "optimizer": {"optimizer": "adam", "lr": 3e-3}},
            ],
        },
        "am": {"epochs": 4},
        "mdn": {"epochs": 30},
    })


@pytest.fixture(scope="session")
def tiny_corpus(tiny_config, tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny_corpus")
    pipeline.generate_corpus(root, tiny_config)
    return pipeline.Corpus(root)


@pytest.fixture(scope="session")
def tiny_models(tiny_config, tiny_corpus):
    """Pretrained + fine-tuned encoder and adapter on the tiny corpus."""
    model, _ = pipeline.pretrain_encoder(tiny_corpus, tiny_config)
    adapter, _ = pipeline.finetune_encoder(tiny_corpus, model, tiny_config)
    return model, adapter


def random_stream(t, v, rng):
    from sslasr.ctc import PosteriorStream

    logits = rng.normal(size=(t, v + 1))
    logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return PosteriorStream(logp)
