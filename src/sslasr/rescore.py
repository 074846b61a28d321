"""Cross-system multi-pass decoding: score a first-pass N-best list's
entries on the utterance's SSL-CTC stream and re-rank them by the
combined cost alpha * SSL cost + beta * first-pass cost."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .ctc import NBestList, TokenVocab, _check_target, _ctc_costs
from .decoder import Hypothesis, check_weights


class RescoreError(ValueError):
    pass


def score_nbest_with_ssl(nbests, ssl_streams, vocab: TokenVocab):
    """The (lists, depth) CTC forward costs of each N-best list's entries
    on its own SSL stream, lists and streams paired in order, scored in
    log-semiring lattice passes over windows of lists (``ctc._ctc_costs``).
    A shorter list's missing costs are +inf, as is the cost of an entry
    that cannot be aligned in its stream."""
    if len(nbests) != len(ssl_streams):
        raise RescoreError(f"{len(nbests)} n-best lists but {len(ssl_streams)} SSL streams")
    targets = [[_check_target(vocab.ids_of(e.tokens), stream.width) for e in nbest.entries]
               for nbest, stream in zip(nbests, ssl_streams)]
    return _ctc_costs([stream.logp for stream in ssl_streams], targets, np.logaddexp)


def _weighted(weight, cost):
    # a zero weight annihilates even an infinite cost, so degenerate
    # weights reduce exactly to the other pass's ranking
    return 0.0 if weight == 0.0 else weight * cost


def rescore(nbest: NBestList, ssl_costs, alpha, beta) -> NBestList:
    """Re-rank by combined cost alpha * ``ssl_costs[i]`` + beta * the
    first-pass cost of entry ``i``. The weights must be finite and
    nonnegative and one positive (``check_weights``); a zero weight leaves
    the other pass's ranking. Ties keep the lower original rank. Returns
    the re-ranked list, each entry costed by its combined cost."""
    alpha, beta = map(float, check_weights([alpha, beta], 2, "rescoring weights alpha:beta"))
    if not nbest.entries:
        raise RescoreError("cannot rescore an empty n-best list")
    if len(ssl_costs) < len(nbest.entries):
        raise RescoreError(f"{nbest.utt_id!r}: {len(nbest.entries)} entries but "
                           f"{len(ssl_costs)} SSL costs")
    combined = [_weighted(alpha, float(ssl)) + _weighted(beta, entry.cost)
                for entry, ssl in zip(nbest.entries, ssl_costs)]
    order = sorted(range(len(combined)), key=combined.__getitem__)  # stable: ties keep rank
    return NBestList(nbest.utt_id, [replace(nbest.entries[r], cost=combined[r]) for r in order])


def rescore_hypotheses(nbests, ssl_streams, vocab: TokenVocab, alpha, beta):
    """The second-pass hypothesis of each first-pass N-best list: its
    entries scored on the utterance's SSL stream (``score_nbest_with_ssl``,
    lists and streams paired in order) and re-ranked by ``rescore``.
    Returns one hypothesis per list, in order, costed by combined cost."""
    hyps = []
    for nbest, costs in zip(nbests, score_nbest_with_ssl(nbests, ssl_streams, vocab)):
        head = rescore(nbest, costs, alpha, beta).entries[0]
        hyps.append(Hypothesis(nbest.utt_id, list(head.words), list(head.tokens), head.cost))
    return hyps
