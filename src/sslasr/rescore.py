"""Cross-system multi-pass decoding: add second-pass CTC scores to a
first-pass N-best list and re-rank by the interpolated entry costs."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .ctc import NBestList, TokenVocab, _check_target, _ctc_costs
from .decoder import Hypothesis, check_weights


class RescoreError(ValueError):
    pass


def score_nbest_with_ssl(pairs, vocab: TokenVocab, system="w2v"):
    """Attach a CTC forward score to every entry of each (N-best list,
    SSL stream) pair.

    Every entry of every list is scored in log-semiring lattice passes
    over windows of pairs (``ctc._ctc_costs``), each list on its own
    stream; lists may differ in depth. Entries whose token sequence cannot
    be aligned in the stream get +inf cost and stay in the list. Returns an
    iterator over the scored lists in order; each is built as it is read,
    so a caller that rescores and drops them holds one at a time.
    """
    pairs = list(pairs)
    targets = [[_check_target(vocab.ids_of(e.tokens), stream.width) for e in nbest.entries]
               for nbest, stream in pairs]
    costs = _ctc_costs([stream.logp for _, stream in pairs], targets, np.logaddexp)
    return (NBestList(nbest.utt_id,
                      [replace(e, cost_per_system={**e.cost_per_system, system: float(c)})
                       for e, c in zip(nbest.entries, row)])
            for (nbest, _), row in zip(pairs, costs))


def _weighted(weight, cost):
    # a zero weight annihilates even an infinite cost, so degenerate
    # weights reduce exactly to the other system's ranking
    return 0.0 if weight == 0.0 else weight * cost


def rescore(nbest: NBestList, alpha, beta, second_system="w2v",
            first_system=None):
    """Re-rank by combined cost alpha * second + beta * first. The weights
    must be finite and nonnegative and one positive (``check_weights``);
    a zero weight leaves the other system's ranking.

    ``first_system`` defaults to the only non-second cost key when that is
    unambiguous. Ties keep the lower original rank. Returns (best entry,
    rescored list sorted by combined cost).
    """
    alpha, beta = map(float, check_weights([alpha, beta], 2, "rescoring weights alpha:beta"))
    if not nbest.entries:
        raise RescoreError("cannot rescore an empty n-best list")
    if first_system is None:
        keys = {k for e in nbest.entries for k in e.cost_per_system} - {second_system}
        if len(keys) != 1:
            raise RescoreError(
                f"ambiguous first-pass system, candidates {sorted(keys)}; pass first_system"
            )
        first_system = keys.pop()
    rescored = []
    for rank, entry in enumerate(nbest.entries):
        try:
            s_second = entry.cost_per_system[second_system]
            s_first = entry.cost_per_system[first_system]
        except KeyError as missing:
            raise RescoreError(
                f"entry {rank} of {nbest.utt_id!r} lacks a {missing} cost"
            ) from None
        combined = _weighted(alpha, s_second) + _weighted(beta, s_first)
        rescored.append((combined, rank, entry))
    rescored.sort(key=lambda item: (item[0], item[1]))
    entries = [replace(e, combined_cost=c) for c, _, e in rescored]
    out = NBestList(nbest.utt_id, entries)
    return entries[0], out


def rescore_hypotheses(nbests, ssl_streams, vocab: TokenVocab, alpha, beta):
    """The second-pass hypothesis of each first-pass N-best list: its
    entries scored on the utterance's SSL stream (``score_nbest_with_ssl``,
    lists and streams paired in order) and re-ranked by ``rescore``.
    Returns one hypothesis per list, in order, costed by combined cost."""
    hyps = []
    for scored in score_nbest_with_ssl(zip(nbests, ssl_streams), vocab):
        best, _ = rescore(scored, alpha, beta)
        hyps.append(Hypothesis(scored.utt_id, list(best.words), list(best.tokens),
                               best.combined_cost))
    return hyps
