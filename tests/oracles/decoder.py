"""Per-snapshot decode loop: the oracle for RETIA's batched decoder.

RETIA decodes each query against every one of the k evolved snapshots
and sums the per-snapshot Conv-TransE probabilities (Eq. 11-14).  The
model does that in one stacked ``probabilities_multi`` pass and the
frozen-window decode sums the ``(T, B, C)`` stack over its first axis.
The oracle is the loop it replaced: one ``ConvTransE.probabilities``
call per snapshot, returned as a list (the training loss then sums it
through the list branch of ``nll_of_summed_probs``) and summed for
prediction in snapshot order.
"""

import numpy as np

from repro.autograd import no_grad
from repro.core import RETIA
from repro.scale import snapshot as frozen_window


def _window(model, entity_list, relation_list):
    if not model.config.time_variability:
        return entity_list[-1:], relation_list[-1:]
    return entity_list, relation_list


def entity_probabilities(model, entity_list, relation_list, queries):
    """One ``(B, N)`` entity probability tensor per historical snapshot."""
    queries = np.asarray(queries, dtype=np.int64)
    probs = []
    for entity, relation in zip(*_window(model, entity_list, relation_list)):
        subj = entity.gather_rows(queries[:, 0])
        rel = relation.gather_rows(queries[:, 1])
        probs.append(model.entity_decoder.probabilities(subj, rel, entity))
    return probs


def relation_probabilities(model, entity_list, relation_list, pairs):
    """One ``(B, M)`` relation probability tensor per historical snapshot."""
    pairs = np.asarray(pairs, dtype=np.int64)
    m = model.config.num_relations
    probs = []
    for entity, relation in zip(*_window(model, entity_list, relation_list)):
        subj = entity.gather_rows(pairs[:, 0])
        obj = entity.gather_rows(pairs[:, 1])
        probs.append(model.relation_decoder.probabilities(subj, obj, relation[:m]))
    return probs


def sum_probs(probs):
    """Sequential sum ``((p_0 + p_1) + p_2) + ...`` of per-snapshot probabilities."""
    total = probs[0].data.copy()
    for p in probs[1:]:
        total += p.data
    return total


def _dense_decode(probabilities, fast):
    def score(model, snapshot, rows, scorer=None):
        if scorer is not None:
            return fast(model, snapshot, rows, scorer=scorer)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        entity_list, relation_list = snapshot.tensors()
        with frozen_window._eval_mode(model), no_grad(), model._dtype_policy:
            return sum_probs(probabilities(model, entity_list, relation_list, rows))

    return score


def install(monkeypatch):
    """Route every RETIA decode — training loss, ``predict_entities``
    and ``predict_relations`` — through the per-snapshot loop."""
    monkeypatch.setattr(RETIA, "_entity_probabilities", entity_probabilities)
    monkeypatch.setattr(RETIA, "_relation_probabilities", relation_probabilities)
    monkeypatch.setattr(
        frozen_window,
        "score_entities",
        _dense_decode(entity_probabilities, frozen_window.score_entities),
    )
    monkeypatch.setattr(
        frozen_window,
        "score_relations",
        _dense_decode(relation_probabilities, frozen_window.score_relations),
    )
