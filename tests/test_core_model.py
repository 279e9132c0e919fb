"""Tests for the assembled RETIA model and its ablation switches."""

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.graph import TemporalKG


def tiny_graph():
    facts = [
        (0, 0, 1, 0),
        (1, 1, 2, 0),
        (2, 0, 3, 1),
        (0, 0, 1, 1),
        (3, 1, 4, 2),
        (0, 1, 2, 2),
        (1, 0, 3, 3),
        (0, 0, 1, 3),
    ]
    return TemporalKG(facts, num_entities=5, num_relations=2)


def make_model(**overrides):
    defaults = dict(
        num_entities=5,
        num_relations=2,
        dim=8,
        history_length=2,
        num_kernels=4,
        seed=0,
    )
    defaults.update(overrides)
    return RETIA(RETIAConfig(**defaults))


class TestConfigValidation:
    def test_bad_relation_mode(self):
        with pytest.raises(ValueError):
            RETIAConfig(5, 2, relation_mode="bogus")

    def test_bad_hyper_mode(self):
        with pytest.raises(ValueError):
            RETIAConfig(5, 2, hyper_mode="bogus")

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            RETIAConfig(5, 2, lambda_entity=1.5)

    def test_bad_history(self):
        with pytest.raises(ValueError):
            RETIAConfig(5, 2, history_length=0)

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize("field", ["num_entities", "num_relations", "dim", "num_kernels"])
    def test_degenerate_sizes_rejected(self, field, size):
        sizes = dict(num_entities=5, num_relations=2, dim=8, num_kernels=4)
        sizes[field] = size
        with pytest.raises(ValueError, match=field):
            RETIAConfig(**sizes)


class TestEvolve:
    def test_shapes_per_step(self):
        model = make_model().eval()
        graph = tiny_graph()
        history = [graph.snapshot(0), graph.snapshot(1)]
        entity_list, relation_list = model.evolve(history)
        assert len(entity_list) == 2
        assert entity_list[0].shape == (5, 8)
        assert relation_list[0].shape == (4, 8)  # 2M x d

    def test_empty_history_returns_initial(self):
        model = make_model().eval()
        entity_list, relation_list = model.evolve([])
        assert len(entity_list) == 1
        # Initial entities are L2-normalised rows.
        np.testing.assert_allclose(
            np.linalg.norm(entity_list[0].data, axis=1), np.ones(5), atol=1e-9
        )

    def test_embeddings_change_over_time(self):
        model = make_model().eval()
        graph = tiny_graph()
        entity_list, relation_list = model.evolve([graph.snapshot(0), graph.snapshot(1)])
        assert not np.allclose(entity_list[0].data, entity_list[1].data)
        assert not np.allclose(relation_list[0].data, relation_list[1].data)


class TestAblationSwitches:
    def test_wo_eam_freezes_entities(self):
        model = make_model(use_eam=False).eval()
        graph = tiny_graph()
        entity_list, _ = model.evolve([graph.snapshot(0), graph.snapshot(1)])
        np.testing.assert_array_equal(entity_list[0].data, entity_list[1].data)

    def test_wo_ram_freezes_relations(self):
        model = make_model(relation_mode="none").eval()
        graph = tiny_graph()
        _, relation_list = model.evolve([graph.snapshot(0), graph.snapshot(1)])
        np.testing.assert_array_equal(relation_list[0].data, relation_list[1].data)
        np.testing.assert_array_equal(relation_list[0].data, model.relation_embedding.data)

    def test_mp_mode_relations_are_entity_pools(self):
        model = make_model(relation_mode="mp").eval()
        graph = tiny_graph()
        entity_list, relation_list = model.evolve([graph.snapshot(0)])
        # Relations with no incident entities pool to zero.
        snap = graph.snapshot(0)
        incident = set(snap.relation_entity_pairs[1].tolist())
        for rel in range(4):
            if rel not in incident:
                np.testing.assert_allclose(relation_list[0].data[rel], np.zeros(8))

    def test_mp_lstm_skips_ram(self):
        """mp_lstm and full differ exactly by the RAM aggregation."""
        a = make_model(relation_mode="mp_lstm", seed=3).eval()
        b = make_model(relation_mode="full", seed=3).eval()
        graph = tiny_graph()
        _, rel_a = a.evolve([graph.snapshot(0)])
        _, rel_b = b.evolve([graph.snapshot(0)])
        assert not np.allclose(rel_a[0].data, rel_b[0].data)

    def test_wo_tim_uses_disconnected_relations(self):
        model = make_model(use_tim=False).eval()
        graph = tiny_graph()
        entity_list, relation_list = model.evolve([graph.snapshot(0)])
        assert entity_list[0].shape == (5, 8)
        assert relation_list[0].shape == (4, 8)

    def test_hyper_modes_differ(self):
        graph = tiny_graph()
        outs = {}
        for mode in ("none", "hmp", "full"):
            model = make_model(hyper_mode=mode, seed=5).eval()
            _, relation_list = model.evolve([graph.snapshot(0), graph.snapshot(1)])
            outs[mode] = relation_list[-1].data
        assert not np.allclose(outs["none"], outs["full"])
        assert not np.allclose(outs["hmp"], outs["full"])

    def test_time_variability_off_uses_last_only(self):
        model = make_model(time_variability=False).eval()
        graph = tiny_graph()
        model.set_history(graph)
        scores = model.predict_entities(np.array([[0, 0]]), ts=2)
        assert scores.shape == (1, 5)
        # Probabilities from a single snapshot sum to ~1 per row.
        np.testing.assert_allclose(scores.sum(axis=1), [1.0], atol=1e-9)

    def test_time_variability_on_sums_k_snapshots(self):
        model = make_model(history_length=2).eval()
        graph = tiny_graph()
        model.set_history(graph)
        scores = model.predict_entities(np.array([[0, 0]]), ts=3)
        np.testing.assert_allclose(scores.sum(axis=1), [2.0], atol=1e-9)


class TestPredictionInterface:
    def test_predict_entities_shape(self):
        model = make_model().eval()
        model.set_history(tiny_graph())
        queries = np.array([[0, 0], [1, 3]])  # includes inverse relation id
        scores = model.predict_entities(queries, ts=3)
        assert scores.shape == (2, 5)

    def test_predict_relations_shape(self):
        model = make_model().eval()
        model.set_history(tiny_graph())
        scores = model.predict_relations(np.array([[0, 1]]), ts=3)
        assert scores.shape == (1, 2)  # M candidates

    def test_prediction_deterministic_in_eval(self):
        model = make_model().eval()
        model.set_history(tiny_graph())
        queries = np.array([[0, 0]])
        np.testing.assert_array_equal(
            model.predict_entities(queries, 3), model.predict_entities(queries, 3)
        )

    def test_predict_uses_only_past(self):
        """Scores at time t must not change when facts at t are revealed
        only afterwards (no leakage)."""
        model = make_model().eval()
        graph = tiny_graph()
        model.set_history(TemporalKG(graph.facts[graph.facts[:, 3] < 2], 5, 2))
        before = model.predict_entities(np.array([[0, 0]]), ts=2)
        model.record_snapshot(graph.snapshot(3))  # future info
        after = model.predict_entities(np.array([[0, 0]]), ts=2)
        np.testing.assert_array_equal(before, after)

    def test_observe_records(self):
        model = make_model()
        graph = tiny_graph()
        model.set_history(TemporalKG(graph.facts[graph.facts[:, 3] < 2], 5, 2))
        assert len(model.history_before(5)) == 2
        model.observe(graph.snapshot(2))
        assert model.history_before(5)[-1].time == 2

    def test_history_window_clipped_to_k(self):
        model = make_model(history_length=2)
        model.set_history(tiny_graph())
        history = model.history_before(3)
        assert [s.time for s in history] == [1, 2]

    def test_cache_invalidated_by_observe(self):
        model = make_model().eval()
        graph = tiny_graph()
        model.set_history(TemporalKG(graph.facts[graph.facts[:, 3] < 2], 5, 2))
        before = model.predict_entities(np.array([[0, 0]]), ts=3)
        model.observe(graph.snapshot(2))  # extends history before t=3
        after = model.predict_entities(np.array([[0, 0]]), ts=3)
        assert not np.array_equal(before, after)


class TestLoss:
    def test_loss_finite_and_bounded_below(self):
        model = make_model()
        graph = tiny_graph()
        model.set_history(graph)
        joint, loss_e, loss_r = model.loss_on_snapshot(graph.snapshot(2))
        # Eq. 13-14 sum k per-snapshot probabilities, so each loss term is
        # bounded below by -log(k) (here k = history_length = 2), not 0.
        lower = -np.log(model.config.history_length)
        for value in (joint.item(), loss_e.item(), loss_r.item()):
            assert np.isfinite(value)
            assert value >= lower

    def test_joint_is_lambda_mix(self):
        model = make_model().eval()
        graph = tiny_graph()
        model.set_history(graph)
        joint, loss_e, loss_r = model.loss_on_snapshot(graph.snapshot(2))
        lam = model.config.lambda_entity
        assert joint.item() == pytest.approx(lam * loss_e.item() + (1 - lam) * loss_r.item())

    def test_loss_backward_reaches_all_submodules(self):
        model = make_model()
        graph = tiny_graph()
        model.set_history(graph)
        joint, _, _ = model.loss_on_snapshot(graph.snapshot(2))
        joint.backward()
        for name, param in model.named_parameters():
            if name.startswith("eam_relation"):
                continue  # only used when the TIM is ablated
            assert param.grad is not None, f"no gradient for {name}"

    def test_gradient_descent_reduces_loss(self):
        from repro.nn import Adam

        model = make_model(seed=11)
        graph = tiny_graph()
        model.set_history(graph)
        optimizer = Adam(model.parameters(), lr=5e-3)
        snapshot = graph.snapshot(2)

        model.eval()  # disable dropout so the comparison is exact
        first = model.loss_on_snapshot(snapshot)[0].item()
        for _ in range(8):
            joint, _, _ = model.loss_on_snapshot(snapshot)
            optimizer.zero_grad()
            joint.backward()
            optimizer.step()
        last = model.loss_on_snapshot(snapshot)[0].item()
        assert last < first
