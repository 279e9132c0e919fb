"""Tests for the entity-axis scaling seam (repro.scale).

The load-bearing claims: blocked and top-k candidate scoring are
**bitwise** identical to the dense reference at any block size (the
einsum kernel's reduction order is blocking-invariant); memmap-backed
embedding stores round-trip through checkpoints, pickling and sharded
evaluation without changing a single bit; and the run-health gate
refuses reports that mix scoring strategies.
"""

import importlib.util
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import RETIA, RETIAConfig
from repro.datasets import SyntheticTKGConfig, generate_tkg
from repro.eval import evaluate_extrapolation
from repro.eval.metrics import ranks_from_scores
from repro.io import load_checkpoint, save_checkpoint
from repro.obs import RunReporter, read_events
from repro.parallel import evaluate_extrapolation_sharded
from repro.scale import (
    BlockedScorer,
    DenseScorer,
    EmbeddingStore,
    FrozenWindowModel,
    HistoryCandidateIndex,
    HistoryFilteredScorer,
    TopKScorer,
    get_scorer,
    select_topk,
)
from repro.scale import scorers
from repro.scale.scorers import DEFAULT_QUERY_BLOCK

_HEALTH_PATH = Path(__file__).resolve().parent.parent / "scripts" / "check_run_health.py"
_spec = importlib.util.spec_from_file_location("check_run_health_scale", _HEALTH_PATH)
check_run_health = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_run_health)


def random_problem(seed=0, snaps=2, unique=23, dim=6, candidates=37):
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(snaps, unique, dim))
    tables = [rng.normal(size=(candidates, dim)) for _ in range(snaps)]
    rows = 40
    inverse = rng.integers(0, unique, size=rows)
    targets = rng.integers(0, candidates, size=rows)
    mask = rng.random((rows, candidates)) < 0.2
    return queries, tables, targets, mask, inverse


def small_dataset(num_timestamps=12):
    config = SyntheticTKGConfig(
        num_entities=24,
        num_relations=4,
        num_timestamps=num_timestamps,
        events_per_step=18,
        base_pool_size=40,
        seed=7,
    )
    return generate_tkg(config).split((0.6, 0.15, 0.25))


def revealed_model(train, valid, seed=0, **overrides):
    params = dict(
        num_entities=24, num_relations=4, dim=8, history_length=2,
        num_kernels=4, seed=seed,
    )
    params.update(overrides)
    model = RETIA(RETIAConfig(**params))
    model.set_history(train)
    for ts in valid.timestamps:
        model.record_snapshot(valid.snapshot(int(ts)))
    model.eval()
    return model


@pytest.fixture(scope="module")
def splits():
    return small_dataset()


class TestBlockedBitIdentity:
    @pytest.mark.parametrize("qb,cb", [(1, 1), (5, 7), (23, 37), (64, 8192)])
    def test_scores_and_ranks_equal_dense_to_last_ulp(self, qb, cb):
        queries, tables, targets, mask, inverse = random_problem()
        dense, blocked = DenseScorer(), BlockedScorer(qb, cb)
        assert np.array_equal(
            blocked.sum_probs(queries, tables), dense.sum_probs(queries, tables)
        )
        for m in (None, mask):
            assert np.array_equal(
                blocked.ranks(queries, tables, targets, mask=m, inverse=inverse),
                dense.ranks(queries, tables, targets, mask=m, inverse=inverse),
            )

    def test_ranks_reproduce_the_reference_counting(self):
        queries, tables, targets, mask, inverse = random_problem(seed=3)
        dense = DenseScorer()
        scores = dense.sum_probs(queries, tables)[inverse]
        assert np.array_equal(
            dense.ranks(queries, tables, targets, mask=mask, inverse=inverse),
            ranks_from_scores(scores, targets, mask),
        )
        # Identity inverse: passing None must mean "one row per query".
        rows = queries.shape[1]
        assert np.array_equal(
            dense.ranks(queries, tables, targets[:rows], mask=mask[:rows]),
            ranks_from_scores(
                dense.sum_probs(queries, tables), targets[:rows], mask[:rows]
            ),
        )

    def test_topk_gold_ranks_equal_dense_on_randomized_models(self):
        for seed in range(3):
            queries, tables, targets, mask, inverse = random_problem(seed=seed)
            dense, topk = DenseScorer(), TopKScorer(k=5, query_block=9, candidate_block=11)
            assert np.array_equal(
                topk.ranks(queries, tables, targets, mask=mask, inverse=inverse),
                dense.ranks(queries, tables, targets, mask=mask, inverse=inverse),
            )

    def test_topk_selection_matches_full_sort(self):
        queries, tables, _, _, _ = random_problem(seed=5)
        scorer = TopKScorer(k=4, query_block=6)
        scores = DenseScorer().sum_probs(queries, tables)
        selected = scorer.topk(queries, tables)
        assert len(selected) == scores.shape[0]
        for row, picks in zip(scores, selected):
            reference = np.lexsort((np.arange(row.size), -row))[:4]
            assert np.array_equal(picks, reference)


def reference_sum_probs(queries, tables):
    """Whole-matrix oracle: one einsum, softmax over candidates, sum over T."""
    logits = np.stack([np.einsum("bd,cd->bc", q, c) for q, c in zip(queries, tables)])
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits.sum(axis=0)


class TestTileKernel:
    """The shared tile kernel against the whole-matrix oracle and ``dense``.

    A small ``WORKSPACE_BYTES`` forces tiles of a few rows, so the
    query/candidate blocks below do not divide the tile height.
    """

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("snaps", [1, 3])
    @pytest.mark.parametrize("budget_rows", [1, 3, 1000])
    def test_exact_across_dtypes_windows_and_tile_heights(
        self, monkeypatch, dtype, snaps, budget_rows
    ):
        queries, tables, targets, mask, _ = random_problem(seed=11, snaps=snaps, unique=23)
        queries = (queries * 8).astype(dtype)  # wide logits: exp underflow included
        tables = [t.astype(dtype) for t in tables]
        rng = np.random.default_rng(12)
        inverse = rng.integers(0, 4, size=len(targets))  # 40 rows over 4 queries
        inverse[:23] = np.arange(23)
        monkeypatch.setattr(
            scorers, "WORKSPACE_BYTES", budget_rows * snaps * 37 * np.dtype(dtype).itemsize
        )
        expected = reference_sum_probs(queries, tables)
        dense = DenseScorer()
        assert np.array_equal(dense.sum_probs(queries, tables), expected)
        masks = (None, mask)
        dense_ranks = [
            dense.ranks(queries, tables, targets, mask=m, inverse=inverse) for m in masks
        ]
        for m, ranks in zip(masks, dense_ranks):
            assert np.array_equal(ranks, ranks_from_scores(expected[inverse], targets, m))
        for scorer in (BlockedScorer(2, 5), BlockedScorer(4, 36), TopKScorer(3, 7, 10)):
            probs = scorer.sum_probs(queries, tables)
            assert probs.dtype == np.dtype(dtype) and np.array_equal(probs, expected)
            for m, ranks in zip(masks, dense_ranks):
                assert np.array_equal(
                    scorer.ranks(queries, tables, targets, mask=m, inverse=inverse), ranks
                )
            picks = scorer.topk(queries, tables, 4)
            assert [p.tolist() for p in picks] == [select_topk(r, 4).tolist() for r in expected]

    def test_ranks_count_in_the_working_dtype_like_float64(self):
        queries, tables, targets, mask, inverse = random_problem(seed=13)
        queries = queries.astype(np.float32)
        tables = [t.astype(np.float32) for t in tables]
        scores = DenseScorer().sum_probs(queries, tables)
        assert scores.dtype == np.float32
        for m in (None, mask):
            assert np.array_equal(
                DenseScorer().ranks(queries, tables, targets, mask=m, inverse=inverse),
                ranks_from_scores(scores[inverse].astype(np.float64), targets, m),
            )

    @pytest.mark.parametrize("scorer", [BlockedScorer(), DenseScorer()])
    def test_ranks_peak_allocation_is_workspace_sized(self, scorer):
        rng = np.random.default_rng(14)
        snaps, unique, candidates = 2, 128, 20000
        queries = rng.normal(size=(snaps, unique, 4))
        tables = [rng.normal(size=(candidates, 4)) for _ in range(snaps)]
        inverse = np.concatenate([np.arange(unique), rng.integers(0, unique, size=40)])
        targets = rng.integers(0, candidates, size=inverse.size)
        tracemalloc.start()
        try:
            scorer.ranks(queries, tables, targets, inverse=inverse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = snaps * DEFAULT_QUERY_BLOCK * candidates * 8  # one (T, QB, C) block
        assert peak <= scorers.WORKSPACE_BYTES + (1 << 20) < block_bytes // 8


class TestSelectTopK:
    def test_threshold_ties_resolved_by_smallest_index(self):
        scores = np.array([1.0, 3.0, 3.0, 2.0, 3.0, 0.5])
        assert np.array_equal(select_topk(scores, 3), [1, 2, 4])
        assert np.array_equal(select_topk(scores, 4), [1, 2, 4, 3])

    def test_k_bounds(self):
        scores = np.array([2.0, 1.0, 3.0])
        assert np.array_equal(select_topk(scores, 10), [2, 0, 1])
        assert select_topk(scores, 0).size == 0
        with pytest.raises(ValueError):
            select_topk(np.zeros((2, 2)), 1)


class TestGetScorer:
    def test_specs_round_trip(self):
        for spec in ("dense", "blocked", "blocked:16", "blocked:16:256",
                     "topk:5", "topk:5:16:256", "history:32"):
            scorer = get_scorer(spec)
            assert get_scorer(scorer) is scorer
            reparsed = get_scorer(scorer.spec())
            assert reparsed.spec() == scorer.spec()
        assert get_scorer("blocked").spec() == "blocked:128:8192"

    def test_legacy_and_none_mean_no_scorer(self):
        assert get_scorer(None) is None
        assert get_scorer("legacy") is None
        assert get_scorer("") is None

    @pytest.mark.parametrize("bad", ["nope", "topk", "blocked:1:2:3", "history", "topk:x"])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            get_scorer(bad)

    def test_exactness_contract(self):
        assert get_scorer("blocked").exact and get_scorer("topk:3").exact
        assert not get_scorer("history:8").exact
        assert get_scorer("history:8").needs_history


class TestEmbeddingStore:
    def test_roundtrip_backends_and_pickle(self, tmp_path):
        table = np.random.default_rng(1).normal(size=(12, 5))
        ram = EmbeddingStore.from_array(table)
        assert ram.backend == "ram" and ram.data is table

        saved = EmbeddingStore.save(str(tmp_path / "t.npy"), table)
        assert saved.backend == "memmap"
        assert np.array_equal(saved.data, table)
        assert isinstance(saved.data, np.memmap)

        reopened = EmbeddingStore.open(str(tmp_path / "t.npy"))
        clone = pickle.loads(pickle.dumps(reopened))
        assert clone._data is None  # path-only pickle: reopens lazily
        assert np.array_equal(clone.data, table)
        assert clone.shape == (12, 5)
        assert np.array_equal(clone.materialize(), table)

    def test_two_d_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            EmbeddingStore.from_array(np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingStore.save(str(tmp_path / "bad.npy"), np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingStore(array=np.zeros((2, 2)), path="both")


class TestCheckpointSidecars:
    def test_external_roundtrip_eager_and_mmap(self, tmp_path):
        table = np.random.default_rng(2).normal(size=(30, 4))
        state = {"embedding.weight": table, "bias": np.arange(3.0)}
        path = save_checkpoint(
            str(tmp_path / "ck.npz"), state, config={"dim": 4},
            external_dir=str(tmp_path), external_keys=("embedding.weight",),
        )
        eager, config = load_checkpoint(path)
        assert config == {"dim": 4}
        assert np.array_equal(eager["embedding.weight"], table)
        assert not isinstance(eager["embedding.weight"], np.memmap)

        lazy, _ = load_checkpoint(path, mmap_external=True)
        assert isinstance(lazy["embedding.weight"], np.memmap)
        assert np.array_equal(np.asarray(lazy["embedding.weight"]), table)
        assert np.array_equal(lazy["bias"], state["bias"])

    def test_missing_sidecar_and_missing_key_fail_loudly(self, tmp_path):
        state = {"w": np.zeros((2, 2))}
        path = save_checkpoint(
            str(tmp_path / "ck.npz"), state,
            external_dir=str(tmp_path), external_keys=("w",),
        )
        (tmp_path / "w.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(path)
        with pytest.raises(KeyError):
            save_checkpoint(
                str(tmp_path / "ck2.npz"), state,
                external_dir=str(tmp_path), external_keys=("absent",),
            )
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "ck3.npz"), state, external_keys=("w",))


class TestModelScorerSeam:
    def test_seam_strategies_reproduce_legacy_metrics(self, splits):
        train, valid, test = splits
        metrics = {}
        for spec in (None, "dense", "blocked:7:11", "topk:6:5"):
            model = revealed_model(train, valid)
            model.set_scorer(spec)
            result = evaluate_extrapolation(model, test, evaluate_relations=False)
            metrics[spec] = result.entity
        assert metrics["dense"] == metrics[None]
        assert metrics["blocked:7:11"] == metrics["dense"]
        assert metrics["topk:6:5"] == metrics["dense"]

    def test_history_budget_covering_vocab_is_exact(self, splits):
        train, valid, test = splits
        exact = revealed_model(train, valid)
        exact.set_scorer("dense")
        approx = revealed_model(train, valid)
        approx.set_scorer("history:1000")  # budget >= N: delegates to blocked
        assert (
            evaluate_extrapolation(approx, test, evaluate_relations=False).entity
            == evaluate_extrapolation(exact, test, evaluate_relations=False).entity
        )

    def test_small_history_budget_is_a_declared_approximation(self, splits):
        train, valid, test = splits
        model = revealed_model(train, valid)
        model.set_scorer("history:4")
        result = evaluate_extrapolation(model, test, evaluate_relations=False)
        assert np.isfinite(list(result.entity.values())).all()
        assert result.entity["MRR"] > 0

    def test_history_scorer_demands_query_ids(self):
        queries, tables, targets, _, _ = random_problem()
        scorer = HistoryFilteredScorer(budget=3)
        with pytest.raises(ValueError):
            scorer.ranks(queries, tables, targets[: queries.shape[1]])


class TestHistoryCandidateIndex:
    def test_frequency_then_recency_then_id_ordering(self, splits):
        train, valid, _ = splits
        index = HistoryCandidateIndex()
        snapshots = [train.snapshot(int(t)) for t in train.timestamps]
        index.record(snapshots, train.num_relations)
        # Idempotent: re-recording the same snapshots changes nothing.
        before = index.candidates(0, 0, 10).tolist()
        index.record(snapshots, train.num_relations)
        assert index.candidates(0, 0, 10).tolist() == before
        candidates = index.candidates(0, 0, 8)
        assert candidates.dtype == np.int64
        assert len(set(candidates.tolist())) == len(candidates) <= 8


class TestFrozenWindowModel:
    def test_memmap_and_ram_windows_are_bit_identical(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid)
        first_ts = int(test.timestamps[0])
        ram = FrozenWindowModel.freeze(model, first_ts)
        spilled = FrozenWindowModel.freeze(model, first_ts, spill_dir=str(tmp_path))
        assert {s.backend for s in ram.snapshot.entity_list} == {"ram"}
        assert {s.backend for s in spilled.snapshot.entity_list} == {"memmap"}
        ram_result = evaluate_extrapolation_sharded(ram, test, workers=1)
        mm_result = evaluate_extrapolation_sharded(spilled, test, workers=1)
        assert ram_result.entity == mm_result.entity
        assert ram_result.relation == mm_result.relation

    def test_sharded_workers_match_and_emit_scorer_telemetry(
        self, splits, tmp_path
    ):
        train, valid, test = splits
        model = revealed_model(train, valid)
        frozen = FrozenWindowModel.freeze(
            model, int(test.timestamps[0]), spill_dir=str(tmp_path), scorer=get_scorer("blocked:9:13")
        )
        report_path = str(tmp_path / "run.jsonl")
        reporter = RunReporter(report_path)
        try:
            serial = evaluate_extrapolation_sharded(frozen, test, workers=1)
            parallel = evaluate_extrapolation_sharded(
                frozen, test, workers=2, reporter=reporter
            )
        finally:
            reporter.close()
        assert serial.entity == parallel.entity
        workers = [e for e in read_events(report_path) if e["event"] == "worker"]
        assert workers and all(e.get("scorer") == "blocked:9:13" for e in workers)

    def test_frozen_respects_scorer_swap_and_predicts(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid)
        frozen = FrozenWindowModel.freeze(model, int(test.timestamps[0]))
        queries = np.array([[0, 1], [3, 2]])
        dense_probs = frozen.predict_entities(queries, ts=0)
        frozen.set_scorer("blocked:1:3")
        assert frozen.scorer.spec() == "blocked:1:3"
        assert np.array_equal(frozen.predict_entities(queries, ts=0), dense_probs)
        assert frozen.predict_relations(queries, ts=0).shape == (2, train.num_relations)


    def test_freezes_sharing_a_spill_dir_keep_their_own_tables(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid)
        first_ts, later_ts = int(test.timestamps[0]), int(test.timestamps[2])
        queries = np.array([[0, 1], [3, 2], [5, 4], [7, 0]])
        twin = FrozenWindowModel.freeze(model, first_ts)
        first = FrozenWindowModel.freeze(model, first_ts, spill_dir=str(tmp_path))
        for ts in test.timestamps[:2]:
            model.record_snapshot(test.snapshot(int(ts)))
        second = FrozenWindowModel.freeze(model, later_ts, spill_dir=str(tmp_path))
        expected = twin.predict_entities(queries, first_ts)
        # Memmaps open lazily and pool workers reopen them by path, so a
        # later freeze into the same directory must not touch the tables
        # the first window reads.
        shipped = pickle.loads(pickle.dumps(first))
        assert np.array_equal(first.predict_entities(queries, first_ts), expected)
        assert np.array_equal(shipped.predict_entities(queries, first_ts), expected)
        assert not np.array_equal(second.predict_entities(queries, later_ts), expected)
        # Same window version into the same directory: refused, not overwritten.
        with pytest.raises(FileExistsError):
            FrozenWindowModel.freeze(model, later_ts, spill_dir=str(tmp_path))

    @pytest.mark.parametrize("spec", ["dense", "blocked:3:5", "topk:5", "history:4"])
    def test_live_and_frozen_ranks_agree(self, splits, spec):
        train, valid, test = splits
        model = revealed_model(train, valid)
        model.set_scorer(spec)
        ts = int(test.timestamps[0])
        frozen = FrozenWindowModel.freeze(model, ts, scorer=get_scorer(spec))
        facts = test.snapshot(ts).triples
        queries = np.concatenate([facts[:, [0, 1]], facts[:, [2, 1]] + [0, train.num_relations]])
        targets = np.concatenate([facts[:, 2], facts[:, 0]])
        mask = np.random.default_rng(3).random((len(queries), train.num_entities)) < 0.2
        live = model.rank_entities(queries, targets, ts, mask=mask)
        assert np.array_equal(frozen.rank_entities(queries, targets, ts, mask=mask), live)

    def test_spilled_frozen_model_pickles_paths_only(self, splits, tmp_path):
        train, valid, test = splits
        model = revealed_model(train, valid, num_entities=4096)
        frozen = FrozenWindowModel.freeze(model, int(test.timestamps[0]), spill_dir=str(tmp_path))
        table = frozen.snapshot.entity_list[0]
        assert table.backend == "memmap"
        # Sharded eval ships the frozen model to every pool worker: the
        # tables must travel as paths, never as arrays.
        assert len(pickle.dumps(frozen)) < table.data.nbytes


class TestServeScorerSeam:
    def test_spilled_capture_scores_match_ram_capture(self, splits, tmp_path):
        from repro.serve import capture, score_entities

        train, valid, _ = splits
        model = revealed_model(train, valid)
        ts = int(valid.timestamps[-1]) + 1
        queries = np.array([[0, 1], [3, 0], [5, 2]], dtype=np.int64)
        ram_snapshot = capture(model, ts, version=1)
        spilled = capture(model, ts, version=2, spill_dir=str(tmp_path))
        assert (tmp_path / "entity_v2_t0.npy").exists()

        legacy = score_entities(model, ram_snapshot, queries)
        # The scorer seam (einsum kernel) is blocking-invariant: blocked
        # and dense agree bitwise, on RAM and memmap snapshots alike.
        dense = score_entities(model, ram_snapshot, queries, scorer="dense")
        blocked = score_entities(model, spilled, queries, scorer="blocked:2:5")
        assert np.array_equal(blocked, dense)
        # Against the legacy matmul path only sub-ulp rounding may differ.
        np.testing.assert_allclose(dense, legacy, rtol=1e-12, atol=1e-15)


class TestMixedScorerRefusal:
    def _events(self, specs):
        events = [{"event": "run_start", "seq": 0}]
        for i, spec in enumerate(specs):
            event = {"event": "worker", "seq": i + 1, "scope": "eval"}
            if spec is not None:
                event["scorer"] = spec
            events.append(event)
        return events

    def test_mixed_strategies_fail(self):
        problems = check_run_health.check_scorers(
            self._events(["dense", "topk:5:128:8192"])
        )
        assert len(problems) == 1 and "mixed candidate scoring" in problems[0]

    def test_uniform_or_absent_strategies_pass(self):
        assert check_run_health.check_scorers(self._events(["dense", "dense"])) == []
        assert check_run_health.check_scorers(self._events([None, None])) == []
        assert check_run_health.check_scorers(self._events(["dense", None])) == []
