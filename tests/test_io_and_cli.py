"""Tests for checkpoint/TSV persistence and the CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import RETIA, RETIAConfig
from repro.graph import TemporalKG
from repro.io import (
    TKGFormatError,
    load_checkpoint,
    load_tkg_tsv,
    save_checkpoint,
    save_tkg_tsv,
)


def tiny_graph():
    facts = [(0, 0, 1, 0), (1, 1, 2, 1), (2, 0, 3, 2)]
    return TemporalKG(facts, num_entities=4, num_relations=2, granularity="24 hours")


class TestCheckpoint:
    def test_roundtrip_state(self, tmp_path):
        config = RETIAConfig(num_entities=4, num_relations=2, dim=8, num_kernels=4)
        model = RETIA(config)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, model.state_dict(), config)
        state, config_dict = load_checkpoint(path)
        rebuilt = RETIA(RETIAConfig(**config_dict))
        rebuilt.load_state_dict(state)
        np.testing.assert_array_equal(
            rebuilt.entity_embedding.data, model.entity_embedding.data
        )

    def test_blob_with_retired_switches_loads_onto_the_one_path(self, tmp_path):
        # Checkpoints written by the reference-path CI leg carry
        # fused_cells/batched_decoder = false in their config blob.
        config = RETIAConfig(num_entities=4, num_relations=2, dim=8, num_kernels=4)
        model = RETIA(config)
        blob = dict(dataclasses.asdict(config), fused_cells=False, batched_decoder=False)
        path = str(tmp_path / "old.npz")
        save_checkpoint(path, model.state_dict(), blob)
        state, config_dict = load_checkpoint(path)
        assert config_dict["fused_cells"] is False
        rebuilt = RETIA(RETIAConfig(**config_dict))
        rebuilt.load_state_dict(state)
        assert rebuilt.config == config
        queries = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        for m in (model, rebuilt):
            m.set_history(tiny_graph())
            m.eval()
        np.testing.assert_array_equal(
            rebuilt.predict_entities(queries, 3), model.predict_entities(queries, 3)
        )

    def test_config_optional(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.ones(3)})
        state, config = load_checkpoint(path)
        assert config is None
        np.testing.assert_array_equal(state["w"], np.ones(3))

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_checkpoint(str(tmp_path / "x.npz"), {"__config_json__": np.ones(1)})

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "ckpt.npz")
        save_checkpoint(path, {"w": np.zeros(1)})
        assert os.path.exists(path)

    def test_plain_dict_config(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, {"w": np.zeros(1)}, config={"dim": 8})
        _, config = load_checkpoint(path)
        assert config == {"dim": 8}

    def test_missing_suffix_normalised_and_returned(self, tmp_path):
        # np.savez silently appends .npz; the wrapper must report where
        # the file actually landed instead of a phantom path.
        requested = str(tmp_path / "ckpt")
        written = save_checkpoint(requested, {"w": np.ones(2)})
        assert written == requested + ".npz"
        assert os.path.exists(written)
        state, _ = load_checkpoint(written)
        np.testing.assert_array_equal(state["w"], np.ones(2))

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        save_checkpoint(str(tmp_path / "ckpt.npz"), {"w": np.zeros(3)})
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]


class TestTSV:
    def test_roundtrip(self, tmp_path):
        graph = tiny_graph()
        path = str(tmp_path / "graph.tsv")
        save_tkg_tsv(path, graph)
        loaded = load_tkg_tsv(path)
        np.testing.assert_array_equal(loaded.facts, graph.facts)
        assert loaded.num_entities == 4
        assert loaded.num_relations == 2
        assert loaded.granularity == "24 hours"

    def test_vocab_inferred_without_header(self, tmp_path):
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t1\t5\t0\n")
        loaded = load_tkg_tsv(path)
        assert loaded.num_entities == 6
        assert loaded.num_relations == 2

    def test_explicit_vocab_overrides(self, tmp_path):
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t1\t0\n")
        loaded = load_tkg_tsv(path, num_entities=10, num_relations=3)
        assert loaded.num_entities == 10

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t1\t0\n0\t1\t2\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 2
        assert "4 tab-separated columns" in str(excinfo.value)
        assert path in str(excinfo.value)

    def test_non_integer_field_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=4 relations=2\n0\tfoo\t1\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 2

    def test_entity_id_out_of_declared_range(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=4 relations=2\n0\t0\t9\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert "entity id 9" in str(excinfo.value)

    def test_relation_id_out_of_explicit_range(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t5\t1\t0\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path, num_entities=10, num_relations=3)
        assert "relation id 5" in str(excinfo.value)

    def test_negative_id_rejected(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("0\t0\t-1\t0\n")
        with pytest.raises(TKGFormatError):
            load_tkg_tsv(path)

    def test_malformed_header_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("# entities=lots relations=2\n")
        with pytest.raises(TKGFormatError) as excinfo:
            load_tkg_tsv(path)
        assert excinfo.value.line_number == 1

    def test_inferred_vocab_unchanged_by_validation(self, tmp_path):
        # No declared vocab: ids are inferred, never range-checked.
        path = str(tmp_path / "raw.tsv")
        with open(path, "w") as fh:
            fh.write("0\t1\t5\t0\n")
        assert load_tkg_tsv(path).num_entities == 6


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ICEWS14" in out
        assert "#Entities" in out

    def test_datasets_json_format_parses(self, capsys):
        assert main(["datasets", "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "ICEWS14" in stats
        assert stats["YAGO"]["#Entities"] > 0

    def test_report_json_format_round_trips(self, tmp_path, capsys):
        from repro.obs import RunReporter, read_events, summarize_run

        path = str(tmp_path / "run.jsonl")
        with RunReporter(path) as reporter:
            reporter.emit("run_start", schema_version=1, command="t", config={"dim": 8})
            reporter.emit(
                "epoch", epoch=1, loss_joint=1.5, loss_entity=1.0, loss_relation=0.5,
                lr=0.001, nonfinite_skips=0, batches=4, global_batch=4, seconds=0.2,
                phase_seconds={"evolve": {"seconds": 0.1, "calls": 4}}, spans_open=0,
            )
            reporter.emit("run_end", status="completed", epochs_completed=1)
        assert main(["report", path, "--format", "json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(
            json.dumps(summarize_run(read_events(path)), sort_keys=True)
        )

    def test_report_on_zero_byte_file_fails_readably(self, tmp_path, capsys):
        # A run killed before its first flush leaves a zero-byte report;
        # `report` must say what is wrong, not crash or print an empty
        # summary with exit 0.
        path = str(tmp_path / "empty.jsonl")
        with open(path, "wb"):
            pass
        assert main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "contains no events" in err
        assert path in err

    def test_hypergraph_command(self, capsys):
        assert main(["hypergraph", "--dataset", "YAGO", "--time", "2"]) == 0
        out = capsys.readouterr().out
        assert "hyperedges" in out

    def test_evaluate_rejects_configless_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "bad.npz")
        save_checkpoint(path, {"w": np.zeros(1)})
        assert main(["evaluate", "--dataset", "YAGO", "--checkpoint", path]) == 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "FREEBASE"])

    def test_resume_requires_checkpoint_dir(self, capsys):
        assert main(["train", "--dataset", "YAGO", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option, named",
        [
            (["train"], ["--dim", "0"], "dim"),
            (["train"], ["--kernels", "0"], "num_kernels"),
            (["train"], ["--history", "0"], "history_length"),
            (["evaluate", "--checkpoint", "absent.npz"], ["--scorer", "bogus"], "'bogus'"),
            (["diagnose", "--checkpoint", "absent.npz"], ["--scorer", "bogus"], "'bogus'"),
            (["bench", "--component", "scale", "--dry-run"], ["--scorer", "bogus"], "'bogus'"),
        ],
        ids=[
            "train-dim",
            "train-kernels",
            "train-history",
            "evaluate-scorer",
            "diagnose-scorer",
            "bench-scorer",
        ],
    )
    def test_bad_size_or_scorer_is_a_usage_error(self, capsys, command, option, named):
        assert main(command + ["--dataset", "YAGO"] + option) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert named in err[0]

    def test_drill_nan_loss(self, capsys):
        assert main(
            ["drill", "--dataset", "YAGO", "--fault", "nan-loss",
             "--at-batch", "2", "--epochs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "parameters finite: True" in out
