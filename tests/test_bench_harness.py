"""Lightweight tests for the benchmark harness (no model training)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import BENCH_PROFILES, DEFAULT_METHODS, format_table
from repro.bench.history import (
    HistoryError,
    append_entry,
    detect_regression,
    make_entry,
    read_history,
    summarize_history,
    write_summary,
)
from repro.bench.runner import METHOD_BUILDERS, ONLINE_METHODS
from repro.datasets import DATASET_PROFILES, SCALE_PROFILES


class TestRegistry:
    def test_every_default_method_has_builder(self):
        for method in DEFAULT_METHODS:
            assert method in METHOD_BUILDERS

    def test_profiles_cover_all_datasets(self):
        assert set(BENCH_PROFILES) == set(DATASET_PROFILES) | set(SCALE_PROFILES)

    def test_online_methods_follow_paper(self):
        # The paper reports CEN under the online setting and RETIA always
        # trains online during evaluation.
        assert ONLINE_METHODS == {"CEN", "RETIA"}

    def test_retia_last_in_table_order(self):
        assert DEFAULT_METHODS[-1] == "RETIA"

    def test_rgcrn_available_for_table7(self):
        assert "RGCRN" in METHOD_BUILDERS


class TestFormatTable:
    ROWS = [
        {"Method": "A", "MRR": 10.0, "Hits@1": 5.0},
        {"Method": "B", "MRR": 20.0, "Hits@1": 2.5},
    ]

    def test_contains_all_cells(self):
        text = format_table(self.ROWS, ["Method", "MRR", "Hits@1"])
        assert "10.00" in text
        assert "20.00" in text
        assert "Method" in text

    def test_highlight_best_marks_max(self):
        text = format_table(self.ROWS, ["Method", "MRR"], highlight_best=["MRR"])
        assert "20.00*" in text
        assert "10.00*" not in text

    def test_missing_column_renders_dash(self):
        rows = [{"Method": "A"}]
        text = format_table(rows, ["Method", "MRR"])
        assert "-" in text

    def test_alignment_consistent(self):
        text = format_table(self.ROWS, ["Method", "MRR"])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line and not set(line) == {"-"}}) <= 2

    def test_custom_float_format(self):
        text = format_table(self.ROWS, ["MRR"], float_format="{:.1f}")
        assert "10.0" in text
        assert "10.00" not in text

    def test_empty_rows(self):
        text = format_table([], ["Method"])
        assert "Method" in text


def _result(encoder=0.01, full=0.03, dataset="ICEWS14"):
    return {
        "dataset": dataset,
        "encoder_seconds_per_step": encoder,
        "seconds_per_step": full,
        "steps": 7,
    }


class TestBenchHistory:
    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        append_entry(path, make_entry(_result(0.01)))
        append_entry(path, make_entry(_result(0.02), extra={"injected_sleep": 0.01}))
        entries = read_history(path)
        assert len(entries) == 2
        assert entries[0]["encoder_seconds_per_step"] == 0.01
        assert entries[1]["injected_sleep"] == 0.01
        assert all(e["name"] == "encoder" for e in entries)

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_history(str(tmp_path / "nope.jsonl")) == []

    def test_make_entry_rejects_incomplete_result(self):
        with pytest.raises(HistoryError):
            make_entry({"dataset": "ICEWS14"})

    def test_corrupt_history_line_reports_position(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"name": "encoder"}\nnot json\n')
        with pytest.raises(HistoryError, match=":2"):
            read_history(str(path))

    def test_empty_history_passes_the_gate(self):
        verdict = detect_regression([], candidate=0.05)
        assert not verdict.regressed
        assert verdict.baseline is None

    def test_clean_candidate_within_noise_passes(self):
        entries = [make_entry(_result(e)) for e in (0.010, 0.012, 0.011)]
        verdict = detect_regression(entries, candidate=0.011, tolerance=1.2)
        assert not verdict.regressed
        assert verdict.baseline == 0.010

    def test_slowdown_past_tolerance_is_flagged(self):
        entries = [make_entry(_result(e)) for e in (0.010, 0.012, 0.011)]
        verdict = detect_regression(entries, candidate=0.025, tolerance=1.2)
        assert verdict.regressed
        assert verdict.ratio == pytest.approx(2.5)
        assert "REGRESSION" in str(verdict)

    def test_baseline_is_min_of_rolling_window(self):
        # The fast old entry falls outside the window, so it no longer
        # drags the noise floor down.
        entries = [make_entry(_result(e)) for e in (0.001, 0.010, 0.011, 0.012)]
        verdict = detect_regression(entries, candidate=0.011, window=3)
        assert verdict.baseline == 0.010
        assert not verdict.regressed

    def test_other_datasets_do_not_pollute_the_baseline(self):
        entries = [
            make_entry(_result(0.001, dataset="YAGO")),
            make_entry(_result(0.010)),
        ]
        verdict = detect_regression(entries, candidate=0.011, dataset="ICEWS14")
        assert verdict.baseline == 0.010

    def test_tolerance_must_allow_slowdown(self):
        with pytest.raises(HistoryError):
            detect_regression([], candidate=0.01, tolerance=0.9)

    def test_summary_written_per_dataset(self, tmp_path):
        entries = [make_entry(_result(e)) for e in (0.010, 0.020)] + [
            make_entry(_result(0.005, dataset="YAGO"))
        ]
        path = tmp_path / "BENCH_encoder.json"
        summary = write_summary(str(path), entries)
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(summary))
        stats = on_disk["datasets"]["ICEWS14"]["encoder_seconds_per_step"]
        assert stats["min"] == 0.010
        assert stats["last"] == 0.020
        assert on_disk["datasets"]["YAGO"]["entries"] == 1


class TestUnknownBenchmark:
    def test_unknown_name_raises_instead_of_gating_on_the_encoder_key(self):
        from repro.bench import BenchError, get_benchmark

        result = dict(_result(), nope_seconds_per_step=0.01)
        with pytest.raises(BenchError, match="unknown benchmark 'nope'"):
            get_benchmark("nope")
        with pytest.raises(BenchError):
            make_entry(result, name="nope")
        with pytest.raises(BenchError):
            detect_regression([make_entry(_result())], candidate=0.5, name="nope")
        with pytest.raises(BenchError):
            summarize_history([make_entry(_result())], name="nope")


REPO_ROOT = Path(__file__).resolve().parent.parent


def _fake_measure(dataset_name, seed=0, dtype="float64", per_step_sleep=0.0):
    """Stand-in measurement: the figures are whatever the test sets."""
    wall = FAKE["wall"] + per_step_sleep
    return {
        "dataset": dataset_name,
        "dtype": dtype,
        "steps": 3,
        "cell_seconds_per_step": wall,
        "seconds_per_step": wall,
        "peak_rss_mb": FAKE["rss"],
    }


FAKE = {"wall": 0.01, "rss": 100.0}


class TestOneGate:
    """The CLI gate over a millisecond stand-in for the ``cell`` spec."""

    @pytest.fixture
    def bench(self, tmp_path, monkeypatch, capsys):
        from repro.bench import BENCHMARKS, Benchmark, perf
        from repro.cli import main

        spec = Benchmark(
            name="cell",
            measure=_fake_measure,
            key="cell_seconds_per_step",
            series=("dataset", "dtype"),
            extras=("peak_rss_mb",),
            gauges=(("cell_seconds_per_step", "cell_seconds_per_step", "fake"),),
            budget={"cell_seconds_per_step": 3.0, "peak_rss_mb": 1.5},
            options=("per_step_sleep",),
        )
        monkeypatch.setitem(BENCHMARKS, "cell", spec)
        baseline = tmp_path / "baseline.json"
        monkeypatch.setattr(perf, "BASELINE_PATH", baseline)
        monkeypatch.setitem(FAKE, "wall", 0.01)
        monkeypatch.setitem(FAKE, "rss", 100.0)
        committed = {
            "dataset": "ICEWS14",
            "dtype": "float32",
            "cell_seconds_per_step": 0.01,
            "peak_rss_mb": 100.0,
            "notes": "hand-written budget",
        }
        baseline.write_text(json.dumps({"cell": committed}))

        def run(*flags):
            argv = ["bench", "--dataset", "ICEWS14", "--component", "cell"]
            argv += ["--dtype", "float32", "--repeats", "1", *flags]
            code = main(argv)
            return code, capsys.readouterr().out

        run.baseline = baseline
        run.history = str(tmp_path / "hist.jsonl")
        return run

    def test_exactly_at_budget_passes_and_just_over_fails(self, bench):
        FAKE["wall"] = 0.01 * 3.0
        code, out = bench("--gate")
        assert code == 0, out
        FAKE["wall"] = float(np.nextafter(0.01 * 3.0, 1.0))
        code, out = bench("--gate")
        assert code == 1
        assert "REGRESSION: cell_seconds_per_step" in out

    def test_each_figure_has_its_own_tolerance(self, bench):
        # 1.6x RSS fails under its x1.5 tolerance although the wall
        # figure's x3.0 would have let it through.
        FAKE["wall"], FAKE["rss"] = 0.029, 160.0
        code, out = bench("--gate")
        assert code == 1
        assert "ok: cell_seconds_per_step" in out
        assert "REGRESSION: peak_rss_mb 160 vs committed budget 100" in out

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", json.dumps({"cell": {"dataset": "ICEWS14", "dtype": "float32"}})],
        ids=["missing", "unreadable", "missing-key"],
    )
    def test_unusable_baseline_is_a_hard_failure(self, bench, content):
        if content is None:
            bench.baseline.unlink()
        else:
            bench.baseline.write_text(content)
        code, out = bench("--gate")
        assert code == 1
        assert "REGRESSION: no usable budget" in out

    def test_update_baseline_rewrites_only_the_measured_figures(self, bench):
        FAKE["wall"], FAKE["rss"] = 0.02, 120.0
        code, _ = bench("--update-baseline")
        assert code == 0
        committed = json.loads(bench.baseline.read_text())["cell"]
        assert committed == {
            "dataset": "ICEWS14",
            "dtype": "float32",
            "cell_seconds_per_step": 0.02,
            "peak_rss_mb": 120.0,
            "notes": "hand-written budget",
        }

    def test_update_baseline_refuses_another_series(self, bench):
        code, _ = bench("--update-baseline", "--dataset", "YAGO")
        assert code == 1
        assert json.loads(bench.baseline.read_text())["cell"]["dataset"] == "ICEWS14"

    def test_injected_sleep_fires_the_budget_and_the_ledger_check(self, bench):
        assert bench("--history", bench.history, "--gate")[0] == 0
        code, out = bench(
            "--history", bench.history, "--gate", "--inject-sleep-ms", "100", "--dry-run"
        )
        assert code == 1
        assert "REGRESSION: cell_seconds_per_step 0.11 vs committed budget" in out
        assert "REGRESSION: cell_seconds_per_step 0.11 vs min-of-1 ledger floor" in out
        assert len(read_history(bench.history)) == 1

    def test_other_dtype_is_never_compared(self, bench):
        # A float64 floor far below the candidate must not judge a
        # float32 run: no history for its series, so it seeds.
        for _ in range(3):
            append_entry(
                bench.history,
                make_entry(
                    dict(_fake_measure("ICEWS14", dtype="float64"), cell_seconds_per_step=1e-9),
                    name="cell",
                ),
            )
        code, out = bench("--history", bench.history, "--gate", "--dry-run")
        assert code == 0, out
        assert "no cell history for series" in out
        assert "'dtype': 'float32'" in out
        assert "ledger floor" not in out

    def test_float32_candidate_seeds_against_float64_only_history(self):
        entries = [make_entry(dict(_result(0.001), dtype="float64"))]
        verdict = detect_regression(entries, 0.5, dataset="ICEWS14", dtype="float32")
        assert not verdict.regressed
        assert verdict.baseline is None and verdict.window_used == 0
        assert "seeds" in verdict.reason


def test_committed_history_parses_and_summarises_per_component():
    from repro.bench import BENCHMARKS

    entries = read_history(str(REPO_ROOT / "BENCH_history.jsonl"))
    names = {e["name"] for e in entries}
    assert names and names <= set(BENCHMARKS)
    for name in names:
        summary = summarize_history(entries, name=name)
        key = BENCHMARKS[name].key
        assert summary["datasets"], name
        for stats in summary["datasets"].values():
            assert 0 < stats[key]["min"] <= stats[key]["median"]
            assert stats["window_entries"] >= 1


def test_real_cell_benchmark_through_the_cli(tmp_path, capsys):
    from repro.cli import main

    history = tmp_path / "hist.jsonl"
    argv = ["bench", "--dataset", "ICEWS14", "--component", "cell", "--repeats", "1"]
    assert main(argv + ["--history", str(history), "--gate"]) == 0
    (entry,) = read_history(str(history))
    assert entry["name"] == "cell" and entry["dtype"] == "float64"
    assert entry["cell_seconds_per_step"] > 0 and entry["speedup"] > 0
    assert "this run seeds it" in capsys.readouterr().out
