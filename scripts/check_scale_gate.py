#!/usr/bin/env python
"""CI scale gate: scorer rank-identity + large-vocabulary eval budgets.

Two legs, both required for the entity-axis scaling work to be trusted
(DESIGN.md §9):

* **rank leg** — on the ICEWS14 surrogate, the full evaluation protocol
  is run once per candidate scoring strategy (the legacy dense decode,
  the seam's ``dense``/``blocked``/``topk`` strategies) against freshly
  seeded identical models, and every entity metric dict must be
  *exactly* equal.  Blocked and top-k scoring are bitwise-identical to
  dense by construction (a tile-invariant ``einsum`` kernel); this
  leg proves it end to end, including the mask/dedup plumbing.  A
  second pass repeats the seam strategies on float32 models, where the
  kernel compares in float32; legacy versus dense at float32 is not
  part of the contract, so that pass compares the seam with itself.
* **scale leg** — the 10^5-entity ``ICEWS-SCALE`` profile is evaluated
  through :func:`repro.bench.benchmark_scale` (frozen window, memmap
  embedding tables, blocked scorer, sharded workers) and both measured
  figures must stay inside the budgets checked in at
  ``benchmarks/scale_baseline.json``:

  - ``scale_seconds_per_step`` <= baseline * ``--tolerance``;
  - ``peak_rss_mb``            <= baseline * ``--rss-tolerance``.

  A missing or unreadable baseline is a hard failure — a silently
  absent budget is the same as no gate at all.

The measurements are also emitted in the
:class:`repro.obs.MetricsRegistry` JSON format (``--metrics-out``),
including the budget thresholds, which CI uploads as a build artifact.

Usage:
    PYTHONPATH=src python scripts/check_scale_gate.py \
        [--leg rank|scale|both] [--tolerance 3.0] [--rss-tolerance 1.5] \
        [--metrics-out scale_metrics.json] [--update-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "scale_baseline.json"

REQUIRED_KEYS = (
    "dataset",
    "workers",
    "scorer",
    "scale_seconds_per_step",
    "peak_rss_mb",
)

#: Strategies the rank leg compares.  ``legacy`` is the pre-seam dense
#: matmul decode (``model.scorer is None``); the rest route through the
#: scorer seam.  Odd block sizes on purpose: uneven final blocks are
#: the regression-prone case.
RANK_STRATEGIES = ("legacy", "dense", "blocked:7:40", "topk:10")
#: The float32 pass: the seam strategies only.
FLOAT32_RANK_STRATEGIES = RANK_STRATEGIES[1:]


def load_baseline(path: Path) -> dict:
    """The checked-in budgets; any problem reading them fails the gate."""
    try:
        baseline = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(
            f"FAIL: baseline file {path} is missing — the scale budget gate "
            "cannot run. Restore it or regenerate with --update-baseline "
            "against a known-good checkout."
        )
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"FAIL: baseline file {path} is unreadable: {exc}")
    missing = [key for key in REQUIRED_KEYS if key not in baseline]
    if missing:
        raise SystemExit(f"FAIL: baseline file {path} lacks required keys {missing}")
    return baseline


def check_rank_identity(
    seed: int, registry, dtype: str = "float64", strategies=RANK_STRATEGIES
) -> list:
    """Entity metrics must be exactly equal across ``strategies`` at ``dtype``."""
    from repro.bench.runner import BENCH_PROFILES, build_retia_config
    from repro.core import RETIA
    from repro.datasets import load_dataset
    from repro.parallel import evaluate_extrapolation_sharded

    dataset = load_dataset("ICEWS14")
    profile = BENCH_PROFILES["ICEWS14"]

    def fresh_model():
        model = RETIA(build_retia_config(dataset, profile, seed=seed, dtype=dtype))
        model.set_history(dataset.train)
        for t in dataset.valid.timestamps:
            model.record_snapshot(dataset.valid.snapshot(int(t)))
        model.eval()
        return model

    metrics = {}
    for spec in strategies:
        model = fresh_model()
        model.set_scorer(None if spec == "legacy" else spec)
        result = evaluate_extrapolation_sharded(
            model, dataset.test, evaluate_relations=False, workers=1
        )
        metrics[spec] = result.entity
        shown = {k: round(v, 6) for k, v in result.entity.items()}
        print(f"rank leg: {dtype} {spec:<14} entity metrics {shown}")
        for metric, value in result.entity.items():
            registry.gauge(
                "scale_rank_identity_metric",
                help="entity metric per candidate scoring strategy",
            ).set(value, dataset=dataset.name, scorer=spec, metric=metric, dtype=dtype)

    problems = []
    reference = metrics[strategies[0]]
    for spec in strategies[1:]:
        if metrics[spec] != reference:
            problems.append(
                f"{dtype} scorer {spec!r} entity metrics {metrics[spec]} differ from "
                f"{strategies[0]!r} metrics {reference}"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--leg",
        choices=("rank", "scale", "both"),
        default="both",
        help="which leg(s) to run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="allowed slowdown factor over the checked-in per-step budget",
    )
    parser.add_argument(
        "--rss-tolerance",
        type=float,
        default=1.5,
        help="allowed growth factor over the checked-in peak-RSS budget",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measured scale figures back to the baseline file",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the measurements as MetricsRegistry JSON to this path",
    )
    args = parser.parse_args()

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    problems = []

    if args.leg in ("rank", "both"):
        problems.extend(check_rank_identity(args.seed, registry))
        problems.extend(
            check_rank_identity(
                args.seed, registry, dtype="float32", strategies=FLOAT32_RANK_STRATEGIES
            )
        )

    result = None
    if args.leg in ("scale", "both"):
        from repro.bench import benchmark_scale

        baseline = load_baseline(BASELINE_PATH)
        result = benchmark_scale(
            baseline["dataset"],
            workers=int(baseline["workers"]),
            seed=args.seed,
            dtype=baseline.get("dtype", "float64"),
            scorer=baseline["scorer"],
            registry=registry,
        )
        step_budget = baseline["scale_seconds_per_step"] * args.tolerance
        rss_budget = baseline["peak_rss_mb"] * args.rss_tolerance
        labels = {"dataset": result["dataset"], "scorer": result["scorer"]}
        registry.gauge(
            "scale_step_budget_seconds",
            help="baseline * tolerance, the per-step wall-clock threshold",
        ).set(step_budget, **labels)
        registry.gauge(
            "scale_rss_budget_mb",
            help="baseline * rss-tolerance, the peak-RSS threshold",
        ).set(rss_budget, **labels)

        print(
            f"scale leg: {result['dataset']} ({result['entities']} entities, "
            f"{result['steps']} steps, {result['workers']} worker(s), "
            f"scorer {result['scorer']}, spill={result['spill']})"
        )
        print(
            f"  per-step: {result['scale_seconds_per_step']:.2f} s "
            f"(budget {step_budget:.2f} s = "
            f"{baseline['scale_seconds_per_step']:.2f} s x {args.tolerance:g})"
        )
        print(
            f"  peak RSS: {result['peak_rss_mb']:.0f} MB "
            f"(budget {rss_budget:.0f} MB = "
            f"{baseline['peak_rss_mb']:.0f} MB x {args.rss_tolerance:g})"
        )
        print(
            f"  freeze: {result['freeze_seconds']:.2f} s, "
            f"entity MRR {result['entity_mrr']:.2f}"
        )

        if args.update_baseline:
            baseline["scale_seconds_per_step"] = result["scale_seconds_per_step"]
            baseline["peak_rss_mb"] = result["peak_rss_mb"]
            baseline["dtype"] = result["dtype"]
            BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
            print(f"baseline updated: {BASELINE_PATH}")
        else:
            if result["scale_seconds_per_step"] > step_budget:
                problems.append(
                    f"scale eval {result['scale_seconds_per_step']:.2f} s/step "
                    f"exceeds budget {step_budget:.2f} s/step"
                )
            if result["peak_rss_mb"] > rss_budget:
                problems.append(
                    f"scale eval peak RSS {result['peak_rss_mb']:.0f} MB "
                    f"exceeds budget {rss_budget:.0f} MB"
                )

    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    legs = {
        "rank": "rank identity holds",
        "scale": "scale budgets hold",
        "both": "rank identity and scale budgets hold",
    }[args.leg]
    print(f"OK: {legs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
