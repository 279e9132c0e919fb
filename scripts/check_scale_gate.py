#!/usr/bin/env python
"""CI scale gate: every candidate scoring strategy ranks identically.

On the ICEWS14 surrogate, the full evaluation protocol is run once per
candidate scoring strategy (the legacy dense decode, the seam's
``dense``/``blocked``/``topk`` strategies) against freshly seeded
identical models, and every entity metric dict must be *exactly* equal.
Blocked and top-k scoring are bitwise-identical to dense by
construction (a tile-invariant ``einsum`` kernel); this check proves it
end to end, including the mask/dedup plumbing.  A second pass repeats
the seam strategies on float32 models, where the kernel compares in
float32; legacy versus dense at float32 is not part of the contract, so
that pass compares the seam with itself.

The large-vocabulary wall-clock and peak-RSS budgets are perf gates,
not correctness checks: ``python -m repro.cli bench --component scale
--dataset ICEWS-SCALE --eval-workers 2 --gate`` holds them against
``benchmarks/baseline.json`` (DESIGN.md §9).

The per-strategy metrics are also emitted in the
:class:`repro.obs.MetricsRegistry` JSON format (``--metrics-out``),
which CI uploads as a build artifact.

Usage:
    PYTHONPATH=src python scripts/check_scale_gate.py \
        [--seed 0] [--metrics-out scale_metrics.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

#: Strategies the rank leg compares.  ``legacy`` is the pre-seam dense
#: matmul decode (``model.scorer is None``); the rest route through the
#: scorer seam.  Odd block sizes on purpose: uneven final blocks are
#: the regression-prone case.
RANK_STRATEGIES = ("legacy", "dense", "blocked:7:40", "topk:10")
#: The float32 pass: the seam strategies only.
FLOAT32_RANK_STRATEGIES = RANK_STRATEGIES[1:]


def check_rank_identity(
    seed: int, registry, dtype: str = "float64", strategies=RANK_STRATEGIES
) -> list:
    """Entity metrics must be exactly equal across ``strategies`` at ``dtype``."""
    from repro.bench.runner import revealed_model
    from repro.eval import evaluate_extrapolation

    metrics = {}
    for spec in strategies:
        dataset, model = revealed_model("ICEWS14", seed=seed, dtype=dtype)
        model.set_scorer(None if spec == "legacy" else spec)
        result = evaluate_extrapolation(
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
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metrics-out",
        help="write the measurements as MetricsRegistry JSON to this path",
    )
    args = parser.parse_args()

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    problems = check_rank_identity(args.seed, registry)
    problems.extend(
        check_rank_identity(
            args.seed, registry, dtype="float32", strategies=FLOAT32_RANK_STRATEGIES
        )
    )

    if args.metrics_out:
        Path(args.metrics_out).write_text(registry.to_json() + "\n")
        print(f"metrics written to {args.metrics_out}")

    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("OK: rank identity holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
