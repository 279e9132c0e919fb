"""The benchmark's workload and metric names, with units.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's tests keep the two in step.
"""

#: The workloads ``BENCHMARK.json`` gates.
WORKLOAD_NAMES = ("serve-read", "serve-mixed", "eval-large-vocab")

#: Runnable by name (and under ``all``) but not gated: on a shared 2-vCPU
#: host their CPU-bound medians moved by 0.16-0.31 between runs, beyond
#: the largest bound a metric may carry (see NOTES.md).
PROFILE_ONLY = ("train-surrogate", "train-paper")

#: End-to-end metrics (tracing off), reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "op_p50_ms": "ms",
    "job_s": "s",
}

#: Per-layer metrics (traced run), reported by every workload; 0 where
#: the workload never enters the layer.
PER_LAYER = {
    "core.trainer.step_ms": "ms",
    "core.trainer.unattributed_ms": "ms",
    "core.trainer.attributed_frac": "ratio",
    "core.rgcn.fwd_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.nodes_per_step": "count",
    "nn.rnn.fwd_ms": "ms",
    "core.decoder.fwd_ms": "ms",
    "nn.losses.fwd_ms": "ms",
    "core.ram.fwd_ms": "ms",
    "core.eam.fwd_ms": "ms",
    "core.tim.fwd_ms": "ms",
    "nn.optim.step_ms": "ms",
    "nn.optim.clip_ms": "ms",
    "resilience.guard_ms": "ms",
    "graph.artifacts_ms": "ms",
    "graph.cache.hit_frac": "ratio",
    "graph.cache.warm_s": "s",
    "datasets.generate_s": "s",
    "trace.bookkeeping_ms": "ms",
    "eval.predict_ms": "ms",
    "eval.observe_ms": "ms",
    "eval.rank_ms": "ms",
    "core.evolve_nograd_ms": "ms",
    "serve.decode_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.batch_size_mean": "count",
    "serve.observe_ms": "ms",
    "serve.capture_ms": "ms",
    "serve.staleness_max": "count",
    "serve.shed_frac": "ratio",
    "serve.deadline_frac": "ratio",
    "loadgen.late_p99_ms": "ms",
    "scale.freeze_s": "s",
    "scale.ranks_ms": "ms",
    "scale.spill_mb": "MB",
    "parallel.shard_max_s": "s",
    "parallel.imbalance": "ratio",
    "parallel.overhead_s": "s",
    "failed_frac": "ratio",
    "entity_mrr": "%",
    "relation_mrr": "%",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}
