"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` runs the workload once with spans around each
layer's public entry points and once without, checks that both runs
computed the same results, and reports per-layer self times and counts.
The last line of standard output is one JSON object; the lines before it
repeat every figure by name with its unit and sample count.
``--workload all`` runs every workload in turn, each in its own process,
and exits non-zero if any of them fails a check.  The training workloads
run by name and under ``all`` but are not in ``BENCHMARK.json`` (see
NOTES.md).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pinned before numpy is first imported: no inherited environment
# variable may change the thread count, the dtype or the cell kernels.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["REPRO_DTYPE"] = "float32"
os.environ["REPRO_FUSED_CELLS"] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)  # import ``perfbench`` as a package, not its files
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from typing import Callable, Dict, Optional  # noqa: E402

from perfbench.metrics import END_TO_END, PER_LAYER, PROFILE_ONLY, WORKLOAD_NAMES  # noqa: E402


@dataclass(frozen=True)
class Workload:
    run: Callable
    layers: Callable
    shape: Dict[str, object]


def _workloads() -> Dict[str, Workload]:
    from perfbench import largevocab, serve, train

    serve_shape = {**asdict(train.SURROGATE), "rate_rps": serve.RATE,
                   "client_threads": serve.client_threads(), "limit_ms": serve.LATENCY_LIMIT_MS}
    return {
        "train-surrogate": Workload(
            functools.partial(train.run, train.SURROGATE), train.layers, asdict(train.SURROGATE),
        ),
        "train-paper": Workload(
            functools.partial(train.run, train.PAPER), train.layers, asdict(train.PAPER),
        ),
        "serve-read": Workload(
            functools.partial(serve.run, False), serve.layers, {**serve_shape, "ingests": False},
        ),
        "serve-mixed": Workload(
            functools.partial(serve.run, True), serve.layers, {**serve_shape, "ingests": True},
        ),
        "eval-large-vocab": Workload(
            largevocab.run, largevocab.layers,
            {"dataset": "ICEWS-SCALE", **largevocab.MODEL, "scorer": largevocab.SCORER,
             "facts_per_snapshot": largevocab.FACTS_PER_SNAPSHOT, "workers": largevocab.workers()},
        ),
    }


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over every source file of the program, path and content."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, workload: Workload, args) -> dict:
    import numpy as np

    from perfbench.common import DTYPE, nproc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "dtype": DTYPE,
        "workload": name,
        "shape": workload.shape,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def _end_to_end(result) -> Dict[str, float]:
    from perfbench.common import peak_rss_mb
    from perfbench.stats import median

    return {
        "setup_s": median(result.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - result.failed / result.attempted,
        "op_p50_ms": median(result.op_ms),
        "job_s": median(result.job_s),
    }


def _counts(result) -> Dict[str, int]:
    return {
        "setup_s": len(result.setup_s),
        "op_p50_ms": len(result.op_ms),
        "job_s": len(result.job_s),
        "ok_frac": result.attempted,
    }


def _traced(workload: Workload, args):
    """Traced then untraced run of one seed: (traced result, per-layer metrics, spans)."""
    from perfbench.spans import Instrumentation, SpanTable, Tracer, installed_wrappers
    from perfbench.stats import median

    # Traced first: whatever the first run in a process pays for warming
    # up is then charged to the tracing overhead, not hidden by it.
    tracer = Tracer()
    with Instrumentation(tracer):
        traced = workload.run(args.seed, args.seconds, tracer=tracer, single=True)
    leftover = installed_wrappers()
    base = workload.run(args.seed, args.seconds, tracer=None, single=True)

    result = traced
    result.checks = [(f"traced: {c}", ok, d) for c, ok, d in traced.checks] + [
        (f"untraced: {c}", ok, d) for c, ok, d in base.checks
    ]
    result.check("traced run == untraced run", traced.identity == base.identity,
                 f"{traced.identity} vs {base.identity}")
    result.check("wrappers removed after the traced run", not leftover, f"{leftover}")

    table = SpanTable(tracer.spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    setup = "phase.setup"
    metrics.update(
        {
            "datasets.generate_s": table.total(["datasets.generate"], setup),
            "graph.cache.warm_s": table.total(["graph.cache.warm"], setup),
            "failed_frac": result.failed / result.attempted,
            "entity_mrr": result.identity.get("entity_mrr", 0.0),
            "relation_mrr": result.identity.get("relation_mrr", 0.0),
            "trace.overhead_ms": median(traced.op_ms) - median(base.op_ms),
            "trace.spans": float(len(tracer.spans)),
        }
    )
    metrics.update(workload.layers(table, tracer, traced))
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from the catalogue: {sorted(unknown)}")
    return result, metrics, tracer.spans


def _write(name: str, args, payload: dict) -> None:
    from perfbench.common import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, default=str))


def run_one(name: str, args) -> int:
    from perfbench.stats import tail

    workload = _workloads()[name]
    started = time.perf_counter()
    if args.trace:
        result, metrics, spans = _traced(workload, args)
        units = PER_LAYER
        counts = {}
    else:
        result = workload.run(args.seed, args.seconds)
        metrics, units, counts, spans = _end_to_end(result), END_TO_END, _counts(result), []
    correct = all(passed for _, passed, _ in result.checks)

    prov = provenance(name, workload, args)
    print(f"# provenance {json.dumps(prov)}")
    for check, passed, detail in result.checks:
        print(f"# check {'PASS' if passed else 'FAIL'} {check}" + ("" if passed else f": {detail}"))
    for metric, value in metrics.items():
        n = f" (n={counts[metric]})" if metric in counts else ""
        print(f"{metric} {value:.6g} {units[metric]}{n}")
    if result.op_ms and not args.trace:
        # Printed, not gated: on a shared host the tail and the mean move
        # with the neighbours more than the bounds allow (see NOTES.md).
        op_tail = tail(result.op_ms)
        print(f"op_tail_ms {op_tail['value']:.6g} ms@p{op_tail['percentile']:.1f} (n={op_tail['n']})")
        print(f"op_mean_ms {statistics.fmean(result.op_ms):.6g} ms (n={len(result.op_ms)})")
    for metric, (value, unit, n) in result.named.items():
        print(f"{metric} {value:.6g} {unit} (n={n})")
    if "statuses" in result.detail:
        print(f"# statuses {result.detail['statuses']}")
    print(f"# wall {time.perf_counter() - started:.1f} s")
    _write(name, args, {
        "provenance": prov,
        "checks": result.checks,
        "metrics": metrics,
        "named": result.named,
        "samples": {"setup_s": result.setup_s, "op_ms": result.op_ms, "job_s": result.job_s},
        "spans": [tuple(s) for s in spans],
    })
    print(json.dumps({
        "correct": correct,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    failures = []
    for name in WORKLOAD_NAMES + PROFILE_ONLY:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        if subprocess.run(command, cwd=ROOT).returncode != 0:
            failures.append(name)
    print(f"## failed: {failures}" if failures else "## all workloads passed their checks")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, *PROFILE_ONLY, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args)


if __name__ == "__main__":
    sys.exit(main())
