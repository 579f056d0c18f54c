"""One measured ``repro.api.run`` in a fresh interpreter.

``run.py`` starts this script once per measured run, so every sample pays
the import and process start-up a user pays and none inherits another's
warm caches::

    python benchmarks/perf/child.py '{"workload": "sched-live", "seed": 1,
        "workers": 1, "trace": false, "scale": "bench"}'

It prints one JSON object: the run's fingerprint, its timings, the peak
resident memory and, when traced, the per-layer metrics.  Everything that
executes on import sits under the ``__main__`` guard, because the spawn
pool of a ``workers=2`` run re-imports this file in each worker.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def measure(request: Dict[str, Any]) -> Dict[str, Any]:
    """Import the package, run the workload once, report what was measured."""
    started = time.perf_counter()
    import repro.api as api

    import_s = time.perf_counter() - started
    from tracer import Tracer, attribution_residual, instrumented, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    kwargs = dict(
        overrides={"scale": request["scale"], **workload.overrides},
        seed=request["seed"],
        workers=request["workers"],
    )
    tracer = Tracer(run_id=request["seed"]) if request["trace"] else None
    started = time.perf_counter()
    if tracer is None:
        result = api.run(workload.scenario, **kwargs)
    else:
        with instrumented(tracer), tracer.span("harness.run"):
            result = api.run(workload.scenario, **kwargs)
    run_s = time.perf_counter() - started
    cells = [timing.seconds for timing in result.cell_timings]
    report: Dict[str, Any] = {
        "fingerprint": result.fingerprint(),
        "import_s": import_s,
        "run_s": run_s,
        "setup_s": result.ctx_seconds,
        "cell_s": cells,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "snapshot_s": result.snapshot_seconds,
        "restore_s": list(result.worker_restore_seconds),
    }
    if tracer is not None:
        layers = layer_metrics(tracer)
        layers["harness.prepare_s"] = result.ctx_seconds
        layers["harness.cells_s"] = sum(cells)
        layers["harness.merge_s"] = result.wall_clock_seconds - result.ctx_seconds - sum(cells)
        report["layers"] = layers
        report["attribution_residual"] = attribution_residual(tracer)
        report["trace"] = tracer.to_jsonable()
    return report


def main(argv: list) -> int:
    if not (SRC / "repro").is_dir():
        print(f"child.py: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(measure(json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
