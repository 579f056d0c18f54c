"""The ``continuous`` scenario kind: live traffic with windowed metrics.

Where the figure runners materialize one workload and report a terminal
payload, :class:`ContinuousRunner` drives a
:class:`~repro.jobs.scheduler_variants.HarvestingCluster` under a
:class:`~repro.harness.traffic.TrafficDriver` arrival process and reports
*per-epoch* windowed metrics — p99 primary latency, harvest throughput,
kill rate, queue depth — as a
:class:`~repro.harness.results.ContinuousResult`.

Epoch metrics are computed **streamingly**: a
:class:`~repro.harness.streaming.StreamingEpochAggregator` is installed as
the cluster's series recorder, folds each closed window's heartbeat rows
into per-minute latency samples at the
:class:`~repro.harness.traffic.EpochRecorder` boundary, and emits the
finalized :class:`~repro.harness.results.EpochMetrics` the moment its
window can no longer change — so retained series state is O(window), not
O(horizon), and callers can observe epochs incrementally via the runner's
``on_epoch`` hook (see :func:`repro.api.run_continuous`).  The streamed
fold is bit-identical to one full-horizon pass over the same rows.

Cell grid: one cell per scheduler variant.  Each cell records the four
child seeds its serial forks resolve to (cluster, workload factory, traffic
process, latency model) and replays the *entire* continuous simulation from
them in :meth:`ContinuousRunner.run_cell`, so the epoch stream is
bit-identical whether cells run serially or on a process pool.  Epochs
within a cell are inherently sequential (epoch N's cluster state feeds
epoch N+1), which is why the variant — not the epoch — is the unit of
parallelism.

Kind-specific spec params (all reachable via ``repro run-scenario``
``--traffic/--epochs/--epoch-seconds/--max-sim-seconds`` or ``repro.api``
overrides):

* ``traffic`` — a :func:`~repro.harness.traffic.parse_traffic` spec string;
* ``epochs`` — number of metric windows (the horizon is their sum), or
  ``0`` to run forever — epochs stream unbounded until the horizon below;
* ``epoch_seconds`` — window length in simulated seconds;
* ``max_sim_seconds`` — the run-forever horizon (required with, and only
  valid with, ``epochs=0``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.builders import build_testbed_tenants
from repro.harness.cells import Cell
from repro.harness.results import (
    ContinuousResult,
    EpochMetrics,
    VariantContinuousResult,
)
from repro.harness.runners import (
    _SCHEDULING_VARIANT_MODES,
    ScenarioRunner,
    _register,
)
from repro.harness.spec import ScenarioSpec
from repro.harness.streaming import StreamingEpochAggregator
from repro.harness.traffic import EpochRecorder, factory_from_spec, parse_traffic
from repro.jobs.scheduler_variants import ClusterConfig, HarvestingCluster
from repro.simulation.random import RandomSource

#: Default horizon: eight 10-minute windows.
DEFAULT_EPOCHS = 8
DEFAULT_EPOCH_SECONDS = 600.0
#: Default arrival process: one job every ~200s, open loop.
DEFAULT_TRAFFIC = "open:rate=0.005"


@_register
class ContinuousRunner(ScenarioRunner):
    """Continuous simulation under an arrival-process traffic driver.

    Cell grid: one cell per scheduler variant, each carrying the four child
    seeds its serial forks resolved to (cluster, workload factory, traffic,
    latency model).
    """

    kind = "continuous"
    VARIANTS = tuple(_SCHEDULING_VARIANT_MODES)
    SHARED_FORK_LABELS = ("testbed-dc9",)

    #: Optional live-emission hook, called as ``on_epoch(variant, metrics)``
    #: the moment an epoch finalizes inside :meth:`run_cell`.  A class-level
    #: default (never instance state) so it is invisible to context
    #: snapshots — restored runners come back with the hook unset and the
    #: harness re-attaches it via its ``runner_setup`` hook.
    on_epoch: Optional[Callable[[str, EpochMetrics], None]] = None

    def _prepare(self) -> Dict[str, Any]:
        return {"tenants": build_testbed_tenants(self.spec.scale, self.rng)}

    @classmethod
    def _grid_cells(cls, spec: ScenarioSpec, fork_seed: Any) -> List[Cell]:
        cells: List[Cell] = []
        for name in spec.variants:
            cells.append(
                Cell(
                    index=len(cells),
                    key=name,
                    seeds=(
                        fork_seed(f"cluster-{name}"),
                        fork_seed("tpcds"),
                        fork_seed(f"traffic-{name}"),
                        fork_seed(f"latency-{name}"),
                    ),
                    coords={"variant": name},
                )
            )
        return cells

    # -- execution ----------------------------------------------------------

    def run_cell(self, cell: Cell) -> VariantContinuousResult:
        name = cell.coord("variant")
        hook = self.on_epoch
        return _run_continuous_variant(
            name,
            self.ctx["tenants"],
            cell.seeds,
            traffic=str(self.spec.param("traffic", DEFAULT_TRAFFIC)),
            workload=self.spec.param("workload", None),
            epochs=int(self.spec.param("epochs", DEFAULT_EPOCHS)),
            epoch_seconds=float(
                self.spec.param("epoch_seconds", DEFAULT_EPOCH_SECONDS)
            ),
            max_sim_seconds=self._max_sim_seconds(),
            on_epoch=(
                (lambda metrics: hook(name, metrics)) if hook is not None else None
            ),
        )

    def _max_sim_seconds(self) -> Optional[float]:
        value = self.spec.param("max_sim_seconds", None)
        return None if value is None else float(value)

    def merge(
        self, cells: Sequence[Cell], partials: Sequence[Any]
    ) -> ContinuousResult:
        epochs = int(self.spec.param("epochs", DEFAULT_EPOCHS))
        epoch_seconds = float(
            self.spec.param("epoch_seconds", DEFAULT_EPOCH_SECONDS)
        )
        variants: Dict[str, VariantContinuousResult] = {
            outcome.variant: outcome for outcome in partials
        }
        if not epochs:
            # Run-forever: the window count is whatever the horizon produced
            # (identical across variants — boundaries are time-driven).
            epochs = max((len(v.epochs) for v in variants.values()), default=0)
        return ContinuousResult(
            traffic=str(self.spec.param("traffic", DEFAULT_TRAFFIC)),
            epoch_seconds=epoch_seconds,
            num_epochs=epochs,
            variants=variants,
        )


def _run_continuous_variant(
    name: str,
    tenants,
    seeds: Tuple[int, ...],
    *,
    traffic: str,
    workload: Any = None,
    epochs: int,
    epoch_seconds: float,
    max_sim_seconds: Optional[float] = None,
    on_epoch: Optional[Callable[[EpochMetrics], None]] = None,
) -> VariantContinuousResult:
    """One variant's full continuous run, purely from its recorded seeds.

    The horizon is ``epochs * epoch_seconds`` in bounded mode; run-forever
    mode (``epochs == 0``) requires ``max_sim_seconds`` as the horizon and
    streams however many windows fit in it (a trailing partial window
    closes at the horizon).
    """
    if epochs < 0:
        raise ValueError("epochs must be non-negative (0 = run forever)")
    if epoch_seconds <= 0:
        raise ValueError("epoch_seconds must be positive")
    if epochs == 0:
        if max_sim_seconds is None:
            raise ValueError(
                "epochs=0 (run forever) requires max_sim_seconds as the horizon"
            )
        if max_sim_seconds <= 0:
            raise ValueError("max_sim_seconds must be positive")
        horizon = float(max_sim_seconds)
    else:
        if max_sim_seconds is not None:
            raise ValueError(
                "max_sim_seconds only applies to run-forever mode (epochs=0)"
            )
        horizon = epochs * epoch_seconds

    mode = _SCHEDULING_VARIANT_MODES[name]
    cluster_rng, tpcds_rng, traffic_rng, latency_rng = (
        RandomSource(seed) for seed in seeds
    )
    cluster = HarvestingCluster(
        tenants,
        config=ClusterConfig(mode=mode),
        rng=cluster_rng,
    )
    aggregator = StreamingEpochAggregator(
        latency_rng=latency_rng,
        reserve_fraction=cluster.config.reserve_cpu_fraction,
        epochs=epochs,
        epoch_seconds=epoch_seconds,
        on_epoch=on_epoch,
    )
    cluster.set_series_recorder(aggregator)
    factory = factory_from_spec(
        workload, tpcds_rng, duration_scale=1.0, width_scale=0.35
    )
    driver = parse_traffic(traffic)
    driver.attach(cluster, factory, horizon, traffic_rng)
    recorder = EpochRecorder(
        cluster, driver, epoch_seconds, epochs, aggregator=aggregator
    )
    recorder.install()
    cluster.run(horizon)
    metrics = recorder.finalize(horizon)
    return VariantContinuousResult(
        variant=name,
        epochs=metrics,
        peak_tail_rows=aggregator.peak_tail_rows,
        peak_tail_bytes=aggregator.peak_tail_bytes,
        series_folds=aggregator.folds,
    )
