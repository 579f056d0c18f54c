"""The Resource Manager: cluster-wide container arbitration.

The Resource Manager receives heartbeats from every NodeManager, keeps the
latest view of each server's available resources, and satisfies container
requests from Application Masters.  A request may carry a *node label* — the
utilization-class id assigned by the clustering service — or a disjunction of
labels; the RM then schedules the container onto a server of the requested
class with probability proportional to the server's available resources
(Section 5.3).  Requests without a label fall back to the default policy
(most-available-resources first).

Three modes mirror the paper's baselines:

* ``STOCK``   — YARN-Stock: primary-oblivious NodeManagers, no labels.
* ``PRIMARY_AWARE`` — YARN-PT: primary-aware NodeManagers, no labels.
* ``HISTORY`` — YARN-H: primary-aware NodeManagers plus class labels.

The RM's per-server state is its
:class:`~repro.cluster.fleet_state.FleetState`: heartbeat processing is one
batched trace gather plus a reserve-violation mask.  Container placement
reads the fleet's fit index, which lists the rows each allocation fits, per
label, and stays exact across launches and completions: whether a request
shape can be placed at all is a few lookups
(:meth:`ResourceManager.shape_exhausted`), and a placement is one weighted
draw over the shape's fitting rows.
"""

from __future__ import annotations

import enum
from typing import Collection, List, Optional, Sequence

import numpy as np

from repro.cluster.fleet_state import FleetState
from repro.cluster.resources import Resource
from repro.cluster.server import Container
from repro.simulation.random import RandomSource


class SchedulerMode(str, enum.Enum):
    """Which scheduler variant the Resource Manager behaves as."""

    STOCK = "stock"
    PRIMARY_AWARE = "primary_aware"
    HISTORY = "history"


class ResourceManager:
    """Cluster-wide container scheduler with pluggable awareness level.

    Args:
        fleet: the cluster's servers; every variant but Stock builds it
            primary-aware.
        mode: which scheduler variant to behave as.
        rng: the placement draw stream.

    Attributes:
        waves_coalesced: waves of a shape their pump batch had already
            scheduled.
    """

    def __init__(
        self,
        fleet: FleetState,
        mode: SchedulerMode = SchedulerMode.HISTORY,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.mode = mode
        self._rng = rng or RandomSource(0)
        self.waves_coalesced = 0
        self._fleet = fleet

    @property
    def fleet(self) -> FleetState:
        """The per-server state this RM schedules over."""
        return self._fleet

    def set_label(self, server_id: str, label: Optional[str]) -> None:
        """Update a server's utilization-class label (after re-clustering)."""
        self._fleet.set_label(self._fleet.index_of(server_id), label)

    # -- heartbeats -----------------------------------------------------------

    def process_heartbeats(self, time: float) -> List[Container]:
        """Collect a heartbeat from every server; returns containers killed.

        The RM's view of available resources is refreshed from the heartbeats,
        exactly as the real systems piggyback utilization on the existing
        heartbeat protocol — here as one batch refresh over the fleet, which
        within a trace sample visits only the rows that changed.
        """
        return self._fleet.refresh(time)

    # -- utilization visibility -------------------------------------------------

    def average_total_utilization(self, time: float) -> float:
        """Mean combined (primary + secondary) CPU utilization."""
        return self._fleet.average_total_utilization(time)

    def class_statistics(
        self, labels: Sequence[str], time: float
    ) -> List[tuple]:
        """Per-label ``(capacity cores, current utilization)``, batched.

        The current utilization is Algorithm 1's: the mean total (primary +
        secondary) utilization of the label's servers, since batch load
        already on them counts against the room left for a new job.  One
        ``total_utilization`` evaluation feeds every label, and both
        reductions are sequential sums over the masked values in row order.
        """
        values: Optional[np.ndarray] = None
        statistics: List[tuple] = []
        for label in labels:
            mask = self._fleet.label_mask([label])
            count = int(mask.sum())
            if count == 0:
                statistics.append((0.0, 0.0))
                continue
            if values is None:
                values = self._fleet.total_utilization(time)
            statistics.append(
                (
                    sum(self._fleet.capacity_cores[mask].tolist()),
                    sum(values[mask].tolist()) / count,
                )
            )
        return statistics

    # -- scheduling -------------------------------------------------------------

    def shape_exhausted(self, shape: tuple) -> bool:
        """Whether no server can take a request of this shape right now.

        ``shape`` is ``(cores, memory_gb, node_labels)`` with the labels in
        any order.  The answer is exact for the current RM view: it reads
        the fleet's fit index, which every heartbeat, launch, completion and
        label change keeps current.  Pump waves use it to skip building
        their frontiers: a placement with no candidate server draws
        nothing and places nothing, so skipping is draw-invisible.
        """
        cores, memory_gb, labels = shape
        return not self._fleet.any_fit(
            cores, memory_gb, self._placement_labels(labels)
        )

    def _placement_labels(
        self, labels: Collection[str]
    ) -> Optional[Collection[str]]:
        """The labels that restrict placement, or None for every server.

        Labels count only in History mode, and a label set that names no
        server falls back to the default policy, mirroring the RM's
        behaviour when a label is unknown.
        """
        if (
            self.mode is SchedulerMode.HISTORY
            and labels
            and self._fleet.carries_any(labels)
        ):
            return labels
        return None

    def begin_batch(self, time: float) -> "WaveBatch":
        """A scheduling context for one pump tick.

        Placement draws each destination with probability proportional to
        available cores (the paper's probabilistic load balancing); Stock
        mode keeps YARN's default most-available-first choice.
        """
        return WaveBatch(self, time)

    def complete(self, container: Container, time: float) -> None:
        """Mark a container completed and release its resources on the RM view."""
        self._fleet.complete(container, time)


class WaveBatch:
    """Placement context for one pump tick's waves.

    One pump tick submits many waves back to back — one per live
    execution, each of one allocation and one label set — and between them
    nothing touches the fleet's availability view except the batch's own
    launches (launch bookkeeping schedules engine events and writes task
    tables; completions and heartbeats arrive as separate engine events).  Each wave takes its candidates from the
    fleet's fit index — the shape's fitting rows, ascending — and each
    placement:

    * draws its row with probability proportional to free cores (Stock:
      the most-available row), over the batch's float copy of the fleet's
      available cores, which every launch writes through;
    * launches, which rechecks the chosen row in the fit index; a chosen
      row that no longer fits leaves the wave's candidate list.

    A placement with no candidate draws nothing, and availability only
    shrinks within a wave, so once the list is empty the rest of the wave
    fails in one step.  Every placement draws from the random stream
    individually, in submission order — a fixed seed schedules
    bit-identically through one batch and through one batch per wave.
    ``waves_coalesced`` counts the waves of a shape the batch has already
    scheduled.
    """

    __slots__ = ("_rm", "_time", "_fleet", "_stock", "_seen", "_cores")

    def __init__(self, rm: ResourceManager, time: float) -> None:
        self._rm = rm
        self._time = time
        self._fleet = rm._fleet
        self._stock = rm.mode is SchedulerMode.STOCK
        self._seen: set = set()
        # Float copy of the fleet's available cores, taken at the first draw:
        # a batch lives within one engine event, so only its own launches
        # move availability, and each one writes its row through.
        self._cores: Optional[List[float]] = None

    def schedule(
        self,
        allocation: Resource,
        node_labels: Collection[str],
        job_id: str,
        task_ids: Sequence[str],
    ) -> List[Optional[Container]]:
        """Place one wave of one shape; one entry per task id, in order.

        Every container of the wave is ``allocation`` for a task of
        ``job_id``, placed on a server carrying one of ``node_labels``
        (empty = any server; History mode only).
        """
        if not task_ids:
            return []
        rm = self._rm
        cores = allocation.cores
        memory_gb = allocation.memory_gb
        labels = frozenset(node_labels)
        key = (cores, memory_gb, labels)
        if key in self._seen:
            rm.waves_coalesced += 1
        else:
            self._seen.add(key)
        fleet = self._fleet
        candidates = fleet.fit_rows(cores, memory_gb, rm._placement_labels(labels))
        if not candidates:
            return [None] * len(task_ids)
        fits = fleet.fit_index(cores, memory_gb).fits
        stock = self._stock
        available = self._cores
        if available is None and not stock:
            available = self._cores = fleet.available_cores.tolist()
        available_cores = fleet.available_cores
        results: List[Optional[Container]] = []
        for task_id in task_ids:
            if stock:
                chosen = fleet.most_available(candidates)
            else:
                chosen = fleet.draw_proportional(candidates, available, rm._rng)
            results.append(
                fleet.launch(chosen, task_id, job_id, allocation, self._time)
            )
            if not stock:
                available[chosen] = float(available_cores[chosen])
            if not fits[chosen]:
                candidates.remove(chosen)
                if not candidates:
                    results.extend([None] * (len(task_ids) - len(results)))
                    break
        return results
