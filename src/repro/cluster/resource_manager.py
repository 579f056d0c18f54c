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
batched trace gather plus a reserve-violation mask, and container placement
is a boolean mask intersection feeding one weighted draw per request.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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


@dataclass
class ContainerRequest:
    """A container request from an Application Master.

    Attributes:
        job_id: requesting job.
        task_id: the task that will run in the container.
        allocation: requested cores and memory.
        node_labels: acceptable utilization-class labels (empty = any server).
    """

    job_id: str
    task_id: str
    allocation: Resource
    node_labels: List[str] = field(default_factory=list)


class ResourceManager:
    """Cluster-wide container scheduler with pluggable awareness level.

    Args:
        fleet: the cluster's servers; every variant but Stock builds it
            primary-aware.
        mode: which scheduler variant to behave as.
        rng: the placement draw stream.

    Attributes:
        waves_coalesced: waves the placement fast path served from a
            maintained candidate-mask entry.
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
        # Request shapes (allocation, labels) that the current cluster state
        # provably cannot place: a wave that left requests unsatisfied ran
        # out of candidates, and placements only ever consume availability,
        # so the shape stays unplaceable until something returns capacity or
        # changes the view — any heartbeat refresh (which also carries the
        # kills), completion, or label change clears the set.
        self._exhausted: set = set()

    @property
    def fleet(self) -> FleetState:
        """The per-server state this RM schedules over."""
        return self._fleet

    def set_label(self, server_id: str, label: Optional[str]) -> None:
        """Update a server's utilization-class label (after re-clustering)."""
        self._fleet.set_label(self._fleet.index_of(server_id), label)
        self._exhausted.clear()

    # -- heartbeats -----------------------------------------------------------

    def process_heartbeats(self, time: float) -> List[Container]:
        """Collect a heartbeat from every server; returns containers killed.

        The RM's view of available resources is refreshed from the heartbeats,
        exactly as the real systems piggyback utilization on the existing
        heartbeat protocol — here as one batch refresh over the fleet.
        """
        killed = self._fleet.refresh(time)
        self._exhausted.clear()
        return killed

    # -- utilization visibility -------------------------------------------------

    def average_total_utilization(self, time: float) -> float:
        """Mean combined (primary + secondary) CPU utilization."""
        if not len(self._fleet):
            return 0.0
        # The reduction stays a sequential Python sum over row order.
        values = self._fleet.total_utilization(time)
        return sum(values.tolist()) / len(self._fleet)

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
        """Whether a wave of this shape is known to be unplaceable right now.

        ``shape`` is ``(cores, memory_gb, tuple(node_labels))``.  True only
        between a wave that left requests of this exact shape unsatisfied
        and the next event that could return capacity or change eligibility
        (heartbeat refresh, kill, completion, label change).  Starved pump
        waves use it to skip rebuilding their request lists entirely: a
        skipped wave would have drawn nothing and placed nothing, so
        skipping is draw-invisible.
        """
        return shape in self._exhausted

    def _candidate_mask(self, request: ContainerRequest) -> np.ndarray:
        """Boolean row mask of servers eligible for the request."""
        fits = self._fleet.fits_mask(
            request.allocation.cores, request.allocation.memory_gb
        )
        if self.mode is SchedulerMode.HISTORY and request.node_labels:
            labelled = self._fleet.label_mask(request.node_labels)
            # Fall back to the default policy if the labels name no servers,
            # mirroring the RM's behaviour when a label is unknown.
            if labelled.any():
                return fits & labelled
        return fits

    def begin_batch(self, time: float) -> "WaveBatch":
        """A mask-coalescing scheduling context for one pump tick.

        Placement draws each destination with probability proportional to
        available cores (the paper's probabilistic load balancing); Stock
        mode keeps YARN's default most-available-first choice.
        """
        return WaveBatch(self, time)

    def complete(self, container: Container, time: float) -> None:
        """Mark a container completed and release its resources on the RM view."""
        self._fleet.complete(container, time)
        self._exhausted.clear()


class _ShapeEntry:
    """One maintained candidate mask of a :class:`WaveBatch` shape.

    ``seen`` is the length of the batch's placement log the mask is
    current with; an entry catches up lazily when its shape is next
    scheduled (see :meth:`WaveBatch.schedule`).
    """

    __slots__ = ("cores", "memory_gb", "mask", "candidates", "seen")

    def __init__(
        self, cores: float, memory_gb: float, mask: np.ndarray, seen: int
    ) -> None:
        self.cores = cores
        self.memory_gb = memory_gb
        self.mask = mask
        self.candidates: Optional[np.ndarray] = None
        self.seen = seen


class WaveBatch:
    """Mask-coalescing placement context for one pump tick's waves.

    One pump tick submits many uniform waves back to back — one per live
    execution — and between them nothing touches the fleet's availability
    view (launch bookkeeping schedules engine events and writes task
    tables; only placements consume capacity, and completions arrive as
    separate engine events).  A wave's candidate mask is therefore
    invariant *across* wave boundaries too, not just within a wave, and the
    batch keeps one maintained mask per ``(allocation, labels)`` shape it
    has seen:

    * a freshly built mask is ``fits_now & labelled`` (labels are static
      within a tick);
    * placements only *consume* availability, so the only bits of any
      maintained mask that can flip are the chosen servers' — the batch
      logs every chosen row, the active shape rechecks each placement
      immediately, and a dormant shape catches up when it is next
      scheduled, replaying the log entries it missed (or rebuilding from
      the fleet outright when it is too far behind) with the same epsilon
      the batch ``fits_mask`` uses;
    * bits only ever clear (availability never grows mid-tick), so the
      maintained mask equals the freshly built one at every wave boundary.

    Later waves of an already-seen shape therefore reuse the maintained
    mask instead of rebuilding fits and label masks from the fleet
    (``waves_coalesced`` counts these reuses; on a tiny fig13 sweep this
    turns ~130k mask builds into a few thousand).  Every placement draws
    from the random stream individually, in submission order, and each
    wave updates the exhaustion set exactly as a wave scheduled in a batch
    of its own would — a fixed seed schedules bit-identically through one
    batch and through one batch per wave.
    """

    __slots__ = (
        "_rm",
        "_time",
        "_entries",
        "_log",
        "_fleet",
        "_avail_cores",
        "_avail_memory",
        "_stock",
    )

    #: Replay horizon: an entry reused after more placements than this is
    #: rebuilt from the fleet instead of replayed placement-by-placement.
    REPLAY_LIMIT = 32

    def __init__(self, rm: ResourceManager, time: float) -> None:
        self._rm = rm
        self._time = time
        self._entries: Dict[tuple, _ShapeEntry] = {}
        # Every chosen row, in placement order; dormant entries replay
        # their unseen suffix when their shape next schedules.
        self._log: List[int] = []
        # A batch lives within one engine event, so the fleet's availability
        # arrays are stable object references for its whole lifetime
        # (launches mutate them in place; only a heartbeat refresh replaces
        # them, and it happens in another event).
        fleet = rm._fleet
        self._fleet = fleet
        self._avail_cores = fleet.available_cores
        self._avail_memory = fleet.available_memory
        self._stock = rm.mode is SchedulerMode.STOCK

    def schedule(
        self,
        requests: Sequence[ContainerRequest],
        uniform: bool = False,
        key: Optional[tuple] = None,
    ) -> List[Optional[Container]]:
        """Place one uniform wave; one entry per request, in order.

        ``uniform=True`` asserts the caller already guarantees every
        request carries the same allocation and node labels (the
        Application Master's cached request lists do by construction) and
        skips the per-request validation scan.  ``key`` optionally supplies
        the precomputed ``(cores, memory_gb, frozenset(labels))`` entry key
        for the wave's shape.
        """
        results: List[Optional[Container]] = []
        if not requests:
            return results
        rm = self._rm
        first = requests[0]
        cores = first.allocation.cores
        memory_gb = first.allocation.memory_gb
        if not uniform:
            for request in requests[1:]:
                if (
                    request.allocation.cores != cores
                    or request.allocation.memory_gb != memory_gb
                    or request.node_labels != first.node_labels
                ):
                    raise ValueError(
                        "a wave must be uniform: every request "
                        "must carry the same allocation and node_labels"
                    )
        fleet = self._fleet
        available_cores = self._avail_cores
        available_memory = self._avail_memory
        epsilon = FleetState.FIT_EPSILON
        log = self._log
        # Entries are keyed order-independently (label set, not label
        # list): the candidate mask is ``fits & (OR of label masks)``, so
        # permuted label orderings — common across jobs sharing a class
        # pair — have bit-identical masks and share one maintained entry.
        if key is None:
            key = (cores, memory_gb, frozenset(first.node_labels))
        entry = self._entries.get(key)
        if entry is not None:
            rm.waves_coalesced += 1
            behind = len(log) - entry.seen
            if behind:
                if behind <= self.REPLAY_LIMIT:
                    mask = entry.mask
                    for chosen in log[entry.seen :]:
                        if mask[chosen] and not (
                            cores <= available_cores[chosen] + epsilon
                            and memory_gb <= available_memory[chosen] + epsilon
                        ):
                            mask[chosen] = False
                            entry.candidates = None
                else:
                    entry.mask = rm._candidate_mask(first)
                    entry.candidates = None
                entry.seen = len(log)
        else:
            entry = _ShapeEntry(
                cores, memory_gb, rm._candidate_mask(first), len(log)
            )
            self._entries[key] = entry
        stock = self._stock
        unsatisfied = False
        for request in requests:
            candidates = entry.candidates
            if candidates is None:
                candidates = entry.candidates = entry.mask.nonzero()[0]
            if len(candidates) == 0:
                unsatisfied = True
                results.append(None)
                continue
            if stock:
                chosen = fleet.most_available(candidates)
            else:
                chosen = fleet.draw_proportional(candidates, rm._rng)
            container = fleet.launch(
                chosen, request.task_id, request.job_id, request.allocation, self._time
            )
            results.append(container)
            log.append(chosen)
            # The chosen server is the only one whose availability moved;
            # the active shape rechecks it now, dormant shapes catch up
            # from the log on their next wave.
            if entry.mask[chosen] and not (
                cores <= available_cores[chosen] + epsilon
                and memory_gb <= available_memory[chosen] + epsilon
            ):
                entry.mask[chosen] = False
                entry.candidates = None
        entry.seen = len(log)
        if unsatisfied:
            # Candidate bits are only ever cleared within a batch, so an
            # unsatisfied request means the shape ended with zero
            # candidates — remember that until capacity can return.  The
            # exhaustion set keys on the exact (ordered) label tuple, the
            # shape the Application Master checks with shape_exhausted().
            rm._exhausted.add((cores, memory_gb, tuple(first.node_labels)))
        return results
