"""The compute-harvesting scheduler's per-server state, as numpy columns.

In YARN-H (Section 5.3) the Resource Manager's view of free capacity and the
NodeManagers' reserve enforcement are one protocol over one set of servers.
A :class:`FleetState` is that protocol's only state: one row per server, in
the cluster's order, with

* capacity and reserve (cores / memory GB),
* the running containers (one insertion-ordered dict per row) and the
  resources they hold (allocated columns and running count),
* the RM's heartbeat view of available resources,
* the utilization-class label,
* the owning tenant's row in a :class:`~repro.traces.matrix.TraceMatrix`,
  so every server's primary utilization is one gather.

A heartbeat round is one trace gather plus a handful of elementwise array
operations; container placement is a boolean mask intersection plus one
weighted draw; and the Algorithm 1 class statistics are masked reductions.

The companion of :class:`~repro.storage.block_table.BlockTable` (the storage
side): TraceMatrix answers "which servers are busy?", FleetState answers
"where can this container run?".

Arithmetic contract
-------------------

Every array expression follows the per-server :class:`Resource` arithmetic
of the modelled NodeManager operation for operation — the rounded-up
primary usage, the per-dimension ``max(0, a - b)`` clamp of
``Resource.__sub__`` and the *order* of those clampings — so a fixed seed
schedules bit-identically to the scalar per-server reference the tests keep
(``tests/scalar_cluster.py``).  The allocated columns are maintained
incrementally, which equals the in-order re-sum of a row's containers as
long as allocations sit on a 1/256 binary grid (the shipped workloads use
1 core / 2 GB containers).  Off-grid allocations can only come from outside
the program — a replayed workload trace may carry ``"cores": 0.1`` — and the
first such launch flips a guard: from then on every refresh re-sums the
allocated columns from the containers, and reserve kills take the per-row
walk of :meth:`FleetState._reclaim_row`, which re-sums after every kill,
instead of the prefix-sum sweep of :meth:`FleetState._batch_reclaim`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import Resource
from repro.cluster.server import Container
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.matrix import TraceMatrix


def _check_fractions(cpu_fraction: float, memory_fraction: float) -> None:
    if not 0.0 <= cpu_fraction < 1.0:
        raise ValueError(f"cpu_fraction must be in [0, 1) (got {cpu_fraction})")
    if not 0.0 <= memory_fraction < 1.0:
        raise ValueError(f"memory_fraction must be in [0, 1) (got {memory_fraction})")


class FleetState:
    """Numpy columns over every server of a harvesting cluster.

    Args:
        rows: the cluster's ``(server, owning tenant)`` pairs, in row order.
        cpu_fraction: fraction of each server's cores held in reserve.
        memory_fraction: fraction of each server's memory held in reserve.
        primary_aware: whether the NodeManagers account for the primary
            tenant (every variant but Stock): aware servers publish the
            harvestable room and kill containers when the primary bursts
            into the reserve; oblivious ones publish capacity minus
            allocations and never kill.
    """

    #: Epsilon of ``Resource.fits_within``; every fit comparison — the batch
    #: :meth:`fits_mask` and the RM wave loop's incremental single-row
    #: recheck — must use this same constant or waves diverge from
    #: per-request scheduling.
    FIT_EPSILON = 1e-9

    def __init__(
        self,
        rows: Sequence[Tuple[Server, PrimaryTenant]],
        cpu_fraction: float,
        memory_fraction: float,
        primary_aware: bool,
    ) -> None:
        _check_fractions(cpu_fraction, memory_fraction)
        self.primary_aware = primary_aware
        self._ids: List[str] = [server.server_id for server, _ in rows]
        self._tenant_ids: List[str] = [tenant.tenant_id for _, tenant in rows]
        self._index_of: Dict[str, int] = {}
        for index, server_id in enumerate(self._ids):
            if server_id in self._index_of:
                raise ValueError(f"server {server_id} already registered")
            self._index_of[server_id] = index
        self._labels: List[Optional[str]] = [None] * len(rows)

        self.capacity_cores = np.array([float(s.cores) for s, _ in rows])
        self.capacity_memory = np.array([float(s.memory_gb) for s, _ in rows])
        self.reserve_cores = self.capacity_cores * cpu_fraction
        self.reserve_memory = self.capacity_memory * memory_fraction
        self.allocated_cores = np.zeros(len(rows))
        self.allocated_memory = np.zeros(len(rows))
        self.available_cores = np.zeros(len(rows))
        self.available_memory = np.zeros(len(rows))
        self.running_containers = np.zeros(len(rows), dtype=np.int64)
        # Container id -> container, in launch order, per row.
        self._running: List[Dict[int, Container]] = [{} for _ in rows]

        # One TraceMatrix row per distinct tenant, in first-seen order.
        tenants: Dict[str, PrimaryTenant] = {}
        for _, tenant in rows:
            if tenant.trace is None:
                raise ValueError(f"tenant {tenant.tenant_id} has no utilization trace")
            tenants.setdefault(tenant.tenant_id, tenant)
        # An empty fleet has no trace to read (TraceMatrix needs a tenant);
        # it never kills and reports zero utilization.
        self._traces: Optional[TraceMatrix] = None
        self._trace_rows = np.zeros(0, dtype=np.int64)
        if tenants:
            self._traces = TraceMatrix(list(tenants.values()))
            self._trace_rows = np.array(
                [self._traces.row_of_tenant(t) for t in self._tenant_ids],
                dtype=np.int64,
            )

        self._label_masks: Dict[Optional[str], np.ndarray] = {}
        # Combined (multi-label) masks, keyed order-independently: the mask
        # is an OR of per-label masks, so every ordering of the same label
        # set yields identical bits.  Cleared with _label_masks.
        self._combined_label_masks: Dict[frozenset, np.ndarray] = {}
        self._cached_util_time: Optional[float] = None
        self._cached_util: Optional[np.ndarray] = None
        # Off-grid guard (see the module docstring): set by the first launch
        # whose allocation is not exactly representable on the 1/256 grid.
        self._inexact_allocations = False

    # -- rows ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def server_ids(self) -> List[str]:
        """Server ids in row order."""
        return list(self._ids)

    @property
    def tenant_ids(self) -> List[str]:
        """Each row's owning tenant id, in row order."""
        return list(self._tenant_ids)

    def index_of(self, server_id: str) -> int:
        """Row index of a server id; raises ``KeyError`` when unknown."""
        return self._index_of[server_id]

    def set_label(self, index: int, label: Optional[str]) -> None:
        """Update one server's utilization-class label."""
        if self._labels[index] != label:
            self._labels[index] = label
            self._label_masks.clear()
            self._combined_label_masks.clear()

    def label_of(self, index: int) -> Optional[str]:
        """The label currently carried by row ``index``."""
        return self._labels[index]

    def apply_reserve(self, cpu_fraction: float, memory_fraction: float) -> None:
        """Re-size every server's protection reserve to the given fractions.

        The online reserve controllers (predictor-ablation scenarios) call
        this each control tick; the next heartbeat enforces the new size.
        """
        _check_fractions(cpu_fraction, memory_fraction)
        self.reserve_cores = self.capacity_cores * cpu_fraction
        self.reserve_memory = self.capacity_memory * memory_fraction

    # -- containers ---------------------------------------------------------

    def launch(
        self,
        index: int,
        task_id: str,
        job_id: str,
        allocation: Resource,
        time: float,
    ) -> Container:
        """Start a container on row ``index`` and deduct it from the RM view.

        The RM-view deduction mirrors ``available - allocation`` (clamped at
        zero per dimension by ``Resource.__sub__``).
        """
        cores = allocation.cores
        memory_gb = allocation.memory_gb
        if not self._inexact_allocations and not (
            (cores * 256.0).is_integer() and (memory_gb * 256.0).is_integer()
        ):
            self._inexact_allocations = True
        container = Container(task_id, job_id, allocation, self._ids[index], time)
        self._running[index][container.container_id] = container
        self.allocated_cores[index] += cores
        self.allocated_memory[index] += memory_gb
        self.running_containers[index] += 1
        self.available_cores[index] = max(0.0, self.available_cores[index] - cores)
        self.available_memory[index] = max(
            0.0, self.available_memory[index] - memory_gb
        )
        return container

    def complete(self, container: Container, time: float) -> None:
        """Finish a running container and return its resources to the RM view."""
        index = self._index_of[container.server_id]
        container.finish(time)
        self._drop(index, container)
        self.available_cores[index] += container.allocation.cores
        self.available_memory[index] += container.allocation.memory_gb

    def _kill(self, index: int, container: Container, time: float) -> None:
        container.kill(time)
        self._drop(index, container)

    def _drop(self, index: int, container: Container) -> None:
        del self._running[index][container.container_id]
        self.allocated_cores[index] -= container.allocation.cores
        self.allocated_memory[index] -= container.allocation.memory_gb
        self.running_containers[index] -= 1

    def _row_sums(self, index: int) -> Tuple[float, float]:
        """Fresh in-order re-sum of a row's running allocations."""
        cores = memory_gb = 0.0
        for container in self._running[index].values():
            cores += container.allocation.cores
            memory_gb += container.allocation.memory_gb
        return cores, memory_gb

    def _recompute_allocations(self) -> None:
        """Rebuild the allocated columns from fresh per-row re-sums.

        The refresh-time path for fleets that have seen off-grid allocations;
        incremental maintenance resumes from the recomputed values.
        """
        for index in range(len(self._ids)):
            cores, memory_gb = self._row_sums(index)
            self.allocated_cores[index] = cores
            self.allocated_memory[index] = memory_gb

    # -- batch queries ------------------------------------------------------

    def primary_utilization(self, time: float) -> np.ndarray:
        """Every server's primary-tenant utilization at ``time`` (one gather).

        Each value is the owning tenant's raw trace lookup, each trace
        wrapping at its own length, exactly as ``tenant.utilization_at``.
        """
        if self._cached_util_time == time and self._cached_util is not None:
            return self._cached_util
        if self._traces is None:
            util = np.zeros(0)
        else:
            util = self._traces.utilization_at(time)[self._trace_rows]
        # The cached array is handed out by reference; freeze it so a caller
        # mutation cannot poison later same-timestamp queries.
        util.flags.writeable = False
        self._cached_util_time = time
        self._cached_util = util
        return util

    def total_utilization(self, time: float) -> np.ndarray:
        """Per-server combined primary + secondary CPU utilization."""
        primary = self.primary_utilization(time)
        return np.minimum(1.0, primary + self.allocated_cores / self.capacity_cores)

    def secondary_cpu_fraction(self) -> np.ndarray:
        """Per-server CPU fraction allocated to batch containers."""
        return self.allocated_cores / self.capacity_cores

    def label_mask(self, labels: Sequence[str]) -> np.ndarray:
        """Boolean row mask of servers carrying any of ``labels``.

        The combined mask is cached per label *set* — an OR of per-label
        masks is order-independent, so permuted label lists share one
        entry.  The returned array is frozen; callers combine it with
        ``&``/indexing and must not mutate it.
        """
        key = frozenset(labels)
        cached = self._combined_label_masks.get(key)
        if cached is None:
            cached = np.zeros(len(self._ids), dtype=bool)
            for label in labels:
                cached |= self._single_label_mask(label)
            cached.flags.writeable = False
            self._combined_label_masks[key] = cached
        return cached

    def _single_label_mask(self, label: Optional[str]) -> np.ndarray:
        cached = self._label_masks.get(label)
        if cached is None:
            cached = np.array([lbl == label for lbl in self._labels], dtype=bool)
            self._label_masks[label] = cached
        return cached

    def fits_mask(self, cores: float, memory_gb: float) -> np.ndarray:
        """Servers whose RM-view available resources fit an allocation.

        Mirrors ``Resource.fits_within`` including its epsilon.
        """
        epsilon = self.FIT_EPSILON
        return (cores <= self.available_cores + epsilon) & (
            memory_gb <= self.available_memory + epsilon
        )

    # -- heartbeats ---------------------------------------------------------

    def refresh(self, time: float) -> List[Container]:
        """One heartbeat round over every server; returns the containers killed.

        Aware servers first enforce the reserve where the primary tenant
        burst into it (youngest containers die first; kills are reported row
        by row), then every server publishes its available resources to the
        RM view.
        """
        if not self._ids:
            return []
        if self._inexact_allocations:
            self._recompute_allocations()
        killed: List[Container] = []
        if not self.primary_aware:
            self.available_cores = np.maximum(
                0.0, self.capacity_cores - self.allocated_cores
            )
            self.available_memory = np.maximum(
                0.0, self.capacity_memory - self.allocated_memory
            )
            return killed
        util = self.primary_utilization(time)
        # Resource arithmetic, vectorized: ceil(primary usage), then
        # capacity - (ceil + reserve) with the per-dimension max(0, .)
        # clamp of Resource.__sub__.
        ceil_cores = np.ceil(util * self.capacity_cores)
        ceil_memory = np.ceil(util * self.capacity_memory * 0.5)
        harvest_cores = np.maximum(
            0.0, self.capacity_cores - (ceil_cores + self.reserve_cores)
        )
        harvest_memory = np.maximum(
            0.0, self.capacity_memory - (ceil_memory + self.reserve_memory)
        )
        # Reserve violations: allocated intrudes past the harvestable room
        # (Resource.is_zero tolerance).
        violated = (self.running_containers > 0) & (
            (self.allocated_cores - harvest_cores > 1e-12)
            | (self.allocated_memory - harvest_memory > 1e-12)
        )
        if violated.any():
            rows = np.flatnonzero(violated)
            if self._inexact_allocations:
                for index in rows:
                    killed.extend(
                        self._reclaim_row(
                            index, harvest_cores[index], harvest_memory[index], time
                        )
                    )
            else:
                killed.extend(
                    self._batch_reclaim(rows, harvest_cores, harvest_memory, time)
                )
        self.available_cores = np.maximum(0.0, harvest_cores - self.allocated_cores)
        self.available_memory = np.maximum(0.0, harvest_memory - self.allocated_memory)
        return killed

    def _reclaim_row(
        self, index: int, harvest_cores: float, harvest_memory: float, time: float
    ) -> List[Container]:
        """Youngest-first kills on one row until its reserve is restored.

        The off-grid path: after each kill the remaining allocations are
        re-summed fresh, so the stop test never reads incremental sums.
        ``sorted(..., reverse=True)`` keeps launch order among start-time
        ties.
        """
        killed: List[Container] = []
        for container in sorted(
            self._running[index].values(), key=lambda c: c.start_time, reverse=True
        ):
            cores, memory_gb = self._row_sums(index)
            if cores - harvest_cores <= 1e-12 and memory_gb - harvest_memory <= 1e-12:
                break
            self._kill(index, container, time)
            killed.append(container)
        return killed

    def _batch_reclaim(
        self,
        rows: np.ndarray,
        harvest_cores: np.ndarray,
        harvest_memory: np.ndarray,
        time: float,
    ) -> List[Container]:
        """Youngest-first reserve kills for every violating row, in one sweep.

        The on-grid equivalent of :meth:`_reclaim_row` for all violators at
        once: sort every violator's running containers youngest-first (one
        stable ``lexsort`` keyed by row then descending start time — ties
        keep launch order, exactly like ``sorted(..., reverse=True)``), take
        per-row prefix sums of the victims' allocations, and kill the
        shortest prefix whose removal clears the violation.

        The stop condition is the per-row walk's: after killing a prefix,
        the remaining allocation must sit within the harvestable room to a
        1e-12 tolerance on both dimensions.  On the 1/256 allocation grid
        the prefix-sum arithmetic is exact, so "total minus killed prefix"
        equals the walk's fresh per-kill re-sum bit for bit.  Kills are
        applied and reported row by row in row order.
        """
        keep_rows: List[int] = []
        running_lists: List[List[Container]] = []
        for index in rows:
            running = self._running[index]
            if running:
                keep_rows.append(int(index))
                running_lists.append(list(running.values()))
        if not keep_rows:
            return []
        counts = np.array([len(r) for r in running_lists], dtype=np.int64)
        total = int(counts.sum())
        seg = np.repeat(np.arange(len(keep_rows), dtype=np.int64), counts)
        start_times = np.empty(total)
        victim_cores = np.empty(total)
        victim_memory = np.empty(total)
        flat: List[Container] = []
        i = 0
        for running in running_lists:
            for container in running:
                start_times[i] = container.start_time
                victim_cores[i] = container.allocation.cores
                victim_memory[i] = container.allocation.memory_gb
                flat.append(container)
                i += 1
        order = np.lexsort((-start_times, seg))
        cum_cores = np.cumsum(victim_cores[order])
        cum_memory = np.cumsum(victim_memory[order])
        bounds = np.zeros(len(keep_rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        base_cores = np.concatenate(([0.0], cum_cores))[bounds[:-1]]
        base_memory = np.concatenate(([0.0], cum_memory))[bounds[:-1]]
        row_index = np.asarray(keep_rows, dtype=np.int64)
        after_cores = np.repeat(self.allocated_cores[row_index], counts) - (
            cum_cores - base_cores[seg]
        )
        after_memory = np.repeat(self.allocated_memory[row_index], counts) - (
            cum_memory - base_memory[seg]
        )
        cleared = (
            after_cores - np.repeat(harvest_cores[row_index], counts) <= 1e-12
        ) & (after_memory - np.repeat(harvest_memory[row_index], counts) <= 1e-12)
        positions = np.arange(total, dtype=np.int64)
        first_cleared = np.minimum.reduceat(
            np.where(cleared, positions, total), bounds[:-1]
        )
        kill_counts = np.where(
            first_cleared < bounds[1:], first_cleared - bounds[:-1] + 1, counts
        )
        killed: List[Container] = []
        for s, index in enumerate(keep_rows):
            start = int(bounds[s])
            for t in range(start, start + int(kill_counts[s])):
                victim = flat[order[t]]
                self._kill(index, victim, time)
                killed.append(victim)
        return killed

    # -- placement ----------------------------------------------------------

    def draw_proportional(self, candidates: np.ndarray, rng) -> int:
        """Pick a candidate row with probability proportional to free cores.

        ``candidates`` is an ascending array of row indices, so the weight
        vector follows row order and the draw consumes the random stream
        identically to a per-server candidate list.
        """
        weights = np.maximum(1e-9, self.available_cores[candidates])
        return int(candidates[rng.weighted_index(weights)])

    def most_available(self, candidates: np.ndarray) -> int:
        """The stock-YARN pick: most free cores, ties to the largest id."""
        cores = self.available_cores[candidates]
        best = candidates[cores == cores.max()]
        if len(best) == 1:
            return int(best[0])
        return int(max(best, key=lambda index: self._ids[index]))
