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

A primary tenant's utilization only changes when a new trace sample begins
(every ``SAMPLE_INTERVAL_SECONDS``), while NodeManagers heartbeat far more
often.  The first heartbeat of a sample is one trace gather plus a handful
of elementwise array operations over every row; a later heartbeat in the
same sample revisits only the rows a launch or a completion touched since
the previous one, since no other row can have changed.  The Algorithm 1
class statistics are masked reductions.  Container placement reads the
*fit index*: for each container allocation in use, the ascending rows whose
RM view fits it, in total and per label.  It is built lazily from
:meth:`FleetState.fits_mask` after a full refresh or a label change; kept
exact across mid-sample heartbeats, launches and completions by rechecking
the rows they touched, so "can this shape be placed at all?" costs a few
dictionary lookups and a placement draws over the candidate rows as plain
floats.

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
first such launch flips a guard: from then on every refresh takes the full
path and re-sums the allocated columns from the containers, and the
reserve-kill walk (:meth:`FleetState._reclaim_row`) re-sums the row before
every kill instead of subtracting the victims from the allocated column.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import chain
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.resources import Resource
from repro.cluster.server import Container
from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.matrix import TraceMatrix


def _check_fractions(cpu_fraction: float, memory_fraction: float) -> None:
    if not 0.0 <= cpu_fraction < 1.0:
        raise ValueError(f"cpu_fraction must be in [0, 1) (got {cpu_fraction})")
    if not 0.0 <= memory_fraction < 1.0:
        raise ValueError(f"memory_fraction must be in [0, 1) (got {memory_fraction})")


class FitIndex:
    """The rows whose RM view fits one allocation, kept exact.

    ``fits`` is one flag per row; ``rows`` lists the fitting rows in
    ascending order and ``by_label`` the same rows split by label (a label
    whose rows all stopped fitting keeps an empty list).
    """

    __slots__ = ("fits", "rows", "by_label")

    def __init__(self, mask: np.ndarray, labels: Sequence[Optional[str]]) -> None:
        self.fits: List[bool] = mask.tolist()
        self.rows: List[int] = np.flatnonzero(mask).tolist()
        self.by_label: Dict[Optional[str], List[int]] = {}
        for row in self.rows:
            self.by_label.setdefault(labels[row], []).append(row)

    def update(self, row: int, fits: bool, label: Optional[str]) -> None:
        """Record that ``row`` (carrying ``label``) flipped to ``fits``."""
        self.fits[row] = fits
        labelled = self.by_label.setdefault(label, [])
        if fits:
            insort(self.rows, row)
            insort(labelled, row)
        else:
            del self.rows[bisect_left(self.rows, row)]
            del labelled[bisect_left(labelled, row)]


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
        trace_matrix: a prebuilt matrix with a row for every tenant in
            ``rows``, holding their traces (e.g. the one a scaled set was
            written into, shared by several clusters); built from the
            tenants when omitted.
    """

    #: Epsilon of ``Resource.fits_within``; every fit comparison — the batch
    #: :meth:`fits_mask` and the fit index's single-row recheck — must use
    #: this same constant or waves diverge from per-request scheduling.
    FIT_EPSILON = 1e-9

    def __init__(
        self,
        rows: Sequence[Tuple[Server, PrimaryTenant]],
        cpu_fraction: float,
        memory_fraction: float,
        primary_aware: bool,
        trace_matrix: Optional[TraceMatrix] = None,
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

        # One TraceMatrix row per distinct tenant (first-seen order when
        # the fleet builds it).
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
            self._traces = (
                TraceMatrix(list(tenants.values()))
                if trace_matrix is None
                else trace_matrix
            )
            self._trace_rows = np.array(
                [self._traces.row_of_tenant(t) for t in self._tenant_ids],
                dtype=np.int64,
            )

        self._label_masks: Dict[Optional[str], np.ndarray] = {}
        # Fit index per (cores, memory_gb) allocation, built on first use;
        # cleared by a full refresh (which replaces the available columns)
        # and by a label change.
        self._fit_index: Dict[Tuple[float, float], FitIndex] = {}
        self._present_labels: Optional[set] = None
        # Trace sample of the last full refresh; None forces the next
        # refresh onto the full path (apply_reserve sets it so).
        self._full_sample: Optional[int] = None
        # The room the last full refresh published against: the harvest
        # columns, or capacity for a primary-oblivious fleet.
        self._room_cores = self.capacity_cores
        self._room_memory = self.capacity_memory
        # Rows launched on or completed on since the last refresh.
        self._dirty: set = set()
        # Heartbeat caches: the primary array per trace sample, the
        # secondary fraction per allocation version (bumped by every change
        # to the allocated columns), and their mean per (sample, version).
        self._allocation_version = 0
        self._util_sample: Optional[int] = None
        self._util = np.zeros(0)
        self._util.flags.writeable = False
        self._secondary_version = -1
        self._secondary: Optional[np.ndarray] = None
        self._mean_key: Optional[Tuple[int, int]] = None
        self._mean = 0.0
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
            self._fit_index.clear()
            self._present_labels = None

    def label_of(self, index: int) -> Optional[str]:
        """The label currently carried by row ``index``."""
        return self._labels[index]

    def apply_reserve(self, cpu_fraction: float, memory_fraction: float) -> None:
        """Re-size every server's protection reserve to the given fractions.

        The online reserve controllers (predictor-ablation scenarios) call
        this each control tick; the next heartbeat, a full refresh, enforces
        the new size.
        """
        _check_fractions(cpu_fraction, memory_fraction)
        self.reserve_cores = self.capacity_cores * cpu_fraction
        self.reserve_memory = self.capacity_memory * memory_fraction
        self._full_sample = None

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
        self._allocation_version += 1
        self._dirty.add(index)
        self.available_cores[index] = max(0.0, self.available_cores[index] - cores)
        self.available_memory[index] = max(
            0.0, self.available_memory[index] - memory_gb
        )
        if self._fit_index:
            self._refit(index)
        return container

    def complete(self, container: Container, time: float) -> None:
        """Finish a running container and return its resources to the RM view."""
        index = self._index_of[container.server_id]
        container.finish(time)
        self._drop(index, container)
        self._dirty.add(index)
        self.available_cores[index] += container.allocation.cores
        self.available_memory[index] += container.allocation.memory_gb
        if self._fit_index:
            self._refit(index)

    def _refit(self, index: int) -> None:
        """Recheck one row against every indexed allocation (``fits_mask``)."""
        epsilon = self.FIT_EPSILON
        cores_room = float(self.available_cores[index]) + epsilon
        memory_room = float(self.available_memory[index]) + epsilon
        for (cores, memory_gb), fit in self._fit_index.items():
            fits = cores <= cores_room and memory_gb <= memory_room
            if fits != fit.fits[index]:
                fit.update(index, fits, self._labels[index])

    def _kill(self, index: int, container: Container, time: float) -> None:
        container.kill(time)
        self._drop(index, container)

    def _drop(self, index: int, container: Container) -> None:
        del self._running[index][container.container_id]
        self.allocated_cores[index] -= container.allocation.cores
        self.allocated_memory[index] -= container.allocation.memory_gb
        self.running_containers[index] -= 1
        self._allocation_version += 1

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
        self._allocation_version += 1

    # -- batch queries ------------------------------------------------------

    def primary_utilization(self, time: float) -> np.ndarray:
        """Every server's primary-tenant utilization at ``time`` (one gather).

        Each value is the owning tenant's raw trace lookup, each trace
        wrapping at its own length, exactly as ``tenant.utilization_at``.
        Every time in one trace sample reads the same values, so the array
        is cached per sample; it is read-only, because callers share it.
        """
        if self._traces is None:
            return self._util
        sample = self._traces.sample_of(time)
        if sample == self._util_sample:
            return self._util
        util = self._traces.utilization_at(time)[self._trace_rows]
        util.flags.writeable = False
        self._util_sample = sample
        self._util = util
        return util

    def total_utilization(self, time: float) -> np.ndarray:
        """Per-server combined primary + secondary CPU utilization."""
        primary = self.primary_utilization(time)
        return np.minimum(1.0, primary + self.secondary_cpu_fraction())

    def average_total_utilization(self, time: float) -> float:
        """Mean combined (primary + secondary) CPU utilization.

        A sequential Python sum over row order, recomputed only when the
        trace sample or the allocations changed since the last call.
        """
        if self._traces is None:
            return 0.0
        key = (self._traces.sample_of(time), self._allocation_version)
        if key != self._mean_key:
            self._mean = sum(self.total_utilization(time).tolist()) / len(self._ids)
            self._mean_key = key
        return self._mean

    def secondary_cpu_fraction(self) -> np.ndarray:
        """Per-server CPU fraction allocated to batch containers.

        Cached until the allocations change; read-only, because callers
        share it.
        """
        if self._secondary_version != self._allocation_version:
            fraction = self.allocated_cores / self.capacity_cores
            fraction.flags.writeable = False
            self._secondary = fraction
            self._secondary_version = self._allocation_version
        return self._secondary

    def label_mask(self, labels: Sequence[str]) -> np.ndarray:
        """Boolean row mask of servers carrying any of ``labels``.

        Per-label masks are cached until a label changes; the result is a
        fresh array.
        """
        mask = np.zeros(len(self._ids), dtype=bool)
        for label in labels:
            cached = self._label_masks.get(label)
            if cached is None:
                cached = np.array([lbl == label for lbl in self._labels], dtype=bool)
                self._label_masks[label] = cached
            mask |= cached
        return mask

    def fits_mask(self, cores: float, memory_gb: float) -> np.ndarray:
        """Servers whose RM-view available resources fit an allocation.

        Mirrors ``Resource.fits_within`` including its epsilon.
        """
        epsilon = self.FIT_EPSILON
        return (cores <= self.available_cores + epsilon) & (
            memory_gb <= self.available_memory + epsilon
        )

    def fit_index(self, cores: float, memory_gb: float) -> FitIndex:
        """The (lazily built) fit index of one allocation."""
        key = (cores, memory_gb)
        fit = self._fit_index.get(key)
        if fit is None:
            fit = FitIndex(self.fits_mask(cores, memory_gb), self._labels)
            self._fit_index[key] = fit
        return fit

    def carries_any(self, labels: Collection[str]) -> bool:
        """Whether any server carries one of ``labels``."""
        present = self._present_labels
        if present is None:
            present = self._present_labels = set(self._labels)
        return not present.isdisjoint(labels)

    def fit_rows(
        self,
        cores: float,
        memory_gb: float,
        labels: Optional[Collection[str]] = None,
    ) -> List[int]:
        """A fresh ascending list of the rows that fit an allocation.

        With ``labels`` only rows carrying one of them count.  Each row
        carries one label, so the per-label lists are disjoint and their
        sorted concatenation is ascending whatever order ``labels`` iterate
        in.
        """
        fit = self.fit_index(cores, memory_gb)
        if labels is None:
            return list(fit.rows)
        by_label = fit.by_label
        return sorted(chain.from_iterable(by_label.get(label, ()) for label in labels))

    def any_fit(
        self,
        cores: float,
        memory_gb: float,
        labels: Optional[Collection[str]] = None,
    ) -> bool:
        """Whether :meth:`fit_rows` would be non-empty (O(labels))."""
        fit = self.fit_index(cores, memory_gb)
        if labels is None:
            return bool(fit.rows)
        by_label = fit.by_label
        for label in labels:
            if by_label.get(label):
                return True
        return False

    # -- heartbeats ---------------------------------------------------------

    def refresh(self, time: float) -> List[Container]:
        """One heartbeat round over every server; returns the containers killed.

        Aware servers first enforce the reserve where the primary tenant
        burst into it (youngest containers die first; kills are reported row
        by row, in ascending row order), then every server publishes its
        available resources to the RM view.

        Two paths give that same result.  The full path recomputes every
        row and drops the fit index; it runs on the first refresh, on the
        first refresh in a new trace sample (``TraceMatrix.sample_of``), after
        :meth:`apply_reserve`, and always once an off-grid allocation was
        launched.  Otherwise the primary usage, the reserve and so the
        harvestable room are those of the last full refresh, and only the
        rows launched on or completed on since the previous refresh can
        have changed: the dirty path applies the same per-row formula to
        those rows alone and rechecks them in the fit index, which
        survives.
        """
        if not self._ids:
            return []
        sample = self._traces.sample_of(time)
        if sample == self._full_sample and not self._inexact_allocations:
            return self._refresh_dirty(time)
        self._full_sample = sample
        self._dirty.clear()
        self._fit_index.clear()
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
        self._room_cores = harvest_cores
        self._room_memory = harvest_memory
        # Reserve violations: allocated intrudes past the harvestable room
        # (Resource.is_zero tolerance).
        violated = (self.running_containers > 0) & (
            (self.allocated_cores - harvest_cores > 1e-12)
            | (self.allocated_memory - harvest_memory > 1e-12)
        )
        for index in np.flatnonzero(violated).tolist():
            killed.extend(
                self._reclaim_row(
                    index,
                    float(harvest_cores[index]),
                    float(harvest_memory[index]),
                    time,
                )
            )
        self.available_cores = np.maximum(0.0, harvest_cores - self.allocated_cores)
        self.available_memory = np.maximum(0.0, harvest_memory - self.allocated_memory)
        return killed

    def _refresh_dirty(self, time: float) -> List[Container]:
        """The full refresh's per-row formula over the dirty rows only.

        A launch that fits only within ``FIT_EPSILON`` of the room (or one
        placed without a fit check) can overshoot it mid-sample, so the
        violation test stays.
        """
        killed: List[Container] = []
        if not self._dirty:
            return killed
        rows = sorted(self._dirty)
        self._dirty.clear()
        aware = self.primary_aware
        for index in rows:
            room_cores = float(self._room_cores[index])
            room_memory = float(self._room_memory[index])
            if (
                aware
                and self.running_containers[index] > 0
                and (
                    float(self.allocated_cores[index]) - room_cores > 1e-12
                    or float(self.allocated_memory[index]) - room_memory > 1e-12
                )
            ):
                killed.extend(self._reclaim_row(index, room_cores, room_memory, time))
            cores = max(0.0, room_cores - float(self.allocated_cores[index]))
            memory_gb = max(0.0, room_memory - float(self.allocated_memory[index]))
            # Launches and completions keep the fit index exact for the
            # values they wrote, so only a changed row needs a recheck.
            if (
                cores != self.available_cores[index]
                or memory_gb != self.available_memory[index]
            ):
                self.available_cores[index] = cores
                self.available_memory[index] = memory_gb
                if self._fit_index:
                    self._refit(index)
        return killed

    def _reclaim_row(
        self, index: int, harvest_cores: float, harvest_memory: float, time: float
    ) -> List[Container]:
        """Youngest-first kills on one row until its reserve is restored.

        ``sorted(..., reverse=True)`` keeps launch order among start-time
        ties.  The stop test before each kill reads the row's remaining
        allocation: on the 1/256 grid the allocated column minus the victims
        killed so far, which is exact and so equals a fresh re-sum; off the
        grid a fresh in-order re-sum of the running containers.
        """
        killed: List[Container] = []
        cores = float(self.allocated_cores[index])
        memory_gb = float(self.allocated_memory[index])
        for container in sorted(
            self._running[index].values(), key=lambda c: c.start_time, reverse=True
        ):
            if self._inexact_allocations:
                cores, memory_gb = self._row_sums(index)
            if cores - harvest_cores <= 1e-12 and memory_gb - harvest_memory <= 1e-12:
                break
            self._kill(index, container, time)
            killed.append(container)
            cores -= container.allocation.cores
            memory_gb -= container.allocation.memory_gb
        return killed

    # -- placement ----------------------------------------------------------

    @staticmethod
    def draw_proportional(
        candidates: List[int], available_cores: List[float], rng: RandomSource
    ) -> int:
        """Pick a candidate row with probability proportional to free cores.

        ``candidates`` is an ascending list of row indices, so the weight
        vector follows row order and the draw consumes the random stream
        identically to a per-server candidate list.  ``available_cores`` is a
        float copy of :attr:`available_cores` (the caller keeps it current);
        weights are floored at 1e-9 like ``np.maximum(1e-9, ...)``.
        """
        weights = [available_cores[row] for row in candidates]
        weights = [cores if cores > 1e-9 else 1e-9 for cores in weights]
        return candidates[rng.weighted_index_floats(weights)]

    def most_available(self, candidates: Sequence[int]) -> int:
        """The stock-YARN pick: most free cores, ties to the largest id."""
        candidates = np.asarray(candidates)
        cores = self.available_cores[candidates]
        best = candidates[cores == cores.max()]
        if len(best) == 1:
            return int(best[0])
        return int(max(best, key=lambda index: self._ids[index]))
