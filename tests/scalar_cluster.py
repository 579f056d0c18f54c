"""Scalar per-server reference for the compute scheduler, plus rig builders.

:class:`~repro.cluster.fleet_state.FleetState` runs the NodeManager
heartbeat, the youngest-first reserve kills and the RM candidate filter as
batch array operations.  This module keeps the per-server versions they
replaced — one Python object per server, :class:`Resource` arithmetic
throughout — as the oracle the equivalence tests compare against:

* :class:`ScalarServer` — one server's containers, its heartbeat and its
  reclaim walk (re-summing the allocations after every kill);
* :func:`scalar_candidates` and :class:`LegacyScalarScheduler` — the
  per-record candidate filter and draw (and with it the recount that
  ``ResourceManager.shape_exhausted`` must equal).

:class:`ContainerRequest` is the per-task request the tests phrase their
placements in; :func:`place` and :func:`schedule_wave` hand requests to the
production one-shape ``WaveBatch.schedule``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.fleet_state import FleetState
from repro.cluster.resource_manager import ResourceManager, SchedulerMode, WaveBatch
from repro.cluster.resources import Resource
from repro.cluster.server import Container
from repro.simulation.random import RandomSource
from repro.traces.datacenter import PrimaryTenant, Server
from repro.traces.utilization import UtilizationPattern, UtilizationTrace

Row = Tuple[Server, PrimaryTenant]

#: The cluster's default reserve fractions (the testbed's 4 of 12 cores and
#: 31% of memory).
CPU_FRACTION = 1.0 / 3.0
MEMORY_FRACTION = 0.31


def make_row(server_id: str, values, tenant_id: Optional[str] = None) -> Row:
    """One 12-core / 32 GB server owned by a tenant with trace ``values``.

    ``values`` is one utilization sample per 120 s (a bare float is a
    constant trace).
    """
    tenant_id = tenant_id or f"tenant-{server_id}"
    samples = np.atleast_1d(np.asarray(values, dtype=float))
    if samples.size == 1:
        samples = np.full(100, samples[0])
    tenant = PrimaryTenant(
        tenant_id=tenant_id,
        environment=f"env-{tenant_id}",
        machine_function="mf",
        trace=UtilizationTrace(samples, UtilizationPattern.CONSTANT),
        pattern=UtilizationPattern.CONSTANT,
    )
    server = Server(server_id, tenant_id, cores=12, memory_gb=32.0)
    tenant.servers.append(server)
    return server, tenant


def build_fleet(
    rows: Sequence[Row],
    mode: SchedulerMode = SchedulerMode.PRIMARY_AWARE,
    cpu_fraction: float = CPU_FRACTION,
    memory_fraction: float = MEMORY_FRACTION,
) -> FleetState:
    """A fleet over ``rows``, aware unless ``mode`` is Stock (as the cluster)."""
    return FleetState(
        rows,
        cpu_fraction,
        memory_fraction,
        primary_aware=mode is not SchedulerMode.STOCK,
    )


def build_rm(
    rows: Sequence[Row],
    mode: SchedulerMode = SchedulerMode.PRIMARY_AWARE,
    labels: Optional[Dict[str, str]] = None,
    seed: int = 1,
) -> ResourceManager:
    """An RM over ``rows`` with optional class labels (read in History mode)."""
    rm = ResourceManager(build_fleet(rows, mode), mode=mode, rng=RandomSource(seed))
    for server_id, label in (labels or {}).items():
        rm.set_label(server_id, label)
    return rm


class ContainerRequest(NamedTuple):
    """One task's container request: who asks, for what, and where."""

    job_id: str
    task_id: str
    allocation: Resource
    node_labels: Sequence[str] = ()


def schedule_wave(
    batch: WaveBatch, requests: Sequence[ContainerRequest]
) -> List[Optional[Container]]:
    """Place requests of one job and one shape as one production wave."""
    if not requests:
        return []
    first = requests[0]
    assert all(
        (r.job_id, r.allocation, list(r.node_labels))
        == (first.job_id, first.allocation, list(first.node_labels))
        for r in requests
    ), "a wave is one job's requests of one shape"
    return batch.schedule(
        first.allocation,
        first.node_labels,
        first.job_id,
        [r.task_id for r in requests],
    )


def place(rm: ResourceManager, request: ContainerRequest, time: float):
    """Place one request through the production batch path."""
    return schedule_wave(rm.begin_batch(time), [request])[0]


class ScalarServer:
    """One server, per-object: the pre-FleetState NodeManager reference."""

    def __init__(
        self,
        row: Row,
        cpu_fraction: float = CPU_FRACTION,
        memory_fraction: float = MEMORY_FRACTION,
    ) -> None:
        server, self.tenant = row
        self.server_id = server.server_id
        self.capacity = Resource(float(server.cores), float(server.memory_gb))
        self.reserve = Resource(
            self.capacity.cores * cpu_fraction,
            self.capacity.memory_gb * memory_fraction,
        )
        self.running: Dict[int, Container] = {}

    def primary_usage(self, time: float) -> Resource:
        utilization = self.tenant.utilization_at(time)
        return Resource(
            utilization * self.capacity.cores,
            utilization * self.capacity.memory_gb * 0.5,
        )

    def allocated(self) -> Resource:
        total = Resource.zero()
        for container in self.running.values():
            total = total + container.allocation
        return total

    def total_cpu_utilization(self, time: float) -> float:
        primary = self.tenant.utilization_at(time)
        return min(1.0, primary + self.allocated().cores / self.capacity.cores)

    def harvestable(self, time: float) -> Resource:
        """Capacity minus the rounded-up primary usage and the reserve."""
        return self.capacity - (self.primary_usage(time).rounded_up() + self.reserve)

    def launch(
        self, task_id: str, job_id: str, allocation: Resource, time: float
    ) -> Container:
        container = Container(task_id, job_id, allocation, self.server_id, time)
        self.running[container.container_id] = container
        return container

    def complete(self, container: Container, time: float) -> None:
        container.finish(time)
        del self.running[container.container_id]

    def _violation(self, time: float) -> Resource:
        available = self.harvestable(time)
        allocated = self.allocated()
        return Resource(
            max(0.0, allocated.cores - available.cores),
            max(0.0, allocated.memory_gb - available.memory_gb),
        )

    def reclaim_reserve(self, time: float) -> List[Container]:
        """Kill youngest-first until the reserve is restored (fresh re-sums)."""
        killed: List[Container] = []
        for container in sorted(
            self.running.values(), key=lambda c: c.start_time, reverse=True
        ):
            if self._violation(time).is_zero():
                break
            container.kill(time)
            del self.running[container.container_id]
            killed.append(container)
        return killed

    def heartbeat(self, time: float, aware: bool = True):
        """``(available, killed)``: what the server reports to the RM."""
        if not aware:
            return self.capacity - self.allocated(), []
        killed = self.reclaim_reserve(time)
        return self.harvestable(time) - self.allocated(), killed


def scalar_heartbeats(servers: Sequence[ScalarServer], time: float, aware=True):
    """Every server's heartbeat in row order: ``({id: available}, killed)``."""
    availables, killed = {}, []
    for server in servers:
        available, server_killed = server.heartbeat(time, aware)
        availables[server.server_id] = available
        killed.extend(server_killed)
    return availables, killed


def scalar_candidates(
    rm: ResourceManager, allocation: Resource, labels: Sequence[str] = ()
) -> List[int]:
    """Rows eligible for a request, one row at a time (the scalar filter).

    In History mode a request's labels restrict the rows unless they name
    no server; a row is a candidate when the allocation fits within its RM
    view of available resources.
    """
    fleet = rm.fleet
    rows = list(range(len(fleet)))
    if rm.mode is SchedulerMode.HISTORY and labels:
        labelled = [i for i in rows if fleet.label_of(i) in labels]
        if labelled:
            rows = labelled
    return [
        i
        for i in rows
        if allocation.fits_within(
            Resource(
                float(fleet.available_cores[i]), float(fleet.available_memory[i])
            )
        )
    ]


def scalar_exhausted(rm: ResourceManager, shape: tuple) -> bool:
    """Recount of ``rm.shape_exhausted(shape)``: no row is a candidate."""
    cores, memory_gb, labels = shape
    return not scalar_candidates(rm, Resource(cores, memory_gb), list(labels))


class LegacyScalarScheduler:
    """The pre-FleetState per-record candidate filter + draw, as reference.

    Reads a reference RM's fleet one row at a time (label and RM-view
    available resources) and picks the destination the way the scalar
    scheduler did.
    """

    def __init__(self, rm: ResourceManager, rng: RandomSource) -> None:
        self._rm = rm
        self._rng = rng

    def _available(self, index: int) -> Resource:
        fleet = self._rm.fleet
        return Resource(
            float(fleet.available_cores[index]), float(fleet.available_memory[index])
        )

    def schedule(self, request: ContainerRequest) -> Optional[str]:
        fleet = self._rm.fleet
        candidates = scalar_candidates(
            self._rm, request.allocation, request.node_labels
        )
        if not candidates:
            return None
        ids = fleet.server_ids
        if self._rm.mode is SchedulerMode.STOCK:
            chosen = max(
                candidates, key=lambda i: (self._available(i).cores, ids[i])
            )
        else:
            weights = [max(1e-9, self._available(i).cores) for i in candidates]
            chosen = candidates[self._rng.weighted_index(weights)]
        return ids[chosen]
