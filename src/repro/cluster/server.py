"""Batch containers: the unit of work the harvesting scheduler places.

A container runs one task on one server.  Its lifecycle (running, then
completed or killed) is all it keeps; which containers run where, and the
resources they hold, live in :class:`~repro.cluster.fleet_state.FleetState`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.resources import Resource


class ContainerState(str, enum.Enum):
    """Lifecycle of a batch container."""

    RUNNING = "running"
    COMPLETED = "completed"
    KILLED = "killed"


_container_ids = itertools.count()


@dataclass
class Container:
    """A batch container running one task on one server.

    Attributes:
        container_id: globally unique id.
        task_id: the task executing inside the container.
        job_id: the owning job.
        allocation: cores and memory granted to the container.
        server_id: the hosting server.
        start_time: simulation time at which the container started.
        state: current lifecycle state.
        end_time: completion or kill time (None while running).
    """

    task_id: str
    job_id: str
    allocation: Resource
    server_id: str
    start_time: float
    container_id: int = field(default_factory=lambda: next(_container_ids))
    state: ContainerState = ContainerState.RUNNING
    end_time: Optional[float] = None

    def finish(self, time: float) -> None:
        """Mark the container as completed at ``time``."""
        if self.state is not ContainerState.RUNNING:
            raise ValueError(f"container {self.container_id} is not running")
        self.state = ContainerState.COMPLETED
        self.end_time = time

    def kill(self, time: float) -> None:
        """Mark the container as killed at ``time``."""
        if self.state is not ContainerState.RUNNING:
            raise ValueError(f"container {self.container_id} is not running")
        self.state = ContainerState.KILLED
        self.end_time = time
