"""Compute-harvesting substrate: a YARN-like container scheduler simulator.

The paper extends YARN (Resource Manager + per-server Node Manager) so that
batch containers only use resources the co-located primary tenant leaves
spare, and kills containers when the primary tenant bursts into its reserve.
This package models that protocol with three scheduler variants:

* **Stock** — unaware of primary tenants; containers may collide with them.
* **PT** (primary-tenant aware) — reserves headroom and kills containers
  youngest-first when the reserve is violated, but schedules without history.
* **H** (history) — PT plus the clustering-service node labels and the
  Algorithm 1 class selection implemented in :mod:`repro.core`.

All per-server state — capacity, reserve, running containers, the RM's view
of available resources, class labels — lives in one
:class:`~repro.cluster.fleet_state.FleetState`; the NodeManager heartbeat
and reserve enforcement are its batch :meth:`~FleetState.refresh`.
"""

from repro.cluster.resources import Resource
from repro.cluster.server import Container, ContainerState
from repro.cluster.fleet_state import FleetState
from repro.cluster.resource_manager import ResourceManager, SchedulerMode

__all__ = [
    "Resource",
    "Container",
    "ContainerState",
    "FleetState",
    "ResourceManager",
    "SchedulerMode",
]
