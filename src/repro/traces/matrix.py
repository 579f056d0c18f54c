"""Vectorized view over a set of primary-tenant utilization traces.

The simulators repeatedly ask "which servers are busy at time ``t``?" — once
per block creation, recovery round, and access check.  Answering that through
:meth:`PrimaryTenant.utilization_at` costs one Python call per server per
query, which dominates the availability and durability experiments.  A
:class:`TraceMatrix` stacks every tenant's trace into one ``(tenants x
samples)`` numpy array so those queries become single mask reductions.

Each row wraps around at *its own* trace length (traces of different lengths
are padded, never truncated), matching ``UtilizationTrace.value_at`` exactly.
The one deliberate divergence from the scalar path: a tenant without a trace
reads as zero utilization here — it can never be busy, like a
primary-oblivious server — where ``PrimaryTenant.utilization_at`` would
raise.  The fleet builders always attach traces, so the case is latent.

A matrix can be the one copy of its traces.  :meth:`TraceMatrix.take_over`
turns each tenant's ``trace.values`` into a view of its row, and a scaled
set is written straight into the rows (``transform``) and its traces adopt
the views (:meth:`TraceMatrix.row`).  The array is read-only, since every
trace and every cluster reading those rows shares it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.traces.datacenter import PrimaryTenant
from repro.traces.utilization import SAMPLE_INTERVAL_SECONDS


class TraceMatrix:
    """A ``(tenants x samples)`` numpy view over utilization traces."""

    def __init__(
        self,
        tenants: Sequence[PrimaryTenant],
        sample_interval_seconds: float = SAMPLE_INTERVAL_SECONDS,
        transform: Optional[Callable[[np.ndarray, np.ndarray], object]] = None,
    ) -> None:
        """Stack the tenants' traces, one row each.

        ``transform(values, out)``, when given, writes a row's samples into
        ``out`` from the trace's ``values`` (e.g. scaled) instead of
        copying them.
        """
        if not tenants:
            raise ValueError("a TraceMatrix needs at least one tenant")
        if sample_interval_seconds <= 0:
            raise ValueError("sample_interval_seconds must be positive")
        self._tenant_ids: List[str] = [t.tenant_id for t in tenants]
        self._row_of_tenant: Dict[str, int] = {
            t.tenant_id: i for i, t in enumerate(tenants)
        }
        if len(self._row_of_tenant) != len(tenants):
            raise ValueError("tenant ids must be unique")
        self._interval = float(sample_interval_seconds)

        self._lengths = np.array(
            [1 if t.trace is None else t.trace.num_samples for t in tenants],
            dtype=np.int64,
        )
        # An untraced row stays all zeros.
        self._values = np.zeros((len(tenants), int(self._lengths.max())))
        for row, tenant in enumerate(tenants):
            if tenant.trace is None:
                continue
            out = self._values[row, : self._lengths[row]]
            if transform is None:
                out[:] = tenant.trace.values
            else:
                transform(tenant.trace.values, out)
        self._values.flags.writeable = False

        # Server map derived from the tenants, for row_of_server() queries.
        self._row_of_server: Dict[str, int] = {}
        for row, tenant in enumerate(tenants):
            for server in tenant.servers:
                self._row_of_server[server.server_id] = row

    @classmethod
    def take_over(
        cls,
        tenants: Sequence[PrimaryTenant],
        sample_interval_seconds: float = SAMPLE_INTERVAL_SECONDS,
    ) -> "TraceMatrix":
        """A matrix that becomes the one copy of its tenants' traces.

        Each traced tenant's ``trace.values`` turns into its row's view, so
        the arrays the traces held before are freed unless something else
        refers to them.  The samples do not change.
        """
        matrix = cls(tenants, sample_interval_seconds)
        for row, tenant in enumerate(tenants):
            if tenant.trace is not None:
                tenant.trace.values = matrix.row(row)
        return matrix

    # -- serialized form ----------------------------------------------------

    def to_arrays(self) -> Dict[str, object]:
        """The matrix as plain arrays/scalars — its canonical serialized form.

        Everything a matrix holds is derived from these entries;
        :meth:`from_arrays` reconstructs an exact equivalent without the
        tenants.  ``server_ids``/``server_rows`` are parallel (id order is
        the insertion order of ``_row_of_server``, so the server order
        survives the round trip).
        """
        return {
            "version": 1,
            "tenant_ids": list(self._tenant_ids),
            "interval": self._interval,
            "lengths": np.array(self._lengths, copy=True),
            "values": np.array(self._values, copy=True),
            "server_ids": list(self._row_of_server),
            "server_rows": np.asarray(
                list(self._row_of_server.values()), dtype=np.int64
            ),
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, object]) -> "TraceMatrix":
        """Rebuild a matrix from :meth:`to_arrays` output, tenants not needed."""
        matrix = cls.__new__(cls)
        matrix._init_from_arrays(arrays)
        return matrix

    def _init_from_arrays(self, arrays: Dict[str, object]) -> None:
        tenant_ids = [str(t) for t in arrays["tenant_ids"]]
        self._tenant_ids = tenant_ids
        self._row_of_tenant = {tid: i for i, tid in enumerate(tenant_ids)}
        self._interval = float(arrays["interval"])  # type: ignore[arg-type]
        self._lengths = np.array(arrays["lengths"], dtype=np.int64)
        self._values = np.array(arrays["values"], dtype=float)
        self._values.flags.writeable = False
        server_ids = list(arrays["server_ids"])  # type: ignore[arg-type]
        server_rows = np.asarray(arrays["server_rows"], dtype=np.int64)
        self._row_of_server = {
            str(sid): int(row) for sid, row in zip(server_ids, server_rows)
        }

    def __getstate__(self) -> Dict[str, object]:
        # Pickle through the canonical array form so context snapshots carry
        # pure numpy payloads instead of tenant object graphs.
        return self.to_arrays()

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._init_from_arrays(state)

    # -- shape and lookup --------------------------------------------------

    @property
    def num_tenants(self) -> int:
        """Number of rows (tenants)."""
        return len(self._tenant_ids)

    @property
    def num_samples(self) -> int:
        """Number of columns (length of the longest trace)."""
        return self._values.shape[1]

    @property
    def tenant_ids(self) -> List[str]:
        """Tenant ids in row order."""
        return list(self._tenant_ids)

    @property
    def values(self) -> np.ndarray:
        """The underlying ``(tenants x samples)`` array (padded with zeros).

        Read-only: traces may be views of its rows.
        """
        return self._values

    def row(self, row: int) -> np.ndarray:
        """Row ``row``'s samples without the padding: a read-only view."""
        return self._values[row, : self._lengths[row]]

    def row_of_tenant(self, tenant_id: str) -> int:
        """Row index of a tenant; raises ``KeyError`` when unknown."""
        return self._row_of_tenant[tenant_id]

    def row_of_server(self, server_id: str) -> int:
        """Row index of the tenant owning a server; raises ``KeyError``."""
        return self._row_of_server[server_id]

    def has_tenant(self, tenant_id: str) -> bool:
        """Whether the matrix has a row for this tenant."""
        return tenant_id in self._row_of_tenant

    # -- queries ------------------------------------------------------------

    def sample_of(self, time_seconds: float) -> int:
        """The sample ``time_seconds`` falls in, before any row's wrap."""
        if time_seconds < 0:
            raise ValueError(f"time must be non-negative (got {time_seconds})")
        return int(time_seconds // self._interval)

    def sample_index(self, time_seconds: float) -> np.ndarray:
        """Per-row sample index for one time (each row wraps independently)."""
        return self.sample_of(time_seconds) % self._lengths

    def utilization_at(self, time_seconds: float) -> np.ndarray:
        """Every tenant's utilization at one time — one value per row."""
        idx = self.sample_index(time_seconds)
        return self._values[np.arange(self.num_tenants), idx]

    def utilization_rows(self, rows: np.ndarray, time_seconds: float) -> np.ndarray:
        """Utilization of specific tenant ``rows`` at one time, in one gather.

        Bit-identical to ``utilization_at(time_seconds)[rows]`` (each row
        still wraps at its own trace length) but skips materializing the
        full per-tenant vector — the shape the NameNode's per-server busy
        mask wants, since many servers share a tenant row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        idx = self.sample_of(time_seconds) % self._lengths[rows]
        return self._values[rows, idx]

    def utilization(self, rows: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Paired lookup: utilization of ``rows[i]`` at ``times[i]``.

        ``rows`` and ``times`` broadcast against each other, so a
        ``(blocks x replicas)`` row matrix and a ``(blocks x 1)`` time column
        yield the per-replica utilization for a whole batch of accesses.
        """
        rows = np.asarray(rows, dtype=np.int64)
        raw = (np.asarray(times, dtype=float) // self._interval).astype(np.int64)
        idx = raw % self._lengths[rows]
        return self._values[rows, idx]

    def busy_mask(self, time_seconds: float, threshold: float) -> np.ndarray:
        """Boolean row mask: tenants whose utilization exceeds ``threshold``."""
        return self.utilization_at(time_seconds) > threshold
