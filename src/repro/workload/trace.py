"""Versioned JSONL traces of ``(time, operation)`` workload records.

A trace file is one JSON object per line.  The first line is the header::

    {"record": "header", "version": 1, "kind": "...", "scenario": "...", ...}

and every following line is an operation record::

    {"record": "op", "op": "submit-job", "time": 123.0, "stream": "jobs", ...}

Synthetic runs *record* their materialized workload plan here
(``--record-trace``); a *replay* run loads the ops in place of generating
them and drives the identical runner code path.  Because Python's JSON
round-trips floats exactly (shortest-repr) and the runner's other random
streams are independent forks, a replayed run is bit-identical to the
synthetic run that produced the trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

#: Current trace format version; bump on incompatible record changes.
TRACE_VERSION = 1


class TraceError(ValueError):
    """A trace file is malformed or inconsistent with the run."""


class TraceVersionError(TraceError):
    """The trace was written by an incompatible format version."""


def write_trace(path: Union[str, Path], meta: Dict[str, object],
                ops: List[Dict[str, object]]) -> None:
    """Write a header + op records trace; overwrites atomically."""
    path = Path(path)
    header = {"record": "header", "version": TRACE_VERSION, **meta}
    lines = [json.dumps(header, sort_keys=True)]
    for op in ops:
        lines.append(json.dumps({"record": "op", **op}, sort_keys=True))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n")
    tmp.replace(path)


def _parse_record(line: str, where: str) -> Dict[str, object]:
    """One JSON record; ``NaN``/``Infinity`` (which ``json`` accepts but JSON
    does not have) raise a :class:`TraceError` prefixed with ``where``."""

    def reject(constant: str) -> float:
        raise TraceError(f"{where}: {constant} is not a finite number")

    try:
        return json.loads(line, parse_constant=reject)
    except json.JSONDecodeError as error:
        raise TraceError(f"{where}: {error}") from None


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, object],
                                                List[Dict[str, object]]]:
    """Load ``(header, ops)`` from a trace file, validating the envelope."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"replay trace not found: {path}")
    header: Dict[str, object] = {}
    ops: List[Dict[str, object]] = []
    with path.open() as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _parse_record(line, f"bad trace line {number} in {path}")
            if number == 1:
                if record.get("record") != "header":
                    raise TraceError(
                        f"trace {path} must start with a header record"
                    )
                version = record.get("version")
                if version != TRACE_VERSION:
                    raise TraceVersionError(
                        f"trace version mismatch: found {version}, "
                        f"expected {TRACE_VERSION}"
                    )
                header = record
            else:
                if record.get("record") != "op":
                    raise TraceError(
                        f"bad trace line {number} in {path}: "
                        f"expected an op record"
                    )
                record.pop("record")
                ops.append(record)
    if not header:
        raise TraceError(f"trace {path} is empty")
    return header, ops


def read_trace_header(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate only the header line (cheap pre-flight check)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"replay trace not found: {path}")
    with path.open() as handle:
        first = handle.readline().strip()
    if not first:
        raise TraceError(f"trace {path} is empty")
    record = _parse_record(first, f"bad trace header (line 1) in {path}")
    if record.get("record") != "header":
        raise TraceError(f"trace {path} must start with a header record")
    version = record.get("version")
    if version != TRACE_VERSION:
        raise TraceVersionError(
            f"trace version mismatch: found {version}, expected {TRACE_VERSION}"
        )
    return record
