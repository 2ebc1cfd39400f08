"""Flow-level network traffic records.

Sec. IV's threats and defenses all operate on *traffic patterns* — "their
frequency of transmission, the amount of data they transmit, and where
those transmissions are directed" — not payloads (IoT traffic is TLS
anyway).  A flow record captures exactly that: who talked to whom, when,
how much, in which direction.

A :class:`Flow` is one record.  A :class:`FlowLog` holds a whole LAN's
flows as columns, one array per field, which is what the simulator, the
shapers, the feature extractors and the digest work on.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Direction(Enum):
    """Where the remote endpoint lives relative to the home LAN."""

    OUTBOUND = "outbound"  # device -> Internet
    INBOUND = "inbound"  # Internet -> device (cloud tunnel push)
    LATERAL = "lateral"  # device -> another LAN device


#: The name table of every log's ``direction`` codes, and each code.
DIRECTIONS = tuple(Direction)
DIRECTION_CODES = {direction: code for code, direction in enumerate(DIRECTIONS)}


@dataclass(frozen=True)
class Flow:
    """One network flow as a gateway would summarize it."""

    time_s: float
    device_id: str
    endpoint: str  # remote host (domain or LAN device id)
    port: int
    direction: Direction
    bytes_up: int
    bytes_down: int
    packets: int
    duration_s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s):
            raise ValueError("flow time must be finite")
        if self.bytes_up < 0 or self.bytes_down < 0 or self.packets < 0:
            raise ValueError("byte/packet counts cannot be negative")
        if not self.duration_s >= 0:  # also refuses NaN
            raise ValueError("duration must be a non-negative number")


#: Each column's dtype, in :class:`Flow`'s field order.  ``device``,
#: ``endpoint`` and ``direction`` are codes into the log's
#: ``device_ids``, its ``endpoints`` and :data:`DIRECTIONS`.
COLUMNS = {
    "time_s": np.float64,
    "device": np.intp,
    "endpoint": np.intp,
    "port": np.int64,
    "direction": np.intp,
    "bytes_up": np.int64,
    "bytes_down": np.int64,
    "packets": np.int64,
    "duration_s": np.float64,
}


class FlowLog:
    """A LAN's flows (the gateway's view), held as one array per field.

    ``FlowLog(flows)`` builds the columns from :class:`Flow` records;
    :meth:`from_columns` takes them whole and refuses, once per column,
    what :class:`Flow` refuses per record.  Iterating a log, or reading
    :attr:`flows`, builds the records on demand.  ``device_ids`` and
    ``endpoints`` are the name tables the ``device`` and ``endpoint``
    codes index: each name appears once, and a name no flow uses may
    stay.  The logs a shaper derives from one another share columns, so
    a column is never written in place.
    """

    time_s: np.ndarray
    device: np.ndarray
    endpoint: np.ndarray
    port: np.ndarray
    direction: np.ndarray
    bytes_up: np.ndarray
    bytes_down: np.ndarray
    packets: np.ndarray
    duration_s: np.ndarray

    def __init__(self, flows: Iterable[Flow] = ()) -> None:
        flows = list(flows)
        device_ids: dict[str, int] = {}
        endpoints: dict[str, int] = {}
        device = [device_ids.setdefault(f.device_id, len(device_ids)) for f in flows]
        endpoint = [endpoints.setdefault(f.endpoint, len(endpoints)) for f in flows]
        self._set(
            list(device_ids),
            list(endpoints),
            time_s=[f.time_s for f in flows],
            device=device,
            endpoint=endpoint,
            port=[f.port for f in flows],
            direction=[DIRECTION_CODES[f.direction] for f in flows],
            bytes_up=[f.bytes_up for f in flows],
            bytes_down=[f.bytes_down for f in flows],
            packets=[f.packets for f in flows],
            duration_s=[f.duration_s for f in flows],
        )

    @classmethod
    def from_columns(
        cls, device_ids: Sequence[str], endpoints: Sequence[str], **columns
    ) -> "FlowLog":
        """A log from whole columns: ``time_s`` sets the length, and a
        scalar in any other column stands for a constant column.

        Refuses what :class:`Flow` refuses, once per column: a non-finite
        time, a negative byte or packet count, a NaN or negative
        duration; and a code that indexes no name.
        """
        log = cls.__new__(cls)
        log._set(device_ids, endpoints, **columns)
        if not np.isfinite(log.time_s).all():
            raise ValueError("flow time must be finite")
        if any((getattr(log, n) < 0).any() for n in ("bytes_up", "bytes_down", "packets")):
            raise ValueError("byte/packet counts cannot be negative")
        if not (log.duration_s >= 0).all():  # also refuses NaN
            raise ValueError("duration must be a non-negative number")
        for name, table in (
            ("device", log.device_ids),
            ("endpoint", log.endpoints),
            ("direction", DIRECTIONS),
        ):
            codes = getattr(log, name)
            if len(codes) and not 0 <= codes.min() <= codes.max() < len(table):
                raise ValueError(f"a {name} code indexes no name")
        return log

    def _set(self, device_ids: Sequence[str], endpoints: Sequence[str], **columns) -> None:
        if columns.keys() != COLUMNS.keys():
            raise TypeError(f"a flow log takes exactly the columns {list(COLUMNS)}")
        n = np.shape(columns["time_s"])[0]
        for name, dtype in COLUMNS.items():
            column = np.asarray(columns[name], dtype=dtype)
            if column.ndim == 0:
                column = np.broadcast_to(column, (n,))
            if column.shape != (n,):
                raise ValueError(f"column {name!r} does not have one value per flow")
            setattr(self, name, column)
        self.device_ids, self.endpoints = list(device_ids), list(endpoints)

    def columns(self) -> dict[str, np.ndarray]:
        """The nine columns by name, as :meth:`from_columns` takes them."""
        return {name: getattr(self, name) for name in COLUMNS}

    def replaced(self, **columns) -> "FlowLog":
        """This log with the given columns swapped in; the name tables are
        kept, so new codes must index them."""
        return FlowLog.from_columns(
            self.device_ids, self.endpoints, **{**self.columns(), **columns}
        )

    def take(self, index: np.ndarray) -> "FlowLog":
        """The flows at ``index`` (positions or a mask), in that order."""
        log = FlowLog.__new__(FlowLog)
        log._set(
            self.device_ids,
            self.endpoints,
            **{name: column[index] for name, column in self.columns().items()},
        )
        return log

    @staticmethod
    def concat(logs: Sequence["FlowLog"]) -> "FlowLog":
        """Every flow of ``logs`` in turn.  The name tables are merged in
        order of first appearance and the codes rewritten to index them."""
        tables: dict[str, dict[str, int]] = {"device": {}, "endpoint": {}}
        parts: dict[str, list[np.ndarray]] = {name: [] for name in COLUMNS}
        for log in logs:
            for name, column in log.columns().items():
                if name in tables:
                    names = log.device_ids if name == "device" else log.endpoints
                    table = tables[name]
                    remap = [table.setdefault(n, len(table)) for n in names]
                    column = np.array(remap, dtype=np.intp)[column]
                parts[name].append(column)
        out = FlowLog.__new__(FlowLog)
        out._set(
            list(tables["device"]),
            list(tables["endpoint"]),
            **{
                name: np.concatenate(parts[name]) if logs else np.zeros(0, dtype)
                for name, dtype in COLUMNS.items()
            },
        )
        return out

    def sorted(self) -> "FlowLog":
        """The log in time order; flows at the same time keep their order."""
        return self.take(np.argsort(self.time_s, kind="stable"))

    def extend(self, flows: "FlowLog | Iterable[Flow]") -> None:
        """Append ``flows`` (another log, or records) to this log."""
        other = flows if isinstance(flows, FlowLog) else FlowLog(flows)
        self.__dict__.update(vars(FlowLog.concat([self, other])))

    def sort(self) -> None:
        """Put this log in time order (see :meth:`sorted`)."""
        self.__dict__.update(vars(self.sorted()))

    def __len__(self) -> int:
        return len(self.time_s)

    @property
    def flows(self) -> list[Flow]:
        """The flows as :class:`Flow` records, built on demand."""
        devices, endpoints = self.device_ids, self.endpoints
        rows = zip(*(column.tolist() for column in self.columns().values()))
        return [
            Flow(t, devices[d], endpoints[e], port, DIRECTIONS[r], up, down, k, s)
            for t, d, e, port, r, up, down, k, s in rows
        ]

    def __iter__(self):
        return iter(self.flows)

    def in_window(self, t0_s: float, t1_s: float) -> "FlowLog":
        return self.take((t0_s <= self.time_s) & (self.time_s < t1_s))


#: A nine-field tuple's ``repr``, with the three names given pre-``repr``'d.
_DIGEST_ROW = "(%r, %s, %s, %r, %s, %r, %r, %r, %r)"
#: Rows :func:`flow_log_digest` formats into each string it hashes.
_DIGEST_BLOCK = 4096


def flow_log_digest(log: FlowLog) -> str:
    """SHA-256 over every flow's full field tuple, in log order.

    The netpriv analogue of :func:`repro.fleet.engine.trace_digest`: two
    logs share a digest iff they are field-for-field identical, which is
    what the shaper/attacker determinism tests (and their golden pins)
    compare.  Floats hash via :func:`repr`, so bit-equal values are
    required — close is not equal.  A row hashes as the ``repr`` of its
    ``(time_s, device_id, endpoint, port, direction.value, bytes_up,
    bytes_down, packets, duration_s)`` tuple, formatted from the
    columns' Python values a block of rows at a time;
    ``repro.netpriv._reference`` keeps the per-record loop whose bytes
    this hashes.
    """
    h = hashlib.sha256()
    names = {
        "device": np.array([repr(n) for n in log.device_ids], dtype=object),
        "endpoint": np.array([repr(n) for n in log.endpoints], dtype=object),
        "direction": np.array([repr(d.value) for d in DIRECTIONS], dtype=object),
    }
    columns = log.columns()
    for start in range(0, len(log), _DIGEST_BLOCK):
        block = slice(start, start + _DIGEST_BLOCK)
        rows = zip(
            *(
                (names[name][column[block]] if name in names else column[block]).tolist()
                for name, column in columns.items()
            )
        )
        h.update("".join(map(_DIGEST_ROW.__mod__, rows)).encode())
    return h.hexdigest()
