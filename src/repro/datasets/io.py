"""CSV import/export for power traces, and the writers of every file the
program keeps.

Lets users bring their own AMI exports (or public datasets like REDD/
Dataport, converted to two-column CSV) into the attack/defense pipeline,
and ship simulator output to other tools.  Every file the program writes
goes through :func:`write_atomic`, and the fleet cache and stream
checkpoints read their pickle envelopes back through :func:`read_envelope`.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import os
import pickle
from pathlib import Path

import numpy as np

from ..timeseries import PowerTrace, TraceError

HEADER = ("time_s", "power_w")


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all: make the directory,
    write a sibling ``.<name>.<pid>.tmp`` and ``os.replace`` it over
    ``path``, removing the temp file if that raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class EnvelopeFault(enum.Enum):
    """Why :func:`read_envelope` found no usable envelope."""

    MISSING = "missing"  # no file
    CORRUPT = "corrupt"  # the file does not unpickle: torn or unreadable
    FOREIGN = "foreign"  # not a dict, or an expected key holds another value
    STALE = "stale"  # the expected kind of file, in another format version


def read_envelope(path: str | Path, version: int, **expected) -> dict | EnvelopeFault:
    """The pickle envelope at ``path``, a dict whose ``expected`` keys hold
    their values and whose ``"format"`` is ``version`` (checked in that
    order), or the :class:`EnvelopeFault` saying why there is none.  Read
    only files this program wrote: unpickling runs code."""
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except FileNotFoundError:
        return EnvelopeFault.MISSING
    except Exception:  # noqa: BLE001 — torn/unreadable file
        return EnvelopeFault.CORRUPT
    if not isinstance(envelope, dict) or any(
        envelope.get(key) != value for key, value in expected.items()
    ):
        return EnvelopeFault.FOREIGN
    if envelope.get("format") != version:
        return EnvelopeFault.STALE
    return envelope


def save_trace_csv(trace: PowerTrace, path: str | Path) -> None:
    """Write a trace as ``time_s,power_w`` rows with a header."""
    save_rows_csv(
        path,
        HEADER,
        [[f"{t:.3f}", f"{v:.3f}"] for t, v in zip(trace.times(), trace.values)],
    )


def load_trace_csv(path: str | Path) -> PowerTrace:
    """Read a power trace (watts) written by :func:`save_trace_csv` (or
    compatible).

    The file must have a header row and evenly spaced timestamps.  All
    structural problems — an empty file, a missing or garbled header,
    short or non-numeric rows — raise :class:`TraceError` naming the file
    (and, for bad rows, the 1-based line number); callers never see a
    bare ``ValueError`` or ``StopIteration`` from the parsing internals.
    """
    path = Path(path)
    times: list[float] = []
    values: list[float] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise TraceError(f"{path}:1: unreadable header: {exc}") from exc
        if header is None:
            raise TraceError(f"{path}: empty file (expected header {HEADER})")
        if [h.strip() for h in header[:2]] != list(HEADER):
            raise TraceError(
                f"{path}:1: expected header {HEADER}, got {tuple(header[:2])!r}"
            )
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise TraceError(
                    f"{path}:{row_number}: expected 2 columns, got {len(row)} "
                    f"in row {row!r}"
                )
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except ValueError as exc:
                raise TraceError(
                    f"{path}:{row_number}: non-numeric row {row!r}"
                ) from exc
    if len(values) < 2:
        raise TraceError(f"{path}: need at least two samples, got {len(values)}")
    diffs = np.diff(times)
    period = float(np.median(diffs))
    if period <= 0:
        raise TraceError(f"{path}: timestamps must be strictly increasing")
    if np.any(np.abs(diffs - period) > 1e-3 * period):
        raise TraceError(f"{path}: timestamps are not evenly spaced")
    return PowerTrace(np.asarray(values), period, times[0], "W")


def save_rows_csv(
    path: str | Path, header: tuple[str, ...] | list[str], rows: list[list]
) -> None:
    """Write a generic header+rows table (fleet reports, sweep exports).

    Floats are written with full ``repr`` precision so round-tripped
    reports compare exactly.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(cell) if isinstance(cell, float) else cell for cell in row]
        )
    write_atomic(path, text.getvalue().encode())


def dump_json(doc: dict, path: str | Path | None = None) -> str:
    """Serialize a report document (indent 2, sorted keys), and with
    ``path`` write it there plus a newline: every JSON export's writer."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is not None:
        write_atomic(path, (text + "\n").encode())
    return text
