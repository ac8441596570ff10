"""Crash-safe sweeps: a run directory that survives being killed.

A *sweep* here is the repo's universal workload shape — a list of
normalized experiment cells (:class:`repro.experiments.wire.WireCell`)
executed for their result digests.  This module binds a sweep to a
**run directory** so that progress is durable:

* ``sweep.json`` — the sweep spec: the full cell list in wire encoding,
  saved (atomically: temp file, then ``os.replace``) before the first
  cell runs.  Its digest pins what the journal belongs to, so
  ``--resume`` of a run dir with a *different* grid is an error, never
  a silent mixture of two sweeps;
* ``journal.ndjson`` — the write-ahead log
  (:mod:`repro.obs.journal`): each completed cell's content key and
  result digest, appended in completion order by the runner;
* the usual manifest/cellcache artifacts when enabled.

``resume`` replays the journal and serves journaled cells from it —
zero recomputation — then runs only the remainder.  Because every cell
is a pure function of its params, a digest recorded before a crash is
byte-identical to the digest an uninterrupted run would have produced,
so the resumed sweep's final digests (and the combined sweep digest)
are indistinguishable from a run that never died, for any ``--jobs``.

Each invocation builds the spec's wire dict and its digest once, and
each cell's content key once: the key that finds a cell in the journal
is handed to the executor as the cell's cache key too.  Cells whose
params do not survive manifest sanitization have no content key; they
cannot be journaled and always recompute — the same rule the cell
cache already applies.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.wire import WireCell, cell_from_wire, cell_to_wire
from repro.obs.cellcache import cell_key
from repro.obs.journal import JournalReplay, SweepJournal, replay
from repro.obs.manifest import resolve_experiment, result_digest
from repro.parallel import map_payloads_completions

__all__ = [
    "SWEEP_SPEC_NAME",
    "SWEEP_SCHEMA",
    "SweepSpec",
    "CellOutcome",
    "SweepResult",
    "load_spec",
    "prepare_run_dir",
    "run_sweep",
    "combined_digest",
]

SWEEP_SPEC_NAME = "sweep.json"
SWEEP_SCHEMA = 1


@dataclass
class SweepSpec:
    """The durable identity of one sweep: its ordered cell list."""

    cells: List[WireCell] = field(default_factory=list)
    schema: int = SWEEP_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "cells": [cell_to_wire(cell) for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        if not isinstance(data, dict) or not isinstance(
                data.get("cells"), list):
            raise ValueError("sweep spec must be {'schema':…,'cells':[…]}")
        return cls(
            cells=[cell_from_wire(c) for c in data["cells"]],
            schema=int(data.get("schema", SWEEP_SCHEMA)),
        )

    def digest(self) -> str:
        """Content digest of the spec (pins journal ↔ sweep binding)."""
        return _wire_digest(self.to_dict())

    # ------------------------------------------------------------------
    def save(self, run_dir: str) -> str:
        return _write_spec(run_dir, self.to_dict())


def _wire_digest(wire: Dict[str, Any]) -> str:
    """The spec digest of a spec's wire dict (:meth:`SweepSpec.to_dict`)."""
    material = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


def _write_spec(run_dir: str, wire: Dict[str, Any]) -> str:
    """Write ``sweep.json`` from a spec's wire dict, atomically: a kill
    mid-save leaves the previous file (or none), never a torn one."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, SWEEP_SPEC_NAME)
    # A unique name opened with "x" (not mkstemp, which makes the file
    # 0600): the spec keeps the permissions a plain open gives it.
    tmp = os.path.join(
        run_dir, f".sweep-{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            # Streamed: json.dumps takes as long with indent=2 and holds
            # every chunk of a large grid in memory at once.
            json.dump(wire, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_spec(run_dir: str) -> SweepSpec:
    path = os.path.join(run_dir, SWEEP_SPEC_NAME)
    with open(path) as fh:
        try:
            return SweepSpec.from_dict(json.load(fh))
        except (ValueError, TypeError) as exc:
            raise ValueError(
                f"{path} is not a readable sweep spec: {exc}") from exc


@dataclass
class CellOutcome:
    """How one cell of the sweep was satisfied."""

    index: int
    experiment: str
    key: Optional[str]
    digest: str
    source: str  # 'journal' (resumed, not recomputed) | 'ran'


@dataclass
class SweepResult:
    outcomes: List[CellOutcome]
    digest: str           # combined sweep digest over per-cell digests
    spec_digest: str
    journal_served: int   # cells satisfied from the journal
    ran: int              # cells executed this invocation
    torn: bool            # resumed journal had a torn final line


def combined_digest(digests: List[str]) -> str:
    """One digest for the whole sweep: SHA-256 over the newline-joined
    per-cell digests in sweep order — byte-identical iff every cell
    digest is."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def prepare_run_dir(run_dir: str, cells: Optional[List[WireCell]],
                    resume: bool) -> "tuple[SweepSpec, str, JournalReplay]":
    """Bind (or re-bind) the run dir to its spec and replay the journal.

    Returns the spec, its digest and the journal replay.  The spec's
    wire dict is built once and serves both the digest and, on a fresh
    run, ``sweep.json`` (not rewritten when it already holds this spec).
    """
    spec_path = os.path.join(run_dir, SWEEP_SPEC_NAME)
    jpath = os.path.join(run_dir, "journal.ndjson")
    if resume:
        if not os.path.exists(spec_path):
            raise ValueError(
                f"cannot resume {run_dir!r}: no {SWEEP_SPEC_NAME} "
                "(was this directory ever a sweep run dir?)")
        spec = load_spec(run_dir)
        digest = spec.digest()
        if cells is not None and SweepSpec(cells=list(cells)).digest() \
                != digest:
            raise ValueError(
                f"cannot resume {run_dir!r}: the requested grid does "
                "not match the recorded sweep.json (resume re-runs "
                "the *same* sweep; use a new run dir for a new grid)")
        jreplay = replay(jpath)
    else:
        spec = SweepSpec(cells=list(cells or []))
        wire = spec.to_dict()
        digest = _wire_digest(wire)
        saved = os.path.exists(spec_path)
        if saved and load_spec(run_dir).digest() != digest:
            raise ValueError(
                f"{run_dir!r} already holds a different sweep; "
                "use --resume to continue it or a new run dir")
        jreplay = replay(jpath)
        if len(jreplay):
            raise ValueError(
                f"{run_dir!r} already has journaled progress; pass "
                "--resume to continue it (a fresh run would recompute "
                "journaled cells)")
        if not saved:
            _write_spec(run_dir, wire)
    if jreplay.spec_digest is not None and jreplay.spec_digest != digest:
        raise ValueError(
            f"journal in {run_dir!r} belongs to a different sweep "
            f"(spec digest mismatch); refusing to mix runs")
    return spec, digest, jreplay


def run_sweep(
    run_dir: str,
    cells: Optional[List[WireCell]] = None,
    *,
    jobs: Optional[int] = None,
    resume: bool = False,
    progress: Optional[bool] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> SweepResult:
    """Execute (or resume) a sweep inside ``run_dir``.

    Fresh runs require ``cells``; ``resume=True`` reloads them from the
    saved spec (passing cells too merely cross-checks the digest).
    Journaled cells are served from the journal — **never recomputed**
    — and the rest run through the completion-order runner, each
    completion journaled (fsync-batched) before the next is awaited.

    On interruption (``should_abort`` flag from a signal handler, or a
    chaos ``runner.tick`` fault) the journal is flushed and closed
    before the exception propagates, leaving the run dir resumable.
    """
    spec, spec_digest, jreplay = prepare_run_dir(run_dir, cells, resume)
    sweep_cells = spec.cells
    keys = [cell_key(c.experiment, c.params) for c in sweep_cells]

    outcomes: List[Optional[CellOutcome]] = [None] * len(sweep_cells)
    pending: List[int] = []
    for index, (cell, key) in enumerate(zip(sweep_cells, keys)):
        digest = jreplay.digest_for(key) if key is not None else None
        if digest is not None:
            outcomes[index] = CellOutcome(
                index=index, experiment=cell.experiment, key=key,
                digest=digest, source="journal")
        else:
            pending.append(index)

    journal_served = len(sweep_cells) - len(pending)
    ran = 0
    if pending:
        payloads = []
        for index in pending:
            cell = sweep_cells[index]
            payloads.append((resolve_experiment(cell.experiment),
                             cell.params, keys[index]))
        journal = SweepJournal(run_dir, spec_digest=spec_digest)

        def on_result(pending_pos: int, result: Any) -> None:
            index = pending[pending_pos]
            cell = sweep_cells[index]
            digest = result_digest(result)
            if keys[index] is not None:
                journal.record(keys[index], digest, index=index,
                               experiment=cell.experiment)
            outcomes[index] = CellOutcome(
                index=index, experiment=cell.experiment, key=keys[index],
                digest=digest, source="ran")

        try:
            map_payloads_completions(
                payloads, jobs=jobs, progress=progress,
                on_result=on_result, should_abort=should_abort)
        finally:
            # Crash/interrupt path included: everything that completed
            # is durably journaled before the exception leaves here.
            journal.close()
        ran = len(pending)

    done = [o for o in outcomes if o is not None]
    return SweepResult(
        outcomes=done,
        digest=combined_digest([o.digest for o in done]),
        spec_digest=spec_digest,
        journal_served=journal_served,
        ran=ran,
        torn=jreplay.torn,
    )
