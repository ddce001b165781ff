"""Fault-injection harness for the self-healing worker pool.

A :class:`FaultPlan` is a picklable description of the faults a test or
chaos run wants injected into pool workers: kill a worker
after its n-th batch, hang it mid-flush, or delay or drop one pipe
reply.  The plan travels inside
:class:`~repro.runtime.pool.WorkerConfig`, so process workers inherit it
across the spawn boundary exactly like every other config field, and the
``--fault-plan`` dev flag on ``python -m repro.runtime.server`` threads it
in from the command line (``python -m repro.runtime.client --smoke``
always passes one kill).

Workers arm their share of the plan through a :class:`FaultInjector`
(built by ``WorkerConfig.build_injector``), which the batch loop consults
at batch boundaries and just before each flush reply.  Faults are one-shot
by default: a respawned worker comes back with the already-fired faults
stripped (``FaultPlan.respawn_plan``), so a single injected kill exercises
exactly one recovery.  ``repeat: true`` keeps a fault armed across
respawns — that is how the circuit-breaker path is driven to exhaustion.

Fault kinds
-----------

``kill``
    The worker dies (``os._exit(1)`` in process mode, an
    :class:`InjectedFault` in inline mode) once ``after_batches`` batches
    have completed — at the next batch boundary or just before the flush
    reply, whichever comes first.
``hang``
    The worker sleeps ``delay_s`` seconds (an hour when 0) at the same
    trigger points, stalling its flush past the pool's deadline.  Inline
    workers cannot stall the caller, so inline ``hang`` behaves as a kill.
``delay-reply`` / ``drop-reply``
    Process-mode pipe faults: the flush reply is sent ``delay_s`` seconds
    late, or not at all (the parent sees the worker as hung).  Inline
    workers have no pipe; these kinds are ignored there.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError

#: Every fault kind a plan may carry, in documentation order.
FAULT_KINDS = ("kill", "hang", "delay-reply", "drop-reply")

#: Sleep used for an unbounded ``hang`` (long enough that the pool's
#: deadline always fires first; the respawn kills the sleeper).
_HANG_FOREVER_S = 3600.0


class FaultPlanError(ReproError):
    """A fault plan was malformed (unknown kind, bad field, bad JSON)."""


class InjectedFault(Exception):
    """An injected fault fired inside an inline worker.

    Process workers die for real (``os._exit``); inline workers raise this
    instead so the pool can run the same detect/respawn/replay path
    deterministically in tests and CI.
    """

    def __init__(self, kind: str, worker: int):
        super().__init__(f"injected {kind} on worker {worker}")
        self.kind = kind
        self.worker = worker


@dataclass(frozen=True)
class Fault:
    """One injectable fault, bound to one worker index.

    ``after_batches`` is the cumulative batch count (within one worker
    process generation) after which the fault is due; 0 means "before the
    first batch".  ``delay_s`` parameterizes ``hang`` and ``delay-reply``.
    One-shot by default; ``repeat`` keeps the fault armed after a respawn.
    """

    kind: str
    worker: int
    after_batches: int = 0
    delay_s: float = 0.0
    repeat: bool = False

    def __post_init__(self) -> None:
        """Validate the fault eagerly so bad plans fail at parse time."""
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.worker < 0:
            raise FaultPlanError("fault 'worker' must be a worker index >= 0")
        if self.after_batches < 0:
            raise FaultPlanError("fault 'after_batches' must be >= 0")
        if self.delay_s < 0.0:
            raise FaultPlanError("fault 'delay_s' must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the ``--fault-plan`` wire syntax)."""
        payload: Dict[str, Any] = {"kind": self.kind, "worker": self.worker}
        if self.after_batches:
            payload["after_batches"] = self.after_batches
        if self.delay_s:
            payload["delay_s"] = self.delay_s
        if self.repeat:
            payload["repeat"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Fault":
        """Build one fault from a JSON object, rejecting unknown fields."""
        if not isinstance(payload, dict):
            raise FaultPlanError("each fault must be a JSON object")
        allowed = {"kind", "worker", "after_batches", "delay_s", "repeat"}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise FaultPlanError(
                f"unknown fault fields {unknown}; expected a subset of "
                f"{sorted(allowed)}"
            )
        if "kind" not in payload or "worker" not in payload:
            raise FaultPlanError("a fault needs at least 'kind' and 'worker'")
        try:
            return cls(
                kind=str(payload["kind"]),
                worker=int(payload["worker"]),
                after_batches=int(payload.get("after_batches", 0)),
                delay_s=float(payload.get("delay_s", 0.0)),
                repeat=bool(payload.get("repeat", False)),
            )
        except (TypeError, ValueError) as error:
            raise FaultPlanError(f"bad fault field: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of faults to inject into a pool."""

    faults: Tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def from_spec(cls, spec: Union[Sequence[Any], Dict[str, Any]]) -> "FaultPlan":
        """Build a plan from a JSON-shaped spec.

        Accepts either a bare list of fault objects or an envelope
        ``{"faults": [...]}``.
        """
        if isinstance(spec, dict):
            spec = spec.get("faults")
        if not isinstance(spec, (list, tuple)):
            raise FaultPlanError(
                "a fault plan is a JSON list of faults (or an object with a "
                "'faults' list)"
            )
        return cls(faults=tuple(Fault.from_dict(entry) for entry in spec))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text (the ``--fault-plan`` flag value)."""
        try:
            return cls.from_spec(json.loads(text))
        except json.JSONDecodeError as error:
            raise FaultPlanError(f"fault plan is not valid JSON: {error}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form, round-trippable through ``from_spec``."""
        return {"faults": [fault.to_dict() for fault in self.faults]}

    def for_worker(self, index: int) -> List[Fault]:
        """The faults bound to one worker index, in plan order."""
        return [fault for fault in self.faults if fault.worker == index]

    def respawn_plan(self, index: int) -> "Optional[FaultPlan]":
        """The plan a respawned worker ``index`` should come back with.

        One-shot faults for that worker are dropped (its previous process
        generation consumed them); ``repeat`` faults and other workers'
        faults survive.  Returns ``None`` when nothing is left, so the
        respawned worker skips injector setup entirely.
        """
        kept = tuple(
            fault
            for fault in self.faults
            if fault.worker != index or fault.repeat
        )
        return FaultPlan(faults=kept) if kept else None


def load_fault_plan(spec: Optional[str]) -> Optional[FaultPlan]:
    """Parse a ``--fault-plan`` argument: inline JSON or ``@path`` to a file."""
    if spec is None or not spec.strip():
        return None
    text = spec
    if spec.startswith("@"):
        path = Path(spec[1:])
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise FaultPlanError(f"cannot read fault plan {path}: {error}")
    plan = FaultPlan.from_json(text)
    return plan if plan else None


class FaultInjector:
    """Worker-side arm of one :class:`FaultPlan`.

    One injector lives per worker *process generation*: the batch loop
    calls :meth:`on_batch_start` / :meth:`on_batch_done` around every
    batch, and process workers call :meth:`before_reply` just before each
    flush reply goes down the pipe.  Fired one-shot faults are remembered
    so they trigger exactly once per generation.
    """

    def __init__(self, plan: FaultPlan, worker: int, inline: bool):
        self.worker = worker
        self.inline = inline
        self._armed = plan.for_worker(worker)
        self._fired: set = set()
        self.batches_done = 0

    def _due(self, kinds: Tuple[str, ...]) -> List[Tuple[int, Fault]]:
        return [
            (slot, fault)
            for slot, fault in enumerate(self._armed)
            if fault.kind in kinds
            and slot not in self._fired
            and self.batches_done >= fault.after_batches
        ]

    def _mark(self, slot: int, fault: Fault) -> None:
        if not fault.repeat:
            self._fired.add(slot)

    def _crash(self) -> None:
        """Fire any due kill/hang fault; may never return."""
        for slot, fault in self._due(("kill", "hang")):
            self._mark(slot, fault)
            if fault.kind == "hang" and not self.inline:
                time.sleep(fault.delay_s or _HANG_FOREVER_S)
                continue  # a bounded hang resumes service afterwards
            if self.inline:
                # Inline workers cannot die or stall the caller: both kinds
                # surface as a crash the pool recovers from.
                raise InjectedFault(fault.kind, self.worker)
            os._exit(1)

    def on_batch_start(self) -> None:
        """Batch-boundary hook: due kill/hang faults fire here."""
        self._crash()

    def on_batch_done(self) -> None:
        """Post-batch hook: advances the batch count."""
        self.batches_done += 1

    def before_reply(self) -> bool:
        """Pre-reply hook; returns False when the reply must be dropped.

        Due kill/hang faults fire here too, so ``after_batches`` equal to
        the flush's batch count means "die mid-flush, after the work but
        before the reply" — the replay-forcing case.
        """
        self._crash()
        dropped = False
        for slot, fault in self._due(("drop-reply",)):
            self._mark(slot, fault)
            dropped = True
        for slot, fault in self._due(("delay-reply",)):
            self._mark(slot, fault)
            time.sleep(fault.delay_s)
        return not dropped
