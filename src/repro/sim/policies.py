"""Work-admission policies for buffered multi-worker systems (Figure 14).

The hoisted-allocator admission loop of Figure 14 (threads enter whichever
replicate region frees an allocation buffer) is one instance of a general
pattern: a stream of tasks is admitted one at a time into ``N`` workers,
each with a bounded buffer pool, under some admission strategy.  This module
states that pattern once, for the :class:`repro.sim.load_balance`
simulator and the policy comparisons around it:

* :class:`RoundRobinPolicy` — static round-robin, ignoring buffer occupancy
  (Plasticine-style fixed partitioning),
* :class:`HoistedBufferPolicy` — round-robin over workers with a free
  buffer, stalling until a completion frees one (the paper's hoisted
  allocator, which makes admission throughput-proportional).

:func:`run_admission` is the discrete-event loop: each admitted task
occupies one buffer for ``cost * worker_scale`` time units and buffers are
returned in completion order.  The loop runs once per admitted task over
traces of up to millions of threads (the Figure 14 sweep), so policies see
the raw per-worker state lists rather than per-call snapshot objects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import List, Optional, Sequence, Union


class AdmissionPolicy:
    """Chooses the worker that receives the next task.

    ``choose`` sees the live per-worker state — ``free`` buffer counts and
    ``pending`` in-flight service time — and returns a worker index, or
    ``None`` to signal that admission must wait for a completion (only
    meaningful for buffered policies).  Policies must treat both lists as
    read-only.  They may be stateful (e.g. a round-robin cursor); call
    :meth:`reset` before reusing one across runs (:func:`run_admission`
    does).
    """

    #: Whether the policy reads the buffer/load state at all.  Feedback-free
    #: policies (static round-robin) skip the event simulation entirely, so
    #: million-task static sweeps stay O(workers) in memory.
    uses_feedback = True

    def reset(self) -> None:
        pass

    def choose(self, free: Sequence[int],
               pending: Sequence[float]) -> Optional[int]:
        raise NotImplementedError


class RoundRobinPolicy(AdmissionPolicy):
    """Static round-robin: task ``i`` goes to worker ``i % N`` regardless of
    buffer occupancy or load (models fixed work partitioning)."""

    uses_feedback = False

    def __init__(self):
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def choose(self, free: Sequence[int],
               pending: Sequence[float]) -> Optional[int]:
        index = self._next % len(free)
        self._next += 1
        return index


class HoistedBufferPolicy(AdmissionPolicy):
    """Round-robin over workers that currently hold a free buffer; wait for
    a completion when none do.  This reproduces the hoisted allocator's
    feedback loop: faster workers free buffers more often and therefore
    receive proportionally more work."""

    def __init__(self):
        self._rr = 0

    def reset(self) -> None:
        self._rr = 0

    def choose(self, free: Sequence[int],
               pending: Sequence[float]) -> Optional[int]:
        if not any(free):
            return None
        rr = self._rr
        n = len(free)
        while free[rr] == 0:
            rr = (rr + 1) % n
        self._rr = (rr + 1) % n
        return rr


@dataclass
class AdmissionResult:
    """Outcome of one :func:`run_admission` run."""

    #: Worker index assigned to each task, in admission order.
    assignments: List[int]
    #: Number of tasks admitted per worker.
    counts: List[int]
    #: Total service time admitted per worker (``cost * scale`` sums).
    busy_time: List[float] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Completion time if each worker drains its assignment serially."""
        return max(self.busy_time) if self.busy_time else 0.0

    def shares_percent(self) -> List[float]:
        """Each worker's share of the admitted tasks, in percent."""
        total = max(1, sum(self.counts))
        return [100.0 * c / total for c in self.counts]


def run_admission(task_costs: Union[int, Sequence[float]],
                  worker_scales: Sequence[float],
                  buffers: Sequence[int],
                  policy: AdmissionPolicy,
                  collect_assignments: bool = True) -> AdmissionResult:
    """Admit ``task_costs`` into workers under ``policy`` (reset first).

    Task ``t`` on worker ``w`` occupies one of ``buffers[w]`` slots for
    ``task_costs[t] * worker_scales[w]`` time units.  When the policy
    returns ``None`` (no admissible worker), the clock advances to the next
    completion, which frees a buffer.  Buffers are also drained eagerly when
    the pool is exhausted, matching the hoisted-allocator model of
    :class:`repro.sim.load_balance.LoadBalanceSimulator`.

    ``task_costs`` may be an int meaning "that many unit-cost tasks" (the
    Figure 14 sweeps admit millions of identical threads; a count avoids a
    million-element list).  ``collect_assignments=False`` likewise skips
    the O(tasks) per-task assignment list when only aggregate counts/busy
    time are needed.
    """
    n = len(worker_scales)
    if len(buffers) != n:
        raise ValueError("buffers and worker_scales must have equal length")
    if isinstance(task_costs, int):
        task_costs = repeat(1.0, task_costs)
    policy.reset()
    free = list(buffers)
    counts = [0] * n
    busy = [0.0] * n
    pending = [0.0] * n
    assignments: List[int] = []

    if not policy.uses_feedback:
        # Static assignment: no completion feedback, so skip the event heap.
        for cost in task_costs:
            worker = policy.choose(free, pending)
            counts[worker] += 1
            busy[worker] += cost * worker_scales[worker]
            if collect_assignments:
                assignments.append(worker)
        return AdmissionResult(assignments=assignments, counts=counts,
                               busy_time=busy)

    events: List[tuple] = []  # (completion_time, worker, service_time)
    clock = 0.0

    for cost in task_costs:
        while True:
            worker = policy.choose(free, pending)
            if worker is not None:
                break
            if not events:
                raise RuntimeError("policy stalled with no in-flight work")
            clock, done, service = heapq.heappop(events)
            free[done] += 1
            pending[done] -= service
        service = cost * worker_scales[worker]
        free[worker] -= 1
        counts[worker] += 1
        busy[worker] += service
        pending[worker] += service
        if collect_assignments:
            assignments.append(worker)
        heapq.heappush(events, (clock + service, worker, service))
        if events and not any(f > 0 for f in free):
            # Positive check, not truthiness: a custom policy that oversubscribes
            # (negative free counts) must still drain, or the heap grows O(tasks).
            clock, done, done_service = heapq.heappop(events)
            free[done] += 1
            pending[done] -= done_service
    return AdmissionResult(assignments=assignments, counts=counts,
                           busy_time=busy)
