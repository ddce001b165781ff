"""Work-admission policies for buffered multi-worker systems (Figure 14).

The hoisted-allocator admission loop of Figure 14 (threads enter whichever
replicate region frees an allocation buffer) is one instance of a general
pattern: a stream of tasks is admitted one at a time into ``N`` workers,
each with a bounded buffer pool, under some admission strategy.  This module
states that pattern once, for the :class:`repro.sim.load_balance`
simulator and the policy comparisons around it:

* :class:`RoundRobinPolicy` — static round-robin, ignoring buffer occupancy
  (Plasticine-style fixed partitioning),
* :class:`LeastLoadedPolicy` — admit to the worker with the least
  outstanding work among those with a free buffer,
* :class:`HoistedBufferPolicy` — round-robin over workers with a free
  buffer, stalling until a completion frees one (the paper's hoisted
  allocator, which makes admission throughput-proportional).

:func:`run_admission` is the discrete-event loop: each admitted task
occupies one buffer for ``cost * worker_scale`` time units and buffers are
returned in completion order.  The loop runs once per admitted task over
traces of up to millions of threads (the Figure 14 sweep), so policies see
the raw per-worker state lists rather than per-call snapshot objects.

Two measured-rate helpers used by the serving runtime live here too:
:class:`ServiceRateEstimator` and :func:`pool_drain_rps`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Type, Union


class AdmissionPolicy:
    """Chooses the worker that receives the next task.

    ``choose`` sees the live per-worker state — ``free`` buffer counts and
    ``pending`` in-flight service time — and returns a worker index, or
    ``None`` to signal that admission must wait for a completion (only
    meaningful for buffered policies).  Policies must treat both lists as
    read-only.  They may be stateful (e.g. a round-robin cursor); call
    :meth:`reset` before reusing one across runs.
    """

    name = "base"
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

    name = "round-robin"
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


class LeastLoadedPolicy(AdmissionPolicy):
    """Admit to the worker with the least outstanding work among those with
    a free buffer; wait when every buffer is occupied."""

    name = "least-loaded"

    def choose(self, free: Sequence[int],
               pending: Sequence[float]) -> Optional[int]:
        best = None
        best_load = 0.0
        for index, slots in enumerate(free):
            if slots > 0 and (best is None or pending[index] < best_load):
                best = index
                best_load = pending[index]
        return best


class HoistedBufferPolicy(AdmissionPolicy):
    """Round-robin over workers that currently hold a free buffer; wait for
    a completion when none do.  This reproduces the hoisted allocator's
    feedback loop: faster workers free buffers more often and therefore
    receive proportionally more work."""

    name = "hoisted-buffer"

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
class ServiceRateEstimator:
    """EWMA estimate of one worker's measured service rate (tasks/second).

    Real pools never have uniform per-node service rates (the RISC-V HPC
    cluster evaluations make the same observation one level down), so each
    serving worker times its own flushes and folds ``tasks / elapsed``
    samples into an exponentially-weighted moving average.  ``rate == 0``
    means "not measured yet".  Two readers: the admission budget
    (:func:`pool_drain_rps` over every worker's rate) and the pool's hang
    deadline; dispatch itself assumes identical workers.
    """

    alpha: float = 0.5
    rate: float = 0.0

    def observe(self, tasks: int, elapsed_s: float) -> float:
        """Fold one flush measurement into the EWMA; returns the new rate."""
        if tasks <= 0 or elapsed_s <= 0.0:
            return self.rate
        sample = tasks / elapsed_s
        if self.rate <= 0.0:
            self.rate = sample
        else:
            self.rate = self.alpha * sample + (1.0 - self.alpha) * self.rate
        return self.rate


def pool_drain_rps(rates: Sequence[float], default: float = 0.0) -> float:
    """Aggregate per-worker service rates into one pool drain estimate.

    The sum of the workers' measured EWMA rates (tasks/second) is the
    pool's best-case drain rate — what the admission layer needs to size
    its in-flight token budget.  Workers that have never been measured
    (rate <= 0) contribute nothing; a pool with no measurements at all
    falls back to ``default`` so a cold front door still has a budget.
    """
    total = sum(r for r in rates if r > 0.0)
    return total if total > 0.0 else default


#: Registry of policy classes by name (for config strings).
POLICIES: Dict[str, Type[AdmissionPolicy]] = {
    cls.name: cls
    for cls in (RoundRobinPolicy, LeastLoadedPolicy, HoistedBufferPolicy)
}


def make_policy(policy: "str | AdmissionPolicy") -> AdmissionPolicy:
    """Coerce a policy name or instance into a fresh-state policy object."""
    if isinstance(policy, AdmissionPolicy):
        policy.reset()
        return policy
    if policy not in POLICIES:
        raise ValueError(
            f"unknown admission policy '{policy}'; choose from {sorted(POLICIES)}")
    return POLICIES[policy]()


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
                  policy: "str | AdmissionPolicy",
                  collect_assignments: bool = True) -> AdmissionResult:
    """Admit ``task_costs`` into workers under ``policy``.

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
    policy = make_policy(policy)
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
