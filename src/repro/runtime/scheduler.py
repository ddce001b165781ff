"""Multi-worker sharding for served batches.

The paper balances work across replicate regions with a hoisted allocation
buffer (Figure 14); a serving deployment faces the same problem one level
up: shard request batches across ``N`` vRDA workers whose relative service
times may differ.  :class:`ShardScheduler` reuses the exact admission machinery of
:mod:`repro.sim.policies` — so its ``hoisted-buffer`` mode provably matches
the Figure 14 :class:`~repro.sim.load_balance.LoadBalanceSimulator` — and
adds the serving-side bookkeeping: per-worker request counts, busy time,
and simulated makespan for a stream of batch costs.

Workers here are *simulated* shards: each admitted task occupies one of the
worker's buffer slots for ``cost * worker_scale`` seconds of simulated
time.  The pool charges each batch its request count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Union

from repro.sim.policies import AdmissionPolicy, make_policy, run_admission


@dataclass
class WorkerReport:
    """Serving-side view of one simulated worker shard."""

    index: int
    #: Relative service time per unit cost (>1 means a slower worker).
    scale: float
    tasks: int
    busy_time_s: float
    share_percent: float


@dataclass
class ScheduleReport:
    """Outcome of sharding one task stream across the worker pool."""

    policy: str
    workers: List[WorkerReport]
    assignments: List[int] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """Simulated completion time: the busiest worker's drain time."""
        return max((w.busy_time_s for w in self.workers), default=0.0)

    @property
    def total_tasks(self) -> int:
        """Requests admitted across every worker."""
        return sum(w.tasks for w in self.workers)

    def imbalance(self) -> float:
        """Busiest / average busy time (1.0 means perfectly balanced)."""
        busy = [w.busy_time_s for w in self.workers]
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean > 0 else 1.0

    def as_rows(self) -> List[dict]:
        """Per-worker table rows (the CLI/stats wire form)."""
        return [{
            "worker": w.index,
            "scale": w.scale,
            "tasks": w.tasks,
            "busy_s": round(w.busy_time_s, 6),
            "share_%": round(w.share_percent, 2),
        } for w in self.workers]

    def to_dict(self) -> dict:
        """JSON-serializable form (server stats / benchmark records)."""
        return {
            "policy": self.policy,
            "makespan_s": self.makespan_s,
            "imbalance": round(self.imbalance(), 4),
            "total_tasks": self.total_tasks,
            "workers": self.as_rows(),
            "assignments": list(self.assignments),
        }


class ShardScheduler:
    """Dispatches task costs across N simulated workers under a policy."""

    def __init__(self, workers: int = 4, buffers_per_worker: int = 8,
                 policy: Union[str, AdmissionPolicy] = "least-loaded",
                 worker_scales: Optional[Sequence[float]] = None):
        if workers <= 0:
            raise ValueError("need at least one worker")
        if worker_scales is not None and len(worker_scales) != workers:
            raise ValueError("worker_scales must have one entry per worker")
        self.workers = workers
        self.buffers_per_worker = max(1, buffers_per_worker)
        self.policy = policy
        #: Relative service time per unit cost.  The pool dispatches its
        #: workers as identical and never sets it; it is here so that this
        #: scheduler reproduces the Figure 14 simulator, whose regions differ.
        self.worker_scales = (list(worker_scales) if worker_scales is not None
                              else [1.0] * workers)

    def dispatch(self, costs: Sequence[float],
                 keys: Optional[Sequence[Hashable]] = None) -> ScheduleReport:
        """Assign each task cost to a worker; returns the full report.

        ``keys`` aligns one content key per task for key-aware policies
        (``cache-affinity``); other policies ignore them.  Passing a policy
        *instance* to the constructor keeps its residency model alive
        across dispatch calls — that is how the worker pool feeds real
        per-worker cache reports back into admission.
        """
        policy = make_policy(self.policy)
        result = run_admission(
            task_costs=list(costs),
            worker_scales=self.worker_scales,
            buffers=[self.buffers_per_worker] * self.workers,
            policy=policy,
            task_keys=list(keys) if keys is not None else None,
        )
        shares = result.shares_percent()
        reports = [WorkerReport(index=w, scale=self.worker_scales[w],
                                tasks=result.counts[w],
                                busy_time_s=result.busy_time[w],
                                share_percent=shares[w])
                   for w in range(self.workers)]
        return ScheduleReport(policy=policy.name, workers=reports,
                              assignments=result.assignments)
