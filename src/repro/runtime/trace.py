"""Synthetic request traces for exercising the serving engine.

A serving workload is dominated by *repeats*: many clients asking for the
same few programs over a small set of parameter shapes.  The generator here
models that: a trace of ``size`` requests drawn from a handful of apps,
each with a bounded pool of distinct ``(n_threads, seed)`` shapes.
Repetition is what gives the program cache its >80% hit rate and the result
tier its warm speedup, so ``distinct_shapes`` is the knob benchmarks sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from repro.apps.base import REGISTRY
from repro.runtime.engine import Request

#: Cheap-to-execute default app mix (small functional instances).
DEFAULT_TRACE_APPS = ["hash-table", "search", "huff-enc", "murmur3"]


@dataclass
class TraceConfig:
    """Shape of one synthetic serving trace."""

    size: int = 100
    apps: Sequence[str] = field(default_factory=lambda: list(DEFAULT_TRACE_APPS))
    #: How many distinct (n_threads, seed) shapes each app cycles through.
    distinct_shapes: int = 2
    n_threads: int = 4
    seed: int = 0


def synthetic_trace(config: Optional[TraceConfig] = None, **overrides
                    ) -> List[Request]:
    """Generate a reproducible request trace from ``config``.

    Keyword overrides are applied on top of the config, so callers can say
    ``synthetic_trace(size=500, apps=["strlen"])`` directly.
    """
    config = config or TraceConfig()
    unknown_options = [name for name in overrides
                       if name not in config.__dataclass_fields__]
    if unknown_options:
        raise ValueError(f"unknown trace options {unknown_options}")
    if overrides:
        config = replace(config, **overrides)  # never mutate the caller's
    if not config.apps:
        raise ValueError("trace needs at least one app")
    known = set(REGISTRY.names())
    unknown = [app for app in config.apps if app not in known]
    if unknown:
        raise ValueError(f"trace names unknown apps {unknown}")

    rng = random.Random(config.seed)
    requests: List[Request] = []
    for index in range(config.size):
        app = config.apps[index % len(config.apps)]
        shape = rng.randrange(max(1, config.distinct_shapes))
        requests.append(Request(
            app=app,
            n_threads=config.n_threads,
            seed=shape,
        ))
    return requests
