"""Shared pytest-benchmark configuration for the experiment harness.

Every benchmark regenerates one of the paper's tables or figures and asserts
modeled numbers only, so the results repeat exactly on any machine.  The
underlying experiments compile and execute real applications, so each is run
once per benchmark invocation (``rounds=1``) rather than in a tight timing
loop.  Wall-clock measurements live in ``bench/`` (see ``BENCHMARK.json``).
"""

import sys
from pathlib import Path

# Allow running the benchmarks without installing the package first.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
