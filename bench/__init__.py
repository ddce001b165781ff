"""The repo benchmark: workloads, oracle, tracing and comparison (see README.md)."""
