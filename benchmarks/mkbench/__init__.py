"""minorkern benchmark: harness, per-layer tracing and the four workloads."""
