"""The private-query benchmark's own code: workloads, tracing and statistics."""
