"""The repository benchmark's library: inputs, load loops, oracle, tracing, metrics."""
