"""Benchmark harness for tilepipe; see README.md."""
