"""Benchmark of the brat CLI: seeded workloads, answer checker, traced launcher."""
