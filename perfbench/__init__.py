"""Benchmark for pcekit; see README.md."""
