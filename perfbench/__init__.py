"""Benchmark for homevitals: see README.md in this directory."""
