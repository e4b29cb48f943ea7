"""Benchmark harness for the higman toolkit; see README.md."""
