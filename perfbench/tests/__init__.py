"""Tests of the benchmark harness (``python -m pytest perfbench/tests``)."""
