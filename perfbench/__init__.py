"""Repository benchmark; the entry point is ``perfbench/run.py``."""
