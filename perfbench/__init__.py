"""Performance benchmark for cocostream; run it with ``python3 perfbench/run.py``."""
