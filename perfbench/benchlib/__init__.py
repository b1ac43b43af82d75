"""Helpers of the repository benchmark (``python3 perfbench/run.py``).

The modules here never import :mod:`repro` at import time, so the
orchestrator and the helper tests run without the package on the path.
"""
