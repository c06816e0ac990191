"""Simulation engine, metrics and run artifacts."""

from . import metrics
from .engine import (CAPACITY_SLACK, CapacityViolation, ModuleRuntimes,
                     RunResult, simulate)
from .recorder import save_summary, summarize

__all__ = [
    "CAPACITY_SLACK", "CapacityViolation", "ModuleRuntimes", "RunResult",
    "metrics", "save_summary", "simulate", "summarize",
]
