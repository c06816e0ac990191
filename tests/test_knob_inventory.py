"""Tripwire for the set of knobs: config fields and CLI options.

Every knob has to earn its place, so adding or removing one should be a
reviewed, one-line diff here rather than a side effect.  These tests pin
the field names of the option dataclasses and the option strings of
every ``python -m repro`` subcommand; update them together with the
knob.
"""

import argparse
import dataclasses

import pytest

from repro.cli import build_parser
from repro.core import PretiumConfig
from repro.faults import RetryPolicy
from repro.options import RunOptions, ServiceOptions

FIELDS = {
    PretiumConfig: [
        "route_count", "routing", "window", "lookback", "initial_price",
        "price_floor", "congestion_threshold", "congestion_multiplier",
        "topk_fraction", "percentile", "highpri_fraction",
        "sam_enabled", "menu_enabled", "short_term_adjustment",
        "allow_best_effort", "solver_backend", "solver_retries",
        "solver_time_limit", "solver_maxiter"],
    RunOptions: [
        "routing", "classes", "solver_backend", "solver_retries", "faults",
        "fault_seed", "link_kills", "telemetry", "trace_tags", "workers"],
    ServiceOptions: [
        "batch_window", "batch_max", "cache_size", "quote_deadline",
        "max_pending"],
    RetryPolicy: ["retries", "time_limit", "maxiter"],
}

#: The flags ``run``, ``sweep`` and ``serve`` share (``_add_knob_flags``).
RUN_KNOBS = ["--classes", "--fault-seed", "--faults", "--link-kills",
             "--routing", "--solver-backend", "--solver-retries",
             "--telemetry"]

OPTIONS = {
    "generate-workload": ["--days", "--load", "--metered-cost", "--nodes",
                          "--out", "--regions", "--seed", "--steps-per-day"],
    "run": sorted(RUN_KNOBS + ["--load", "--out", "--scheme", "--seed",
                               "--workload"]),
    "sweep": sorted(RUN_KNOBS + ["--loads", "--out", "--scenario",
                                 "--schemes", "--seeds", "--workers"]),
    "campaign": ["--list", "--out-dir", "--workers"],
    "serve": sorted(RUN_KNOBS + [
        "--batch-max", "--batch-window", "--cache-size", "--max-pending",
        "--out", "--price-checks", "--quote-deadline",
        "--rate", "--scenario", "--scheme", "--seed"]),
    "figure": ["--seed", "--workers"],
    "list-schemes": [],
    "list-figures": [],
    "telemetry": [],
    "telemetry report": [],
    "telemetry audit": ["--summary"],
    "telemetry timeline": ["--cell"],
    "telemetry flame": ["--format", "--out"],
}


def _subcommands(parser, prefix=""):
    """``(name, parser)`` for every subcommand, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                full = f"{prefix}{name}"
                yield full, sub
                yield from _subcommands(sub, prefix=f"{full} ")


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_dataclass_fields_are_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


def test_cli_option_strings_are_pinned():
    seen = {name: sorted(option for action in sub._actions
                         for option in action.option_strings
                         if option not in ("-h", "--help"))
            for name, sub in _subcommands(build_parser())}
    assert seen == OPTIONS
