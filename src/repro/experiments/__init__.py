"""Experiments layer: scenarios, runners, per-figure generators (§6)."""

from . import figures
from .campaign import (CAMPAIGN_PRESETS, CampaignResult, CampaignSpec,
                       CampaignSweepSpec, campaign_spec, run_campaign)
from .figure2 import ExampleRow, figure2_table
from .incentives import (DEVIATIONS, DeviationOutcome, DeviationReport,
                         deviation_study)
from .report import format_series, format_table
from .runner import (SCHEME_SPECS, SchemeSpec, run_scheme, run_schemes,
                     scheme_spec, summaries)
from .scenarios import (DEFAULT_SEED, LOAD_FACTORS, Scenario, ScenarioSpec,
                        multiclass_scenario, production_scenario,
                        quick_scenario, standard_scenario,
                        standard_topology, tiny_scenario)
from .sweep import (CellResult, SweepCell, SweepGrid, SweepResult,
                    cached_scenario, run_cell, run_sweep,
                    scenario_cache_stats)

__all__ = [
    "CAMPAIGN_PRESETS", "CampaignResult", "CampaignSpec", "CampaignSweepSpec",
    "CellResult", "DEFAULT_SEED", "DEVIATIONS", "DeviationOutcome",
    "DeviationReport", "ExampleRow", "LOAD_FACTORS", "SCHEME_SPECS",
    "Scenario", "ScenarioSpec", "SchemeSpec", "SweepCell", "SweepGrid",
    "SweepResult", "cached_scenario", "campaign_spec", "deviation_study",
    "figure2_table", "figures", "format_series", "format_table",
    "multiclass_scenario", "production_scenario", "quick_scenario",
    "run_campaign", "run_cell", "run_scheme", "run_schemes", "run_sweep",
    "scenario_cache_stats", "scheme_spec", "standard_scenario",
    "standard_topology", "summaries", "tiny_scenario",
]
