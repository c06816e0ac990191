"""Tests for the declarative campaign runner.

A campaign spec (TOML/JSON/dict) must fail loudly at *load* time when it
names anything unknown — scheme, scenario, figure kind, sweep reference,
option field — and, once validated, run every sweep through the
persistent-worker engine and emit a self-contained report artifact
(Markdown + HTML + ``campaign.json``) whose numbers agree with the
sweep results it came from.
"""

import json
import math

import pytest

from repro.experiments.campaign import (CAMPAIGN_PRESETS, CampaignCheckSpec,
                                        CampaignError, CampaignSpec,
                                        FIGURE_KINDS, _campaign_slo,
                                        campaign_spec, evaluate_check,
                                        run_campaign)
from repro.options import RunOptions
from repro.telemetry import MetricsRegistry


def smoke_dict(**overrides):
    """A tiny valid spec dict (2 cells on the tiny world)."""
    raw = {
        "campaign": {"name": "t", "title": "T"},
        "options": {"workers": 1},
        "sweeps": [{"name": "main", "schemes": ["Pretium", "NoPrices"],
                    "scenario": "tiny", "loads": [2.0], "seeds": [0]}],
        "figures": [{"name": "welfare", "kind": "welfare_vs_load",
                     "sweep": "main"},
                    {"name": "cells", "kind": "cell_table",
                     "sweep": "main"}],
    }
    raw.update(overrides)
    return raw


def check(**fields):
    """A valid check entry on ``smoke_dict``'s welfare figure."""
    return {"name": "c", "figure": "welfare", "kind": "above",
            "scheme": "Pretium", "than": ["NoPrices"], **fields}


# -- spec validation ----------------------------------------------------------

def test_from_dict_builds_a_validated_spec():
    spec = CampaignSpec.from_dict(smoke_dict())
    assert spec.name == "t"
    assert [sweep.name for sweep in spec.sweeps] == ["main"]
    assert spec.options.workers == 1
    grid = spec.sweeps[0].grid()
    assert len(grid) == 2
    assert grid.scenarios[0].label == "tiny(load_factor=2.0)"


@pytest.mark.parametrize("mutate, match", [
    (lambda raw: raw.pop("sweeps"), "declares no sweeps"),
    (lambda raw: raw["sweeps"][0].update(schemes=["Nope"]),
     "unknown scheme"),
    (lambda raw: raw["sweeps"][0].update(scenario="zz"),
     "unknown scenario"),
    (lambda raw: raw["sweeps"][0].update(routing="zz"),
     "unknown routing"),
    (lambda raw: raw["figures"][0].update(sweep="zz"),
     "references unknown sweep"),
    (lambda raw: raw["figures"][0].update(kind="nope"), "unknown kind"),
    (lambda raw: raw.update(bogus={}), "unknown top-level"),
    (lambda raw: raw["options"].update(wrkers=2), r"unknown \[options\]"),
    (lambda raw: raw["options"].update(workers=0), r"bad \[options\]"),
    (lambda raw: raw["sweeps"].append(dict(raw["sweeps"][0])),
     "duplicate sweep names"),
    (lambda raw: raw["sweeps"][0].update(bogus=1), "unknown key"),
    (lambda raw: raw["figures"].append(dict(raw["figures"][0])),
     "duplicate figure names"),
    # A string where the spec wants an array is not split into characters.
    (lambda raw: raw["sweeps"][0].update(schemes="Pretium"),
     "sweep 'main': 'schemes' must be an array"),
    (lambda raw: raw["sweeps"][0].update(loads="12"),
     "sweep 'main': 'loads' must be an array"),
    (lambda raw: raw["sweeps"][0].update(seeds="01"),
     "sweep 'main': 'seeds' must be an array"),
    # Grids that cannot run, or that repeat cells.
    (lambda raw: raw["sweeps"][0].update(loads=[-1.0]),
     r"sweep 'main': loads must be finite and > 0, got \[-1.0\]"),
    (lambda raw: raw["sweeps"][0].update(loads=[0.0]), "finite and > 0"),
    (lambda raw: raw["sweeps"][0].update(loads=[float("nan")]),
     "finite and > 0"),
    (lambda raw: raw["sweeps"][0].update(loads=[float("inf")]),
     "finite and > 0"),
    (lambda raw: raw["sweeps"][0].update(loads=[1.0, 2.0, 1.0]),
     r"sweep 'main': loads repeats \[1.0\]"),
    (lambda raw: raw["sweeps"][0].update(seeds=[0, 0]),
     r"seeds repeats \[0\]"),
    (lambda raw: raw["sweeps"][0].update(schemes=["Pretium", "pretium"]),
     r"schemes repeats \['Pretium'\]"),
    # Checks name a scheme row of a declared scheme x load figure.
    (lambda raw: raw.update(checks=[check(figure="nope")]),
     "check 'c' references unknown figure 'nope'"),
    (lambda raw: raw.update(checks=[check(kind="below")]),
     "check 'c': unknown kind 'below'"),
    (lambda raw: raw.update(checks=[check(scheme="OPT")]),
     "check 'c': unknown scheme 'OPT'"),
    (lambda raw: raw.update(checks=[check(than=["NoPrices", "Nope"])]),
     "check 'c': unknown scheme 'Nope'"),
    (lambda raw: raw.update(checks=[check(figure="cells")]),
     "figure 'cells' is a 'cell_table'"),
    (lambda raw: raw.update(checks=[check(than="NoPrices")]),
     "'than' must be a non-empty array of schemes or a number"),
    (lambda raw: raw.update(checks=[check(than=[])]), "'than' must be"),
    (lambda raw: raw.update(checks=[check(bogus=1)]),
     "unknown key.* in check 'c'"),
])
def test_bad_specs_fail_at_load_time(mutate, match):
    raw = smoke_dict()
    mutate(raw)
    with pytest.raises(CampaignError, match=match):
        CampaignSpec.from_dict(raw)


def test_spec_files_roundtrip_json_and_toml(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict(checks=[check(margin=0.1)]))
    json_path = tmp_path / "spec.json"
    json_path.write_text(json.dumps(spec.to_dict()))
    assert CampaignSpec.from_file(json_path) == spec

    toml_path = tmp_path / "spec.toml"
    toml_path.write_text(
        '[campaign]\nname = "t"\ntitle = "T"\n\n'
        '[options]\nworkers = 1\n\n'
        '[[sweeps]]\nname = "main"\n'
        'schemes = ["Pretium", "NoPrices"]\nscenario = "tiny"\n'
        'loads = [2.0]\nseeds = [0]\n\n'
        '[[figures]]\nname = "welfare"\nkind = "welfare_vs_load"\n'
        'sweep = "main"\n\n'
        '[[figures]]\nname = "cells"\nkind = "cell_table"\n'
        'sweep = "main"\n\n'
        '[[checks]]\nname = "c"\nfigure = "welfare"\nkind = "above"\n'
        'scheme = "Pretium"\nthan = ["NoPrices"]\nmargin = 0.1\n')
    try:
        import tomllib  # noqa: F401 — gate: stdlib tomllib is 3.11+
    except ImportError:
        with pytest.raises(CampaignError, match="tomllib"):
            CampaignSpec.from_file(toml_path)
    else:
        assert CampaignSpec.from_file(toml_path) == spec

    bad = tmp_path / "spec.yaml"
    bad.write_text("campaign:\n  name: t\n")
    with pytest.raises(CampaignError, match="unsupported"):
        CampaignSpec.from_file(bad)


def test_campaign_spec_resolver():
    assert campaign_spec("smoke").name == "smoke"
    spec = CampaignSpec.from_dict(smoke_dict())
    assert campaign_spec(spec) is spec
    assert campaign_spec(smoke_dict()) == spec
    with pytest.raises(CampaignError, match="neither a campaign preset"):
        campaign_spec("no-such-preset-or-file")


def test_presets_are_valid_specs():
    for name, raw in CAMPAIGN_PRESETS.items():
        spec = CampaignSpec.from_dict(raw)
        assert spec.name == name
        for figure in spec.figures:
            assert figure.kind in FIGURE_KINDS


# -- execution ----------------------------------------------------------------

def test_run_campaign_writes_report_artifacts(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict())
    result = run_campaign(spec, tmp_path / "out")
    assert result.ok and result.n_cells == 2
    assert result.wall_s > 0 and result.max_rss_mb > 0

    markdown = result.report_md.read_text()
    assert "# Campaign report: T" in markdown
    assert "welfare" in markdown and "peak RSS" in markdown
    html = result.report_html.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<table>" in html and "Pretium" in html

    record = json.loads(result.summary_path.read_text())
    assert record["ok"] is True and record["n_cells"] == 2
    assert record["spec"]["campaign"]["name"] == "t"
    stage_names = [stage["stage"] for stage in record["stages"]]
    assert stage_names == ["sweep:main", "figures", "report"]
    assert all(stage["wall_s"] >= 0 for stage in record["stages"])
    # the welfare figure holds the sweep summaries' numbers, unrounded
    summaries = {row["scheme"]: row for row in record["sweeps"]["main"]}
    welfare_rows = {row[0]: row[1]
                    for row in record["figures"]["welfare"]["rows"]}
    for scheme in ("Pretium", "NoPrices"):
        assert welfare_rows[scheme] == summaries[scheme]["welfare"]


def test_run_campaign_options_override_spec(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict())
    result = run_campaign(spec, tmp_path, options=RunOptions(workers=2))
    assert result.sweeps["main"].n_workers == 2
    # The workers are children of the fork server, not of this process:
    # the reported peak comes from their own gauges.
    worker_peaks = [value for name, value in result.fleet_metrics.items()
                    if name.startswith("worker.peak_rss_mb")]
    assert worker_peaks
    assert all(result.max_rss_mb >= peak for peak in worker_peaks)


def test_campaign_options_classes_reach_every_cell(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict(options={"workers": 1,
                                                      "classes": "qos3"}))
    result = run_campaign(spec, tmp_path)
    assert result.ok
    for cell in result.sweeps["main"].cells:
        assert set(cell.summary["per_class"]) == \
            {"interactive", "elastic", "background"}, cell.label


def test_run_campaign_telemetry_traces_per_sweep(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict(telemetry=True))
    result = run_campaign(spec, tmp_path)
    assert result.ok
    trace = tmp_path / "main.jsonl"
    assert trace.exists()
    assert list(tmp_path.glob("main.cell-*.jsonl")) == []


def test_failed_cells_surface_in_report_and_ok_flag(tmp_path):
    raw = smoke_dict()
    raw["sweeps"][0]["scenario_kwargs"] = {"bogus_kwarg": 1}
    spec = CampaignSpec.from_dict(raw)
    result = run_campaign(spec, tmp_path)
    assert not result.ok
    assert len(result.failures) == 2
    markdown = result.report_md.read_text()
    assert "## Failures" in markdown and "bogus_kwarg" in markdown
    record = json.loads(result.summary_path.read_text())
    assert record["ok"] is False and record["n_failures"] == 2


def test_smoke_preset_runs_end_to_end(tmp_path):
    result = run_campaign(campaign_spec("smoke"), tmp_path)
    # 2 tiny cells plus the multiclass/flowlet cell.
    assert result.ok and result.n_cells == 3
    assert (tmp_path / "report.md").exists()
    assert (tmp_path / "main.jsonl").exists()  # preset asks for telemetry
    assert (tmp_path / "multiclass.jsonl").exists()
    # The per-class figure picked up the multi-class cell's roll-up.
    per_class = result.figures["classes"]
    assert per_class["columns"][2] == "class"


def test_campaign_reports_fleet_metrics_and_slo(tmp_path):
    spec = CampaignSpec.from_dict(smoke_dict())
    result = run_campaign(spec, tmp_path)
    # The fleet view merges every cell's registry dump: the campaign's
    # own counters are there, and the welfare-bearing Pretium counters
    # arrived from the worker side.
    assert result.fleet_metrics["sweep.cells"] == 2
    assert result.fleet_metrics.get("pretium.admitted", 0) > 0
    # SLO status is campaign-flavoured (engine totals, not service's).
    assert result.slo["ok"] is True
    assert result.slo["objectives"]["error_budget"]["ok"] is True

    markdown = result.report_md.read_text()
    assert "## SLO" in markdown and "## Fleet metrics" in markdown
    assert "error_budget" in markdown
    html = result.report_html.read_text()
    assert "Fleet metrics" in html

    record = json.loads(result.summary_path.read_text())
    assert record["fleet_metrics"]["sweep.cells"] == 2
    assert record["slo"]["ok"] is True


def test_campaign_slo_without_data_is_ok():
    status = _campaign_slo(MetricsRegistry())
    assert status["ok"] is True
    assert status["objectives"] == {"quote_latency": None,
                                    "error_budget": None, "degraded": None}


def test_campaign_slo_reads_never_create_metrics():
    registry = MetricsRegistry()
    registry.histogram("service.latency_ms").observe(50.0)
    status = _campaign_slo(registry)
    assert len(registry) == 1
    # A batch campaign judges no quote latency, recorded or not.
    assert status["objectives"]["quote_latency"] is None


def test_campaign_slo_error_budget_burn():
    registry = MetricsRegistry()
    registry.counter("pretium.admitted").inc(98)
    registry.counter("engine.failures").inc(2)
    # 2% bad with a 99.9% target -> burn 20x.
    status = _campaign_slo(registry)
    budget = status["objectives"]["error_budget"]
    assert budget["bad_rate"] == pytest.approx(0.02)
    assert budget["burn"] == pytest.approx(20.0)
    assert budget["ok"] is False and status["ok"] is False


def test_campaign_slo_degraded_rate():
    registry = MetricsRegistry()
    registry.counter("pretium.admitted").inc(90)
    registry.counter("pretium.rejected").inc(10)
    registry.counter("resilience.fallbacks").inc(20)
    status = _campaign_slo(registry)
    assert status["objectives"]["degraded"]["rate"] == pytest.approx(0.2)
    assert status["objectives"]["degraded"]["ok"] is False
    assert status["objectives"]["error_budget"]["ok"] is True


# -- checks -------------------------------------------------------------------

FIGURE = {"columns": ["scheme", "load=1.0", "load=2.0"],
          "rows": [["A", 1.0, 0.5], ["B", 0.9, 0.6], ["C", None, 0.1]]}


@pytest.mark.parametrize("kind, than, margin, ok, worst, at", [
    ("above", ("B",), 0.0, False, -0.1, "load=2.0 vs B"),
    ("above", ("B",), 0.1, False, 0.0, "load=2.0 vs B"),   # 0.5 > 0.5 no
    ("at_least", ("B",), 0.1, True, 0.0, "load=2.0 vs B"),
    ("above", ("B",), 0.2, True, 0.1, "load=2.0 vs B"),
    ("above", 0.4, 0.0, True, 0.1, "load=2.0 vs 0.4"),
    ("above", 0.5, 0.0, False, 0.0, "load=2.0 vs 0.5"),
    ("above_in_sum", ("B",), 0.0, None, 0.0, "sum vs B"),
    ("above_in_sum", ("B",), 0.05, True, 0.1, "sum vs B"),
    ("above_in_sum", ("B",), -0.05, False, -0.1, "sum vs B"),
])
def test_check_kinds_compare_as_declared(kind, than, margin, ok, worst, at):
    spec = CampaignCheckSpec(name="c", figure="f", kind=kind, scheme="A",
                             than=than, margin=margin)
    result = evaluate_check(spec, FIGURE)
    # sum(A) = 1.5 and sum(B) = 1.5 are equal only up to rounding
    if ok is not None:
        assert result["ok"] is ok
    assert result["worst_slack"] == pytest.approx(worst, abs=1e-12)
    assert result["at"] == at


def test_a_check_on_a_failed_cell_fails():
    spec = CampaignCheckSpec(name="c", figure="f", kind="above",
                             scheme="A", than=("C",))
    result = evaluate_check(spec, FIGURE)
    assert result["ok"] is False and result["at"] == "load=1.0 vs C"
    assert math.isnan(result["worst_slack"])


def test_figures_preset_declares_the_design_grid_and_claims():
    spec = campaign_spec("figures")
    assert {sweep.name: (sweep.scenario, sweep.loads, sweep.seeds)
            for sweep in spec.sweeps} == {
        "main": ("standard", (0.5, 1.0, 2.0, 4.0), (0,)),
        "ablations": ("standard", (0.5, 1.0, 2.0, 4.0), (0,))}
    assert [figure.name for figure in spec.figures] == [
        "fig6", "fig8", "fig8-rel", "fig9", "fig11"]
    assert {check.figure for check in spec.checks} == {
        "fig6", "fig8", "fig9", "fig11"}
