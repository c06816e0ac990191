"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import FIGURES, build_parser, main

#: Figure ids as the paper numbers them (there is no Figure 3 to run).
PAPER_ORDER = ["1", "2", "4", "5", "6", "7", "8", "9", "10", "11", "12",
               "13", "14", "table4"]


def test_list_schemes(capsys):
    assert main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    assert "Pretium" in out
    assert "RegionOracle" in out


def test_generate_workload_roundtrip(tmp_path, capsys):
    path = tmp_path / "wl.json"
    code = main(["generate-workload", "--out", str(path), "--nodes", "8",
                 "--days", "1", "--steps-per-day", "6", "--seed", "1"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["kind"] == "workload"
    assert payload["steps_per_day"] == 6


def test_run_on_generated_workload(tmp_path, capsys):
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "8",
          "--days", "1", "--steps-per-day", "6", "--seed", "1"])
    capsys.readouterr()
    summary_path = tmp_path / "summary.json"
    code = main(["run", "--scheme", "NoPrices", "--workload", str(wl_path),
                 "--out", str(summary_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "welfare" in out
    record = json.loads(summary_path.read_text())
    assert record["scheme"] == "NoPrices"


def test_list_figures(capsys):
    assert main(["list-figures"]) == 0
    out = capsys.readouterr().out.split()
    assert out == PAPER_ORDER == list(FIGURES)


def test_figure_usage_error_lists_ids_in_paper_order(capsys):
    with pytest.raises(SystemExit):
        main(["figure", "3"])
    err = capsys.readouterr().err
    assert "(choose from " + ", ".join(repr(fid) for fid in PAPER_ORDER) \
        + ")" in err


def test_run_with_telemetry_writes_trace_and_report_reads_it(
        tmp_path, capsys):
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "8",
          "--days", "1", "--steps-per-day", "6", "--seed", "1"])
    capsys.readouterr()
    trace_path = tmp_path / "trace.jsonl"
    code = main(["run", "--scheme", "Pretium", "--workload", str(wl_path),
                 "--telemetry", str(trace_path)])
    assert code == 0
    assert "telemetry trace written" in capsys.readouterr().out

    from repro.telemetry import aggregate_spans, read_trace
    events = read_trace(trace_path)
    names = {e["name"] for e in events if e.get("type") == "span"}
    assert {"lp.solve", "ra", "sam", "pc", "run", "scheme.run"} <= names
    assert any(e.get("type") == "metrics" for e in events)

    # `telemetry report` renders the same trace as a runtime table
    assert main(["telemetry", "report", str(trace_path)]) == 0
    out = capsys.readouterr().out
    for name in ("ra", "sam", "pc", "lp.solve", "median_s", "p95_s"):
        assert name in out

    # the trace-derived module stats are the Table 4 numbers for this run
    stats = aggregate_spans(events)
    assert {"ra", "sam", "pc"} <= set(stats)
    assert stats["ra"]["count"] > 0


def test_telemetry_report_missing_or_malformed_trace(tmp_path, capsys):
    assert main(["telemetry", "report", str(tmp_path / "nope.jsonl")]) == 1
    assert "no such trace file" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.warns(UserWarning, match="corrupt trace line"):
        assert main(["telemetry", "report", str(bad)]) == 1
    assert "not a JSONL trace" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", '{"type": "metrics"}\n'],
                         ids=["empty", "metrics-only"])
@pytest.mark.parametrize("command", ["report", "flame"])
def test_span_readers_reject_a_span_free_trace(tmp_path, capsys, command,
                                               content):
    trace = tmp_path / "spanless.jsonl"
    trace.write_text(content)
    assert main(["telemetry", command, str(trace)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no span events in {trace} — run with "
                            "--telemetry to record spans\n")


@pytest.mark.parametrize("command", ["report", "audit"])
def test_telemetry_warns_once_per_corrupt_line(traced_run, tmp_path, capsys,
                                               command):
    trace_path, _ = traced_run
    torn = tmp_path / "torn.jsonl"
    torn.write_text(trace_path.read_text() + "{torn\nnot json\n")
    with pytest.warns(UserWarning, match="corrupt trace line") as caught:
        assert main(["telemetry", command, str(torn)]) == 0
    assert sum("corrupt trace line" in str(w.message) for w in caught) == 2


@pytest.mark.parametrize("command", ["report", "audit", "timeline",
                                     "flame"])
def test_telemetry_treats_non_object_lines_as_corrupt(tmp_path, capsys,
                                                      command):
    # JSON values that are not objects are not events: each is warned
    # about and skipped, so the file holds no trace at all
    numbers = tmp_path / "numbers.jsonl"
    numbers.write_text("1\n2\n")
    extra = ["0"] if command == "timeline" else []
    with pytest.warns(UserWarning, match="corrupt trace line") as caught:
        assert main(["telemetry", command, str(numbers), *extra]) == 1
    assert sum("corrupt trace line" in str(w.message) for w in caught) == 2
    assert "not a JSONL trace" in capsys.readouterr().err


def test_run_without_telemetry_leaves_tracer_disabled(tmp_path, capsys):
    from repro.telemetry import get_tracer
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "8",
          "--days", "1", "--steps-per-day", "6", "--seed", "1"])
    summary_path = tmp_path / "summary.json"
    code = main(["run", "--scheme", "Pretium", "--workload", str(wl_path),
                 "--out", str(summary_path)])
    assert code == 0
    assert not get_tracer().enabled
    capsys.readouterr()
    # benchmark summary schema unchanged: runtimes still present
    record = json.loads(summary_path.read_text())
    assert "runtimes" in record
    assert "SAM" in record["runtimes"]


def test_figure_command(capsys):
    assert main(["figure", "2"]) == 0
    out = capsys.readouterr().out
    assert "pretium" in out
    assert "34" in out


def test_figure_5(capsys):
    assert main(["figure", "5"]) == 0
    out = capsys.readouterr().out
    assert "slope" in out


def test_all_figures_registered():
    for fid in PAPER_ORDER:
        assert fid in FIGURES


def test_parser_rejects_unknown_scheme():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--scheme", "Gurobi"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One small telemetry run shared by the telemetry-subcommand tests."""
    tmp_path = tmp_path_factory.mktemp("traced")
    wl_path = tmp_path / "wl.json"
    trace_path = tmp_path / "trace.jsonl"
    summary_path = tmp_path / "summary.json"
    assert main(["generate-workload", "--out", str(wl_path), "--nodes",
                 "8", "--days", "1", "--steps-per-day", "6",
                 "--seed", "1"]) == 0
    assert main(["run", "--scheme", "Pretium", "--workload", str(wl_path),
                 "--telemetry", str(trace_path),
                 "--out", str(summary_path)]) == 0
    return trace_path, summary_path


def test_telemetry_audit_clean_run(traced_run, capsys):
    trace_path, summary_path = traced_run
    capsys.readouterr()
    code = main(["telemetry", "audit", str(trace_path),
                 "--summary", str(summary_path)])
    assert code == 0
    assert "audit clean" in capsys.readouterr().out


def test_telemetry_audit_flags_tampered_trace(tmp_path, traced_run,
                                              capsys):
    trace_path, _ = traced_run
    tampered = tmp_path / "tampered.jsonl"
    lines = trace_path.read_text().splitlines()
    out_lines = []
    bumped = False
    for line in lines:
        event = json.loads(line)
        if (not bumped and event.get("type") == "ledger"
                and event.get("event") == "SETTLED"
                and event.get("payment", 0) > 0):
            event["payment"] = event["payment"] + 100.0
            bumped = True
        out_lines.append(json.dumps(event))
    assert bumped, "expected a paying SETTLED event in the trace"
    tampered.write_text("\n".join(out_lines) + "\n")
    capsys.readouterr()
    assert main(["telemetry", "audit", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "settlement" in out
    assert "unwaived" in out


def test_telemetry_timeline(traced_run, capsys):
    trace_path, _ = traced_run
    from repro.telemetry import Ledger, read_trace, timeline
    ledger = Ledger(read_trace(trace_path))
    rid = next(h.rid for h in ledger.requests()
               if h.status == "COMPLETED")
    capsys.readouterr()
    assert main(["telemetry", "timeline", str(trace_path),
                 str(rid)]) == 0
    out = capsys.readouterr().out
    assert f"request {rid}" in out
    assert "ARRIVED" in out and "SETTLED" in out
    # streaming keeps only this request's events: same text as the
    # timeline of the whole loaded trace
    assert out == timeline(read_trace(trace_path), rid) + "\n"

    assert main(["telemetry", "timeline", str(trace_path), "999999"]) == 1
    assert "no ledger events" in capsys.readouterr().err


def test_telemetry_subcommands_reject_bad_trace(tmp_path, capsys):
    missing = str(tmp_path / "nope.jsonl")
    garbage = tmp_path / "bad.jsonl"
    garbage.write_text("not json at all\n")
    for sub in (["audit"], ["flame"], ["timeline"]):
        args = ["telemetry", sub[0], missing] + sub[1:]
        if sub[0] == "timeline":
            args.append("0")
        assert main(args) == 1, sub
        assert "no such trace file" in capsys.readouterr().err
        args[2] = str(garbage)
        with pytest.warns(UserWarning, match="corrupt trace line"):
            assert main(args) == 1, sub
        assert "not a JSONL trace" in capsys.readouterr().err


# -- sweep subcommand ---------------------------------------------------------

@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One 2-worker CLI sweep shared by the sweep-command tests."""
    tmp_path = tmp_path_factory.mktemp("swept")
    trace_path = tmp_path / "sweep.jsonl"
    out_path = tmp_path / "summaries.json"
    code = main(["sweep", "--schemes", "Pretium,NoPrices", "--scenario",
                 "tiny", "--seeds", "0,1", "--workers", "2",
                 "--telemetry", str(trace_path), "--out", str(out_path)])
    assert code == 0
    return trace_path, out_path


def test_sweep_prints_cell_table_and_writes_outputs(swept, capsys):
    trace_path, out_path = swept
    records = json.loads(out_path.read_text())
    assert len(records) == 4
    assert {r["scheme"] for r in records} == {"Pretium", "NoPrices"}
    assert all(r["ok"] and "welfare" in r for r in records)
    assert trace_path.exists()


def test_sweep_merged_trace_audits_clean(swept, capsys):
    trace_path, _ = swept
    capsys.readouterr()
    assert main(["telemetry", "audit", str(trace_path)]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_sweep_timeline_cell_filter(swept, capsys):
    trace_path, _ = swept
    capsys.readouterr()
    assert main(["telemetry", "timeline", str(trace_path), "0",
                 "--cell", "0"]) == 0
    out = capsys.readouterr().out
    assert "request 0" in out
    from repro.telemetry import read_trace, timeline
    cell = [event for event in read_trace(trace_path)
            if event.get("cell") == 0]
    assert out == timeline(cell, 0) + "\n"
    assert main(["telemetry", "timeline", str(trace_path), "0",
                 "--cell", "99"]) == 1
    assert "cell 99" in capsys.readouterr().err


def test_sweep_rejects_bad_grids(capsys):
    assert main(["sweep", "--schemes", "Gurobi"]) == 2
    assert "unknown scheme" in capsys.readouterr().err
    assert main(["sweep", "--schemes", "Pretium", "--seeds", "x"]) == 2
    assert "invalid seed list" in capsys.readouterr().err
    assert main(["sweep", "--schemes", "Pretium", "--faults", "zap"]) == 2
    assert "fault" in capsys.readouterr().err
    # Grids a campaign rejects at load are rejected before any cell runs.
    for bad in (["--loads", "-1"], ["--loads", "nan"], ["--loads", "0,1"]):
        assert main(["sweep", "--scenario", "tiny", "--schemes", "Pretium",
                     *bad]) == 2
        assert "loads must be finite and > 0" in capsys.readouterr().err
    assert main(["sweep", "--scenario", "tiny", "--schemes", "Pretium",
                 "--loads", "2,2"]) == 2
    assert "loads repeats [2.0]" in capsys.readouterr().err
    assert main(["sweep", "--scenario", "tiny", "--schemes",
                 "Pretium,Pretium", "--seeds", "0,0"]) == 2
    assert "schemes repeats ['Pretium']" in capsys.readouterr().err
    assert main(["sweep", "--scenario", "tiny", "--schemes", "Pretium",
                 "--seeds", "0,0"]) == 2
    assert "seeds repeats [0]" in capsys.readouterr().err


def test_sweep_reports_cell_failures(tmp_path, capsys, monkeypatch):
    # Force one scheme to crash inside its cell via a bad kwarg spec.
    from repro.experiments import runner as runner_module
    from repro.experiments.runner import SCHEME_SPECS
    broken = dataclasses.replace(SCHEME_SPECS["NoPrices"],
                                 kwargs=(("explode", True),))
    monkeypatch.setitem(runner_module.SCHEME_SPECS, "NoPrices", broken)
    code = main(["sweep", "--schemes", "NoPrices,OPT", "--scenario",
                 "tiny"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAILED: TypeError" in captured.out
    assert "1 failed" in captured.out
    assert "explode" in captured.err


def test_run_accepts_knob_flags_and_rejects_removed_ones(tmp_path, capsys):
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "8",
          "--days", "1", "--steps-per-day", "6", "--seed", "1"])
    capsys.readouterr()
    assert main(["run", "--scheme", "Pretium", "--workload", str(wl_path),
                 "--routing", "ecmp", "--solver-retries", "1"]) == 0
    assert "welfare" in capsys.readouterr().out
    for gone in (["--workers", "2"], ["--quote-path", "scan"],
                 ["--lp-builder", "expr"], ["--no-sam-fast-path"],
                 ["--no-sam-skeleton-cache"]):
        with pytest.raises(SystemExit):
            main(["run", "--workload", str(wl_path), *gone])
    for gone in (["sweep", "--scenario", "tiny", "--worker-start", "spawn"],
                 ["sweep", "--scenario", "tiny", "--chunk-size", "1"],
                 ["campaign", "smoke", "--chunk-size", "1"], ["perfgate"]):
        with pytest.raises(SystemExit) as exited:
            main(gone)
        assert exited.value.code == 2


def test_run_rejects_a_bad_option_value_without_a_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--solver-retries", "-1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert "error: solver_retries must be >= 0" in run.stderr
    assert "Traceback" not in run.stderr


def test_run_rejects_classes_with_a_workload_artifact(tmp_path, capsys):
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "6",
          "--days", "1", "--steps-per-day", "4", "--seed", "1"])
    capsys.readouterr()
    assert main(["run", "--workload", str(wl_path),
                 "--classes", "qos3"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "carries its own classes" in err


def _broken_request(payload, field, number):
    payload["requests"][0][field] = number
    return json.dumps(payload)


@pytest.mark.parametrize("damage, says", [
    (None, "No such file"),
    (lambda payload: "{not json", "Expecting property name"),
    (lambda payload: json.dumps({**payload, "requests": [{"rid": 0}]}),
     "missing key 'src'"),
    (lambda payload: _broken_request(payload, "value", float("nan")),
     "value must be finite"),
    (lambda payload: _broken_request(payload, "demand", float("nan")),
     "demand must be finite"),
    (lambda payload: _broken_request(payload, "demand", float("inf")),
     "demand must be finite"),
    (lambda payload: json.dumps({**payload, "requests": payload["requests"]
                                 + payload["requests"][-1:]}),
     "rid appears more than once"),
], ids=["missing", "malformed", "missing-key", "nan-value", "nan-demand",
        "inf-demand", "repeated-rid"])
def test_run_rejects_a_bad_workload_artifact(tmp_path, capsys, damage, says):
    wl_path = tmp_path / "wl.json"
    main(["generate-workload", "--out", str(wl_path), "--nodes", "6",
          "--days", "1", "--steps-per-day", "4", "--seed", "1"])
    if damage is None:
        wl_path.unlink()
    else:
        wl_path.write_text(damage(json.loads(wl_path.read_text())))
    capsys.readouterr()
    for scheme in ("Pretium", "OPT"):
        assert main(["run", "--scheme", scheme,
                     "--workload", str(wl_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load workload {wl_path}: ")
        assert says in err and err.count("\n") == 1


# -- campaign subcommand ------------------------------------------------------

def test_campaign_list_presets(capsys):
    assert main(["campaign", "--list"]) == 0
    out = capsys.readouterr().out
    assert "smoke:" in out and "paper-scale:" in out


def test_campaign_runs_smoke_preset_to_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["campaign", "smoke", "--out-dir", str(out_dir),
                 "--workers", "2"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "3 cell(s), 0 failed" in printed
    assert "peak RSS" in printed
    assert (out_dir / "report.md").exists()
    assert (out_dir / "report.html").exists()
    assert (out_dir / "campaign.json").exists()
    record = json.loads((out_dir / "campaign.json").read_text())
    assert record["ok"] is True
    # the preset's telemetry trace is audit-ready
    capsys.readouterr()
    assert main(["telemetry", "audit", str(out_dir / "main.jsonl")]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_campaign_runs_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "campaign": {"name": "mini", "title": "Mini"},
        "sweeps": [{"name": "s", "schemes": ["NoPrices"],
                    "scenario": "tiny", "seeds": [0]}],
        "figures": [{"name": "cells", "kind": "cell_table",
                     "sweep": "s"}]}))
    out_dir = tmp_path / "out"
    assert main(["campaign", str(spec_path),
                 "--out-dir", str(out_dir)]) == 0
    assert "1 cell(s), 0 failed" in capsys.readouterr().out
    assert "Mini" in (out_dir / "report.md").read_text()


def test_campaign_rejects_bad_specs(tmp_path, capsys):
    assert main(["campaign"]) == 2
    assert "preset name or spec path" in capsys.readouterr().err
    assert main(["campaign", "no-such-campaign"]) == 2
    assert "neither a campaign preset" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"campaign": {"name": "x"}}))
    assert main(["campaign", str(bad)]) == 2
    assert "declares no sweeps" in capsys.readouterr().err


def test_campaign_reports_checks_and_exits_1_on_a_failed_one(tmp_path,
                                                             capsys):
    claim = {"figure": "welfare", "kind": "above", "scheme": "Pretium"}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "campaign": {"name": "checked"},
        "sweeps": [{"name": "s", "schemes": ["Pretium", "NoPrices"],
                    "scenario": "tiny", "loads": [2.0]}],
        "figures": [{"name": "welfare", "kind": "welfare_vs_load",
                     "sweep": "s"}],
        "checks": [{"name": "holds", "than": -1e9, **claim},
                   {"name": "breaks", "than": 1e9, **claim}]}))
    out_dir = tmp_path / "out"
    assert main(["campaign", str(spec_path),
                 "--out-dir", str(out_dir)]) == 1
    printed = capsys.readouterr().out
    assert "check holds: pass" in printed
    assert "check breaks: FAIL (Pretium > 1e+09 at every load" in printed
    assert "0 failed" in printed        # every cell ran; a check failed
    markdown = (out_dir / "report.md").read_text()
    assert "## Checks" in markdown
    rows = [line for line in markdown.splitlines()
            if line.startswith(("holds", "breaks"))]
    assert rows[0].endswith("pass") and rows[1].endswith("FAIL")
    assert '<td class="failed">FAIL</td>' in (
        out_dir / "report.html").read_text()
    record = json.loads((out_dir / "campaign.json").read_text())
    assert record["ok"] is True
    assert [(c["name"], c["ok"]) for c in record["checks"]] == [
        ("holds", True), ("breaks", False)]
    assert record["spec"]["checks"][1]["than"] == 1e9


@pytest.mark.parametrize("breaks", [False, True])
def test_figure_11_runs_its_slice_of_the_figures_preset(
        breaks, monkeypatch, capsys):
    """``figure 11`` runs only the ablation sweep (at ``--seed``), its
    figure and the checks on it, and exits 1 if one of them fails.  The
    preset is scaled down to the tiny world here."""
    import copy

    from repro import api
    from repro.experiments import campaign as campaign_module

    preset = copy.deepcopy(campaign_module.CAMPAIGN_PRESETS["figures"])
    for sweep in preset["sweeps"]:
        sweep.update(scenario="tiny", loads=[2.0])
    claim = {"figure": "fig11", "kind": "above", "scheme": "Pretium"}
    preset["checks"] = [
        {"name": "fig6-only", "figure": "fig6", "kind": "above",
         "scheme": "Pretium", "than": 1e9},
        {"name": "holds", "than": -1e9, **claim}] + (
        [{"name": "breaks", "than": 1e9, **claim}] if breaks else [])
    monkeypatch.setitem(campaign_module.CAMPAIGN_PRESETS, "figures", preset)
    ran = []
    real_campaign = api.campaign
    monkeypatch.setattr(api, "campaign", lambda spec, out_dir: ran.append(
        spec) or real_campaign(spec, out_dir))

    code = main(["figure", "11", "--seed", "3", "--workers", "2"])
    assert code == (1 if breaks else 0)
    (spec,) = ran
    assert [(s.name, s.seeds) for s in spec.sweeps] == [("ablations", (3,))]
    assert [f.name for f in spec.figures] == ["fig11"]
    assert [c.name for c in spec.checks] == ["holds"] + (
        ["breaks"] if breaks else [])
    assert spec.options.workers == 2
    out = capsys.readouterr().out
    assert "== figure 11 - fig11: welfare / OPT by scheme and load ==" in out
    table = out.split("==\n", 1)[1]
    assert [line.split()[0] for line in table.splitlines()[2:6]] == [
        "OPT", "Pretium", "Pretium-NoMenu", "Pretium-NoSAM"]
    assert "check holds: pass" in out
    assert ("check breaks: FAIL" in out) is breaks
    assert "fig6-only" not in out


def test_campaign_reports_cell_failures(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner as runner_module
    from repro.experiments.runner import SCHEME_SPECS
    broken = dataclasses.replace(SCHEME_SPECS["NoPrices"],
                                 kwargs=(("explode", True),))
    monkeypatch.setitem(runner_module.SCHEME_SPECS, "NoPrices", broken)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "campaign": {"name": "f"},
        "sweeps": [{"name": "s", "schemes": ["NoPrices", "OPT"],
                    "scenario": "tiny", "seeds": [0]}]}))
    code = main(["campaign", str(spec_path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    assert "1 failed" in captured.out
    assert "explode" in captured.err


# -- serve --------------------------------------------------------------------

def test_serve_runs_load_and_writes_report(tmp_path, capsys):
    out = tmp_path / "service.json"
    trace = tmp_path / "service.jsonl"
    code = main(["serve", "--scenario", "tiny", "--seed", "0",
                 "--price-checks", "2", "--batch-window", "0.002",
                 "--telemetry", str(trace), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "quotes_per_s" in printed
    assert "cache_hits" in printed
    assert "welfare" in printed
    payload = json.loads(out.read_text())
    assert payload["load"]["offered"] > 0
    assert payload["load"]["errors"] == 0
    assert payload["load"]["answered"] == payload["load"]["offered"]
    assert payload["cache"]["service.menu_cache.hits"] > 0
    assert payload["service_options"]["batch_window"] == 0.002
    assert payload["summary"]["n_requests"] == payload["load"]["offered"]
    # the trace is audit-ready
    capsys.readouterr()
    assert main(["telemetry", "audit", str(trace)]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_serve_accepts_service_knobs_and_rejects_bad_ones(capsys):
    assert main(["serve", "--scenario", "tiny", "--seed", "0",
                 "--cache-size", "0", "--max-pending", "8",
                 "--quote-deadline", "5", "--solver-retries", "1"]) == 0
    capsys.readouterr()
    assert main(["serve", "--scenario", "tiny",
                 "--quote-deadline", "-1"]) == 2
    assert "error" in capsys.readouterr().err
    # A window that never closes would hold a lone submission forever.
    assert main(["serve", "--scenario", "tiny",
                 "--batch-window", "inf"]) == 2
    assert "batch_window must be finite" in capsys.readouterr().err


def test_serve_rejects_bad_fault_spec(capsys):
    assert main(["serve", "--scenario", "tiny",
                 "--faults", "sam:nonsense"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["serve", "--scenario", "tiny"]])
def test_classes_flag_reaches_run_and_serve(command, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*command, "--classes", "qos3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    summary = payload.get("summary", payload)     # serve nests its summary
    assert set(summary["per_class"]) == {"interactive", "elastic",
                                         "background"}
