import json

from benchmarks.e2e import compare


def test_one_file_a_side_resolves_only_past_the_bound():
    assert compare.verdict([10.0], [10.5], "lower", 0.1)[0] == "within"
    assert compare.verdict([10.0], [11.5], "lower", 0.1)[0] == "worse"
    assert compare.verdict([10.0], [8.0], "lower", 0.1)[0] == "better"
    assert compare.verdict([10.0], [8.0], "higher", 0.1)[0] == "worse"


def test_nine_tenths_of_pairs_and_a_gap_beyond_the_bases_quartiles():
    base = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [value - 0.6 for value in base]
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "better"
    # Same medians' gap, but only eight of ten pairs won: not a gain.
    mixed = faster[:8] + [base[8] + 0.1, base[9] + 0.1]
    assert compare.verdict(base, mixed, "lower", 0.1)[0] == "within"
    # A gap smaller than the base's own quartile distance is noise.
    nudge = [value - 0.05 for value in base]
    assert compare.verdict(base, nudge, "lower", 0.1)[0] == "within"


def test_spread_wider_than_the_bound_is_unresolved_unless_a_clean_sweep():
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 13.0, 7.0, 11.0, 10.0, 12.5]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    far_better = [value / 10 for value in noisy]
    assert compare.verdict(noisy, far_better, "lower", 0.1)[0] == "better"


def test_worse_beyond_the_bound_with_many_files():
    base = [10.0, 10.1, 9.9, 10.2, 9.8]
    slower = [value * 1.3 for value in base]
    word, worse_by = compare.verdict(base, slower, "lower", 0.1)
    assert word == "worse" and abs(worse_by - 0.3) < 1e-9


def _results(path, value):
    path.write_text(json.dumps({"runs": [
        {"workload": "dense16-bursty", "trace": 0,
         "metrics": {"run_wall_s": {"value": value, "unit": "s"}}},
        {"workload": "dense16-bursty", "trace": 1,
         "metrics": {"sam.busy_s": {"value": 1.0, "unit": "s"}}}]}))
    return path


def test_compare_command_prints_rows_and_fails_on_a_regression(tmp_path, capsys):
    base = _results(tmp_path / "a.json", 2.0)
    same = _results(tmp_path / "b.json", 2.1)
    slow = _results(tmp_path / "c.json", 3.0)
    assert compare.cmd_compare([str(base), str(same)]) == 0
    out = capsys.readouterr().out
    assert "dense16-bursty" in out and "run_wall_s" in out and "within" in out
    assert "of 2 s" in out                      # every ratio names its base
    assert "sam.busy_s" not in out              # traced runs carry no verdict
    assert compare.cmd_compare(["--base", str(base), "--change", str(slow)]) == 1
    assert "worse" in capsys.readouterr().out
