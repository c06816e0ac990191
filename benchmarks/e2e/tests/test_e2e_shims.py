import importlib
import threading
import time

import pytest

from benchmarks.e2e import shims


def _targets_now():
    out = []
    for module_name, owner_name, attr, _span, _attrs in shims.TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        out.append(owner.__dict__[attr] if owner_name else getattr(owner, attr))
    return out


def test_shims_restore_the_original_callables():
    before = _targets_now()
    recorder = shims.Recorder()
    with shims.installed(recorder):
        during = _targets_now()
        assert all(now is not was for now, was in zip(during, before))
    assert all(now is was for now, was in zip(_targets_now(), before))


def test_shims_restore_after_an_exception():
    before = _targets_now()
    with pytest.raises(RuntimeError):
        with shims.installed(shims.Recorder()):
            raise RuntimeError("boom")
    assert all(now is was for now, was in zip(_targets_now(), before))


def test_one_callable_under_two_globals_is_wrapped_once():
    import repro.faults.resilience as resilience
    import repro.lp.solver as solver
    with shims.installed(shims.Recorder()):
        assert resilience.solve_model is solver.solve_model


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_partition_the_traced_wall():
    recorder = shims.Recorder()
    leaf = recorder.wrap("lp.solve", lambda: _busy(0.004))

    def middle():
        _busy(0.002)
        leaf()
        leaf()

    middle = recorder.wrap("sam.adjust", middle)
    with recorder.span("run", root=True):
        _busy(0.001)
        middle()
        middle()
    spans = recorder.spans
    root = spans[-1]
    wall = root[4] - root[3]
    own = shims.self_times(spans)
    assert sum(own.values()) == pytest.approx(wall, rel=1e-9)
    assert all(value >= 0 for value in own.values())
    layers = shims.layer_self_times(spans)
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9)
    assert layers["lp"] == pytest.approx(0.016, rel=0.25)
    assert layers["core.sam"] == pytest.approx(0.004, rel=0.5)


def test_another_threads_spans_hang_off_the_root():
    recorder = shims.Recorder()
    work = recorder.wrap("scheme.step", lambda: _busy(0.003))
    with recorder.span("service.pass", root=True) as root_id:
        thread = threading.Thread(target=lambda: (work(), work()))
        thread.start()
        thread.join()
    steps = [span for span in recorder.spans if span[2] == "scheme.step"]
    assert [span[1] for span in steps] == [root_id, root_id]
    layers = shims.layer_self_times(recorder.spans)
    root = recorder.spans[-1]
    assert sum(layers.values()) == pytest.approx(root[4] - root[3], rel=1e-9)
    # Outside the root, a thread without a stack has no parent at all.
    work()
    assert recorder.spans[-1][1] is None


def test_span_attrs_and_file_round_trip(tmp_path):
    import json

    class Request:
        rid = 42

    recorder = shims.Recorder()
    arrival = recorder.wrap("scheme.arrival", lambda scheme, request, t: None,
                            shims._rid_of_request)
    arrival(object(), Request(), 3)
    path = tmp_path / "spans.jsonl"
    recorder.write(path, run="w:0")
    (row,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert row["name"] == "scheme.arrival" and row["rid"] == 42
    assert row["run"] == "w:0" and row["end"] >= row["start"]


def test_every_span_name_has_a_layer():
    names = {span for _m, _o, _a, span, _x in shims.TARGETS}
    assert names <= set(shims.LAYER_OF)
    assert set(shims.LAYER_OF.values()) <= set(shims.LAYERS)
