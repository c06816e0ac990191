"""Same inputs: the scenario builders synthesize bit-identical requests
and calibrated traffic matrices.

Every seed-0 pin, LP digest and figure hangs off these two inputs, so a
change to calibration or to request synthesis must leave both digests
below as they are.  The request digest covers every synthesized request
(before ``production_scenario``'s cap), field by field, floats as
``float.hex``; the TM digest covers the calibrated series' bytes.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.scenarios import (production_scenario, quick_scenario,
                                         standard_scenario)
from repro.traffic import workload as traffic_workload

BUILDS = {
    "quick": quick_scenario,
    "standard": standard_scenario,
    "standard-qos3": lambda: standard_scenario(classes="qos3"),
    "production": lambda: production_scenario(request_cap=400),
}

#: name -> (requests synthesized, request digest, calibrated TM digest).
DIGESTS = {
    "quick": (566, "c3696b5fce092fd4d2a71b8d23729a50"
                   "cf30cc255ecb55312b0a2cd999fde790",
              "922d57d4f2fe82d078dbeef612fa7e1d"
              "e64e6e6607779e2efff647dff66f9de6"),
    "standard": (1973, "9bcfddad7343e96c4e402af79fb28e61"
                       "cb70c8fc78cb4c29aa45aaaed3b36fab",
                 "1cb223ed58dcb557fa8601720221d579"
                 "f8fc408547415ff8866b78c9362ce4f2"),
    "standard-qos3": (1969, "3fdd620fa4fba0ee5039919340d29be7"
                            "476e0e64e9c9e94e8cfdb21a389ed333",
                      "1cb223ed58dcb557fa8601720221d579"
                      "f8fc408547415ff8866b78c9362ce4f2"),
    "production": (40045, "f802b064134b14a8a48cb8335fc3015a"
                          "ec380eae041a7be53a0a911d53561012",
                   "d4ed0f62623ab9f962c785b3d1fc84aa"
                   "6606478d0d98b7621f70b20f50367f81"),
}


def field_text(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def request_digest(requests) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update("|".join(
            field_text(getattr(request, field.name))
            for field in dataclasses.fields(request)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def tm_digest(series) -> str:
    digest = hashlib.sha256(repr(series.demand.shape).encode())
    digest.update(series.demand.dtype.str.encode())
    digest.update(series.demand.tobytes())
    return digest.hexdigest()


def build_inputs(name, monkeypatch):
    """Build the scenario and return what ``build_workload`` calibrated
    and synthesized along the way."""
    seen = {}

    def recording(original, key):
        def wrapper(*args, **kwargs):
            seen[key] = original(*args, **kwargs)
            return seen[key]
        return wrapper

    for attr in ("calibrate_tm", "synthesize_requests"):
        monkeypatch.setattr(traffic_workload, attr, recording(
            getattr(traffic_workload, attr), attr))
    BUILDS[name]()
    return seen["synthesize_requests"], seen["calibrate_tm"]


@pytest.mark.parametrize("name", BUILDS)
def test_scenario_inputs_match_the_recorded_digests(name, monkeypatch):
    requests, series = build_inputs(name, monkeypatch)
    assert (len(requests), request_digest(requests),
            tm_digest(series)) == DIGESTS[name]
