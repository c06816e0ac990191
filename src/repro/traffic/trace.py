"""Workload and trace persistence.

Experiments become shareable artifacts: topologies and synthesized
workloads round-trip through JSON, so a run can be
reproduced bit-for-bit on another machine (or re-scored under a different
scheme) without re-synthesis.  The format is versioned and validated on
load.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.request import ByteRequest
from ..network import Topology
from .classes import TrafficClass
from .workload import Workload

#: Format version written into every artifact.
FORMAT_VERSION = 1


def _check_version(payload: dict, kind: str) -> None:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format version {version!r} "
                         f"(expected {FORMAT_VERSION})")
    if payload.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} artifact, "
                         f"got {payload.get('kind')!r}")


# -- topology --------------------------------------------------------------

def topology_to_dict(topology: Topology) -> dict:
    """JSON-ready description of a topology."""
    return {
        "version": FORMAT_VERSION,
        "kind": "topology",
        "name": topology.name,
        "nodes": [{"name": node, "region": topology.region_of(node)}
                  for node in topology.nodes],
        "links": [{"src": link.src, "dst": link.dst,
                   "capacity": link.capacity, "metered": link.metered,
                   "cost_per_unit": link.cost_per_unit}
                  for link in topology.links],
    }


def topology_from_dict(payload: dict) -> Topology:
    """Inverse of :func:`topology_to_dict`."""
    _check_version(payload, "topology")
    topology = Topology(name=payload.get("name", "wan"))
    for node in payload["nodes"]:
        topology.add_node(node["name"], region=node.get("region"))
    for link in payload["links"]:
        topology.add_link(link["src"], link["dst"], link["capacity"],
                          metered=link.get("metered", False),
                          cost_per_unit=link.get("cost_per_unit", 0.0))
    return topology


# -- workload ---------------------------------------------------------------

def workload_to_dict(workload: Workload) -> dict:
    """JSON-ready description of a workload (topology included)."""
    return {
        "version": FORMAT_VERSION,
        "kind": "workload",
        "topology": topology_to_dict(workload.topology),
        "n_steps": workload.n_steps,
        "steps_per_day": workload.steps_per_day,
        "load_factor": workload.load_factor,
        "description": workload.description,
        "classes": [{"name": c.name,
                     "value_multiplier": c.value_multiplier,
                     "deadline_stretch": c.deadline_stretch,
                     "price_multiplier": c.price_multiplier,
                     "preemptible": c.preemptible,
                     "weight": c.weight, "share": c.share}
                    for c in workload.classes],
        "requests": [{"rid": r.rid, "src": r.src, "dst": r.dst,
                      "demand": r.demand, "arrival": r.arrival,
                      "start": r.start, "deadline": r.deadline,
                      "value": r.value, "scavenger": r.scavenger,
                      "cls": r.cls}
                     for r in workload.requests],
    }


def workload_from_dict(payload: dict) -> Workload:
    """Inverse of :func:`workload_to_dict`."""
    _check_version(payload, "workload")
    topology = topology_from_dict(payload["topology"])
    requests = [ByteRequest(rid=r["rid"], src=r["src"], dst=r["dst"],
                            demand=r["demand"], arrival=r["arrival"],
                            start=r["start"], deadline=r["deadline"],
                            value=r["value"],
                            scavenger=r.get("scavenger", False),
                            cls=r.get("cls", "default"))
                for r in payload["requests"]]
    classes = tuple(TrafficClass(**entry)
                    for entry in payload.get("classes", ()))
    return Workload(topology=topology, requests=requests,
                    n_steps=payload["n_steps"],
                    steps_per_day=payload["steps_per_day"],
                    load_factor=payload.get("load_factor", 1.0),
                    description=payload.get("description", "workload"),
                    classes=classes)


def save_workload(workload: Workload, path: str | Path) -> None:
    """Write a workload artifact as JSON."""
    Path(path).write_text(json.dumps(workload_to_dict(workload)))


def load_workload(path: str | Path) -> Workload:
    """Read a workload artifact written by :func:`save_workload`."""
    return workload_from_dict(json.loads(Path(path).read_text()))

