"""Traffic substrate: diurnal profiles, TM series, request synthesis."""

from .classes import (CLASS_MIXES, ClassMix, DEFAULT_CLASS, TrafficClass,
                      resolve_classes)
from .diurnal import DiurnalProfile, region_profiles
from .matrices import (FlashCrowd, TrafficMatrixSeries, gravity_weights,
                       synthesize_tm_series)
from .requests import RequestParameters, synthesize_requests
from .routing import (route_series_on_shortest_paths,
                      utilization_percentile_ratios)
from .trace import (load_workload, save_workload, topology_from_dict,
                    topology_to_dict, workload_from_dict, workload_to_dict)
from .values import (VALUE_FLOOR, NormalValues, ParetoValues,
                     ValueDistribution, normal_with_ratio, pareto_with_ratio)
from .workload import Workload, build_workload, calibrate_tm

__all__ = [
    "CLASS_MIXES", "ClassMix", "DEFAULT_CLASS", "TrafficClass",
    "resolve_classes", "DiurnalProfile", "FlashCrowd", "NormalValues",
    "ParetoValues", "RequestParameters", "TrafficMatrixSeries", "VALUE_FLOOR",
    "ValueDistribution", "Workload", "build_workload", "calibrate_tm",
    "gravity_weights", "load_workload", "normal_with_ratio",
    "pareto_with_ratio", "region_profiles", "save_workload",
    "topology_from_dict", "topology_to_dict", "workload_from_dict",
    "workload_to_dict", "route_series_on_shortest_paths",
    "synthesize_requests", "synthesize_tm_series",
    "utilization_percentile_ratios",
]
