"""WAN topology substrate: links, regions, routes, synthetic generators."""

from .generators import (figure2_network, parallel_paths_network,
                         production_wan, wan_topology)
from .paths import (Path, PathCache, ROUTING_POLICIES, k_shortest_paths)
from .regions import DEFAULT_REGION_NAMES, is_inter_region, region_name
from .topology import Link, Topology

__all__ = [
    "DEFAULT_REGION_NAMES", "Link", "Path", "PathCache", "ROUTING_POLICIES",
    "Topology", "figure2_network", "is_inter_region", "k_shortest_paths",
    "parallel_paths_network", "production_wan", "region_name", "wan_topology",
]
