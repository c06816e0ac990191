"""Geographic regions.

The RegionOracle baseline (paper §6.1) divides the network into a few
regions (US, Europe, Asia, ...) and charges one price for intra-region
transfers and a higher one for inter-region transfers.  These helpers keep
the region vocabulary in one place.
"""

from __future__ import annotations

from .topology import Topology

#: Region names used by the synthetic generators, mirroring the geographies
#: in the paper's Table 2 price sheet.
DEFAULT_REGION_NAMES = ("us-east", "us-west", "europe", "asia",
                        "south-america", "oceania")


def region_name(i: int) -> str:
    """Stable name for region ``i`` (wraps past the default list)."""
    if i < len(DEFAULT_REGION_NAMES):
        return DEFAULT_REGION_NAMES[i]
    return f"region-{i}"


def is_inter_region(topology: Topology, src: str, dst: str) -> bool:
    """Whether a transfer between two nodes crosses a region boundary.

    Unlabelled nodes are treated as their own singleton region, so any
    transfer touching one counts as inter-region (the conservative choice:
    it gets the higher price).
    """
    region_src = topology.region_of(src)
    region_dst = topology.region_of(dst)
    if region_src is None or region_dst is None:
        return True
    return region_src != region_dst
