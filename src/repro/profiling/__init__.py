"""Profilers (§4.2.2): edge, value-prediction, points-to, lifetime,
pointer-residue, and the loop-sensitive memory dependence profiler."""

from .bundle import PROFILERS, ProfileBundle, bundle_facts, run_profilers
from .edge import EdgeProfile, EdgeProfiler
from .lifetime import LifetimeProfile, LifetimeProfiler
from .memdep import DepKey, MemDepProfile, MemDepProfiler
from .points_to import PointsToProfile, PointsToProfiler, SiteAccessCounts
from .residue import RESIDUE_MOD, ResidueProfile, ResidueProfiler
from .sites import (AllocationSite, site_of, site_order_key,
                    static_site_of_value)
from .value import ValueProfile, ValueProfiler

__all__ = [
    "PROFILERS", "ProfileBundle", "bundle_facts", "run_profilers",
    "EdgeProfile", "EdgeProfiler",
    "LifetimeProfile", "LifetimeProfiler",
    "DepKey", "MemDepProfile", "MemDepProfiler",
    "PointsToProfile", "PointsToProfiler", "SiteAccessCounts",
    "RESIDUE_MOD", "ResidueProfile", "ResidueProfiler",
    "AllocationSite", "site_of", "site_order_key",
    "static_site_of_value",
    "ValueProfile", "ValueProfiler",
]
