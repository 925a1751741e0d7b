"""Topological and hierarchical (inter-cluster) metrics.

Implements the measurement side of the paper's evaluation: distances and
diameter, the Section-5 inter-cluster metrics (I-degree, I-diameter, average
I-distance), the DD/ID/II cost figures of merit, Moore-bound optimality
ratios, and symmetry checks.
"""

from .bisection import (
    constant_bisection_latency_score,
    exact_bisection_width,
    fiedler_bisection,
    known_bisection_width,
)
from .bounds import diameter_optimality_ratio, moore_bound_diameter, moore_bound_nodes
from .clustering import (
    InterclusterSummary,
    ModuleAssignment,
    average_intercluster_distance,
    contiguous_modules,
    intercluster_degree,
    intercluster_diameter,
    intercluster_distances,
    intercluster_summary,
    modules_by_key,
    nucleus_modules,
    offmodule_links_per_node,
    split_modules,
    subcube_modules,
)
from .costs import NetworkCosts, dd_cost, id_cost, ii_cost, measure_costs
from .fault import (
    FaultReport,
    edge_connectivity,
    is_maximally_fault_tolerant,
    node_connectivity,
    random_fault_experiment,
)
from .distances import (
    DistanceSummary,
    approx_average_distance,
    average_distance,
    bfs_distances,
    diameter,
    distance_histogram,
    distance_summary,
    eccentricities,
    is_connected,
    single_source_distances,
)
from .partitioning import spectral_modules
from .spectral import (
    algebraic_connectivity,
    cheeger_bounds,
    laplacian_spectrum,
    spectral_gap,
)
from .symmetry import (
    automorphism_group,
    automorphism_orbits,
    is_vertex_transitive,
    looks_vertex_transitive,
)

__all__ = [
    "algebraic_connectivity",
    "approx_average_distance",
    "automorphism_group",
    "automorphism_orbits",
    "average_distance",
    "average_intercluster_distance",
    "bfs_distances",
    "cheeger_bounds",
    "constant_bisection_latency_score",
    "contiguous_modules",
    "dd_cost",
    "diameter",
    "diameter_optimality_ratio",
    "distance_histogram",
    "distance_summary",
    "DistanceSummary",
    "eccentricities",
    "exact_bisection_width",
    "fiedler_bisection",
    "known_bisection_width",
    "edge_connectivity",
    "FaultReport",
    "is_maximally_fault_tolerant",
    "node_connectivity",
    "random_fault_experiment",
    "id_cost",
    "ii_cost",
    "intercluster_degree",
    "intercluster_diameter",
    "intercluster_distances",
    "intercluster_summary",
    "InterclusterSummary",
    "is_connected",
    "is_vertex_transitive",
    "laplacian_spectrum",
    "looks_vertex_transitive",
    "measure_costs",
    "ModuleAssignment",
    "modules_by_key",
    "moore_bound_diameter",
    "moore_bound_nodes",
    "NetworkCosts",
    "nucleus_modules",
    "offmodule_links_per_node",
    "single_source_distances",
    "spectral_gap",
    "spectral_modules",
    "split_modules",
    "subcube_modules",
]
