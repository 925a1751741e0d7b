"""Routing: the Theorem-4.1 sorting router, family routers, BFS tables."""

from .disjoint import edge_disjoint_paths, node_disjoint_paths, path_diversity
from .families import (
    debruijn_route,
    ecube_route,
    star_route,
    star_route_length_bound,
)
from .superip import ExplicitSuperIPRouter, SuperIPRouter, verify_route
from .table import NextHopTable, RoutingBackend, shared_table, shortest_path

__all__ = [
    "debruijn_route",
    "edge_disjoint_paths",
    "ExplicitSuperIPRouter",
    "ecube_route",
    "NextHopTable",
    "node_disjoint_paths",
    "path_diversity",
    "RoutingBackend",
    "shared_table",
    "shortest_path",
    "star_route",
    "star_route_length_bound",
    "SuperIPRouter",
    "verify_route",
]
