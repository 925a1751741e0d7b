"""repro — a full reproduction of the Index-Permutation (IP) graph model.

Implements Yeh & Parhami, *The Index-Permutation Graph Model for
Hierarchical Interconnection Networks* (ICPP 1999): the IP/super-IP graph
engine, the paper's network families (HSN, cyclic-shift networks, super-flip
networks and their symmetric variants) plus all baseline topologies, the
Section-4 routing theory, the Section-5 hierarchical cost metrics, and a
packet-level simulator for the latency claims.

Quick start::

    >>> from repro import networks, metrics
    >>> g = networks.hsn_hypercube(l=2, n=3)         # HCN(3,3) w/o diameter links
    >>> metrics.diameter(g)
    7
"""

from . import (
    algorithms,
    cache,
    core,
    embed,
    fault,
    io,
    layout,
    metrics,
    networks,
    parallel,
    routing,
    serve,
    sim,
)
from .core import (
    BallArrangementGame,
    Generator,
    IPGraph,
    Network,
    NucleusSpec,
    Permutation,
    SuperGeneratorSet,
    build_ip_graph,
    build_super_ip_graph,
)

__version__ = "1.0.0"

__all__ = [
    "algorithms",
    "BallArrangementGame",
    "cache",
    "build_ip_graph",
    "build_super_ip_graph",
    "core",
    "Generator",
    "IPGraph",
    "embed",
    "fault",
    "io",
    "layout",
    "metrics",
    "Network",
    "networks",
    "parallel",
    "routing",
    "serve",
    "sim",
    "NucleusSpec",
    "Permutation",
    "SuperGeneratorSet",
    "__version__",
]
