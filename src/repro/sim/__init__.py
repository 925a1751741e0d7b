"""Packet-level simulation substrate for the Section-5 latency claims."""

from repro.obs.histogram import LatencyHistogram

from .policies import (
    ChannelIndex,
    arc_endpoints,
    on_off_module_delay,
    uniform_delay,
    unit_node_capacity,
    unit_offmodule_capacity,
)
from .simulator import PacketSimulator
from .wormhole import Message, WormholeSimulator
from .stats import SimStats, StreamingStats
from .sweeps import offered_load_sweep, saturation_rate
from .workloads import (
    bit_reversal_pairs,
    complement_pairs,
    hotspot,
    permutation_traffic,
    random_permutation_traffic,
    transpose_pairs,
    uniform_random,
    uniform_random_array,
)

__all__ = [
    "arc_endpoints",
    "bit_reversal_pairs",
    "ChannelIndex",
    "complement_pairs",
    "hotspot",
    "LatencyHistogram",
    "Message",
    "offered_load_sweep",
    "on_off_module_delay",
    "PacketSimulator",
    "permutation_traffic",
    "random_permutation_traffic",
    "saturation_rate",
    "SimStats",
    "StreamingStats",
    "transpose_pairs",
    "uniform_delay",
    "uniform_random",
    "uniform_random_array",
    "WormholeSimulator",
    "unit_node_capacity",
    "unit_offmodule_capacity",
]
