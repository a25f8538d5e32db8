"""NetworkConfig refuses, naming the field, values no run can use."""

import math

import pytest

from repro.api import build_network
from repro.network.config import NetworkConfig


@pytest.mark.parametrize(("field", "value"), [
    ("routing_delay_s", -1e-6),
    ("routing_delay_s", math.nan),
    ("link_delay_s", -1e-6),
    ("link_delay_s", math.inf),
    ("router_threshold_s", -1.0),
    ("router_threshold_s", math.nan),
    ("link_bandwidth_bps", 0.0),
    ("link_bandwidth_bps", math.inf),
    ("injection_bandwidth_bps", -1),
    ("injection_bandwidth_bps", math.nan),
    ("packet_size_bytes", 0),
    ("ack_size_bytes", 0),
    ("buffer_size_bytes", 0),
    ("cut_through_header_bytes", 0),
    ("max_contending_flows", 0),
    ("virtual_channels", 0),
    ("cfd_min_share", 2.0),
    ("cfd_min_share", -0.1),
    ("cfd_min_share", math.nan),
    ("flow_control", "psychic"),
])
def test_unusable_values_are_refused_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"'{field}'"):
        NetworkConfig(**{field: value})


def test_zero_delays_and_edge_shares_are_accepted():
    config = NetworkConfig(routing_delay_s=0.0, link_delay_s=0.0, router_threshold_s=0.0,
                           cfd_min_share=1.0)
    net = build_network("mesh:4", "drb", config)
    net.fabric.send(0, 15, 3000)
    net.sim.run()
    assert net.fabric.data_packets_delivered == 3
    assert NetworkConfig(cfd_min_share=0.0).cfd_min_share == 0.0
