"""Unit tests for the canonical dragonfly topology."""

import pytest

from repro.parallel.tasks import make_topology
from repro.topology.dragonfly import Dragonfly


def test_sizes_canonical_422():
    d = Dragonfly(4, 2, 2)
    assert d.num_groups == 9  # a*h + 1
    assert d.num_routers == 36
    assert d.num_hosts == 72


def test_constructor_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="a >= 2"):
        Dragonfly(1, 2, 2)
    with pytest.raises(ValueError, match="p >= 1"):
        Dragonfly(4, 0, 2)
    with pytest.raises(ValueError, match="h >= 1"):
        Dragonfly(4, 2, 0)


def test_host_router_roundtrip():
    d = Dragonfly(3, 2, 1)
    for h in range(d.num_hosts):
        assert h in d.router_hosts(d.host_router(h))
    for r in range(d.num_routers):
        for h in d.router_hosts(r):
            assert d.host_router(h) == r


def test_group_membership_partitions():
    d = Dragonfly(4, 2, 2)
    seen_routers: set[int] = set()
    seen_hosts: set[int] = set()
    for g in range(d.num_groups):
        routers = d.group_routers(g)
        assert all(d.group_of(r) == g for r in routers)
        seen_routers.update(routers)
        hosts = d.group_hosts(g)
        assert all(d.host_group(n) == g for n in hosts)
        seen_hosts.update(hosts)
    assert seen_routers == set(range(d.num_routers))
    assert seen_hosts == set(range(d.num_hosts))


def test_router_degree():
    d = Dragonfly(4, 2, 2)
    # (a-1) local all-to-all links + h global links.
    for r in range(d.num_routers):
        assert len(d.router_neighbors(r)) == (d.a - 1) + d.h


def test_adjacency_is_symmetric():
    d = Dragonfly(4, 2, 2)
    for r in range(d.num_routers):
        for nb in d.router_neighbors(r):
            assert r in d.router_neighbors(nb)


def test_every_ordered_group_pair_shares_exactly_one_global_link():
    d = Dragonfly(4, 2, 2)
    for ga in range(d.num_groups):
        for gb in range(d.num_groups):
            if ga == gb:
                continue
            links = [
                (r, peer)
                for r in d.group_routers(ga)
                for peer in d.global_peers(r)
                if d.group_of(peer) == gb
            ]
            assert links == [d.global_gateway(ga, gb)]


def test_global_gateway_rejects_same_group():
    with pytest.raises(ValueError):
        Dragonfly(4, 2, 2).global_gateway(3, 3)


def test_minimal_route_shapes():
    d = Dragonfly(4, 2, 2)
    # Same router.
    assert d.minimal_route(5, 5) == (5,)
    # Same group: direct local link.
    assert d.minimal_route(0, 3) == (0, 3)
    for src in range(d.num_routers):
        for dst in range(d.num_routers):
            path = d.minimal_route(src, dst)
            assert path[0] == src and path[-1] == dst
            assert d.validate_path(path)
            assert len(path) <= 4  # l-g-l bound
            assert len(set(path)) == len(path)


def test_distance_matches_minimal_route():
    d = Dragonfly(3, 1, 1)
    for src in range(d.num_routers):
        for dst in range(d.num_routers):
            assert d.distance(src, dst) == len(d.minimal_route(src, dst)) - 1


def test_valiant_route_crosses_intermediate_group():
    d = Dragonfly(4, 2, 2)
    src, dst = 0, 4  # group 0 -> group 1
    for mid in range(2, d.num_groups):
        path = d.valiant_route(src, dst, mid)
        if path is None:
            continue
        assert d.validate_path(path)
        assert path[0] == src and path[-1] == dst
        assert any(d.group_of(r) == mid for r in path)


def test_valiant_route_refuses_endpoint_groups():
    d = Dragonfly(4, 2, 2)
    assert d.valiant_route(0, 4, 0) is None
    assert d.valiant_route(0, 4, 1) is None


def test_alternative_paths_minimal_first_distinct_and_valid():
    d = Dragonfly(4, 2, 2)
    for src_host, dst_host in [(0, 8), (3, 70), (17, 40)]:
        paths = d.alternative_paths(src_host, dst_host, 4)
        assert len(paths) == 4
        assert paths[0] == d.minimal_route(
            d.host_router(src_host), d.host_router(dst_host)
        )
        assert len({tuple(p) for p in paths}) == len(paths)
        for p in paths:
            assert d.validate_path(p)
            assert p[0] == d.host_router(src_host)
            assert p[-1] == d.host_router(dst_host)


def test_alternative_paths_intra_group_detours():
    d = Dragonfly(4, 2, 2)
    # Hosts 0 and 2 sit on routers 0 and 1 of group 0.
    paths = d.alternative_paths(0, 2, 4)
    assert paths[0] == (0, 1)
    for detour in paths[1:]:
        assert len(detour) == 3
        assert d.group_of(detour[1]) == 0


def test_alternative_paths_decorrelate_across_flows():
    d = Dragonfly(4, 2, 2)
    # Different flows between the same group pair should not all open
    # the same first Valiant detour.
    first_detours = {
        tuple(d.alternative_paths(h, h + 8, 2)[1]) for h in range(8)
    }
    assert len(first_detours) > 1


def test_route_cache_preserves_answers():
    cold = Dragonfly(4, 2, 2)
    warm = Dragonfly(4, 2, 2)
    warm.enable_route_cache()
    for src, dst in [(0, 35), (5, 5), (12, 14), (20, 3)]:
        assert warm.minimal_route(src, dst) == cold.minimal_route(src, dst)
        assert warm.minimal_route(src, dst) == warm.minimal_route(src, dst)


def test_describe_mentions_geometry():
    text = Dragonfly(4, 2, 2).describe()
    assert "dragonfly" in text
    assert "9 groups" in text


def test_make_topology_dragonfly_spec():
    d = make_topology("dragonfly:4,2,2")
    assert isinstance(d, Dragonfly)
    assert (d.a, d.p, d.h) == (4, 2, 2)


@pytest.mark.parametrize(
    "spec",
    [
        "dragonfly:4,2",  # too few args
        "dragonfly:4,2,2,2",  # too many args
        "dragonfly:4.5,2,2",  # non-integer
        "dragonfly:1,2,2",  # degenerate a
    ],
)
def test_make_topology_dragonfly_rejects_bad_specs(spec):
    with pytest.raises(ValueError, match="bad topology spec"):
        make_topology(spec)
