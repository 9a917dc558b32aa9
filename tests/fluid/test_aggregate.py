"""A fluid aggregate's lifecycle on the runtime's sink registry."""

from repro.core.channel import ChannelKey
from repro.core.runtime import build_stack
from repro.fluid.aggregate import FluidAggregate


def test_closed_aggregate_frees_its_name_for_the_next():
    """``close()`` unregisters the weighted endpoint and detaches the
    aggregate's app id, so another aggregate of the same name can take
    its place on the same runtime."""
    _testbed, deployment = build_stack("dpdk")
    runtime = deployment.runtime(1)
    key = ChannelKey("agg", 1)
    for subscribers in (100, 50):
        aggregate = FluidAggregate(runtime, key, subscribers, envelope=None,
                                   datapath="dpdk")
        assert runtime.sink_ring_count == subscribers
        assert deployment.control.has_subscribers(key)
        aggregate.close()
        assert runtime.sink_ring_count == 0
        assert not deployment.control.has_subscribers(key)
