"""The one stack builder every pinned harness run goes through."""

import pytest

from repro.core import QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.runtime import build_stack
from repro.hw.profiles import PROFILES


def _stream_datapath(deployment):
    session = Session(deployment.runtime(0), "probe")
    return session.create_stream(QosPolicy.fast(), name="s").datapath


class TestBuildStack:
    def test_unpinned_stack_follows_the_qos_mapping(self):
        testbed, deployment = build_stack()
        assert testbed.profile is PROFILES["local"]
        assert len(testbed.hosts) == 2
        assert deployment.runtime(0).config.mapping_strategy is None
        assert _stream_datapath(deployment) == "dpdk"

    @pytest.mark.parametrize("spelling, pinned", [
        ("kernel_udp", "udp"), ("udp", "udp"), ("xdp", "xdp"),
    ])
    def test_pin_uses_the_alias_table(self, spelling, pinned):
        testbed, deployment = build_stack(spelling)
        assert not testbed.profile.rdma_nic
        assert _stream_datapath(deployment) == pinned

    def test_rdma_pin_switches_on_the_rnic(self):
        assert not PROFILES["cloud"].rdma_nic
        testbed, deployment = build_stack("rdma", profile="cloud", hosts=3)
        assert testbed.profile.rdma_nic
        assert len(testbed.hosts) == 3
        assert _stream_datapath(deployment) == "rdma"

    def test_given_config_is_the_one_the_runtimes_use(self):
        config = RuntimeConfig(trace=True)
        _testbed, deployment = build_stack("dpdk", seed=3, config=config)
        assert all(runtime.config is config
                   for runtime in deployment.runtimes.values())

    def test_unknown_datapath_is_rejected(self):
        with pytest.raises(ValueError, match="unknown datapath 'tcp'"):
            build_stack("tcp")
