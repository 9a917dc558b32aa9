"""Switch wiring checks: reachability at build time, hairpins at runtime."""

import dataclasses

import pytest

from repro.core.errors import TopologyError
from repro.hw import CLOUD_TESTBED, Testbed
from repro.hw.link import Link
from repro.hw.nic import Frame, Nic
from repro.hw.switch import Switch
from repro.netstack import Packet
from repro.simnet import Simulator


def make_switch():
    sim = Simulator()
    switch = Switch(sim, CLOUD_TESTBED)
    return sim, switch


def frame(dst="10.0.0.9"):
    return Frame(Packet("10.0.0.1", dst, 1, 2, payload_len=64))


class TestCheckReachable:
    def test_missing_route_raises_with_the_hosts_named(self):
        _, switch = make_switch()
        switch.bind("10.0.0.1", switch.new_port())
        with pytest.raises(TopologyError) as err:
            switch.check_reachable(["10.0.0.1", "10.0.0.2", "10.0.0.3"])
        assert "10.0.0.2" in str(err.value)
        assert "10.0.0.3" in str(err.value)

    def test_fully_wired_table_passes(self):
        _, switch = make_switch()
        switch.bind("10.0.0.1", switch.new_port())
        switch.check_reachable(["10.0.0.1"])

    def test_testbed_builds_validate_their_own_wiring(self):
        # Testbed construction runs check_reachable; a clean build is the
        # regression guard that the check is actually invoked.
        bed = Testbed.cloud(seed=0)
        assert set(bed.switch.table) == {host.ip for host in bed.hosts}


class TestHairpin:
    def test_hairpin_counts_separately_from_missing_route(self):
        sim, switch = make_switch()
        port = switch.new_port()
        switch.bind("10.0.0.9", port)
        # route resolves back out the ingress port: hairpin, not "dropped"
        port.receive(frame("10.0.0.9"))
        assert switch.hairpin_dropped.value == 1
        assert switch.dropped.value == 0
        assert switch.forwarded.value == 0
        # a genuinely unroutable frame lands in the other counter
        port.receive(frame("10.9.9.9"))
        assert switch.hairpin_dropped.value == 1
        assert switch.dropped.value == 1

    def test_hairpin_schedules_nothing(self):
        sim, switch = make_switch()
        port = switch.new_port()
        switch.bind("10.0.0.9", port)
        port.receive(frame("10.0.0.9"))
        sim.run()
        assert sim.now == 0.0

    def test_hairpin_over_a_link_is_counted_at_its_arrival(self):
        """The fast engine folds a switch's arrival into the link carry,
        but not for a frame the switch drops: that frame keeps its
        arrival event and the hairpin counts when it arrives."""
        sim, switch = make_switch()
        port = switch.new_port()
        nic = Nic(sim, CLOUD_TESTBED, "10.0.0.1")
        link = Link(sim, nic, port, CLOUD_TESTBED.link_propagation_ns)
        switch.bind("10.0.0.9", port)  # routes back out the ingress port
        departure = nic.transmit(
            Packet("10.0.0.1", "10.0.0.9", 1, 2, payload_len=64))
        arrival = departure + link.propagation_ns
        sim.run(until=departure)  # the carry has run, the arrival not
        assert switch.hairpin_dropped.value == 0
        assert sim.peek() == arrival
        executed = sim.stats()["events_executed"]
        sim.run()
        assert switch.hairpin_dropped.value == 1
        assert switch.forwarded.value == 0
        assert sim.now == arrival
        assert sim.stats()["events_executed"] == executed + 1


class TestProfileQueueCeiling:
    def test_switch_reads_the_profile_field(self):
        shallow = dataclasses.replace(CLOUD_TESTBED,
                                      switch_port_queue_ns=123.0)
        sim = Simulator()
        assert Switch(sim, shallow).max_port_queue_ns == 123.0

    def test_shallow_profile_drops_where_deep_does_not(self):
        def converge(profile):
            bed = Testbed(profile, hosts=3, seed=4)
            a, b, c = bed.hosts
            for _ in range(50):
                a.nic.transmit(Packet(a.ip, c.ip, 1, 2, payload_len=8192))
                b.nic.transmit(Packet(b.ip, c.ip, 1, 2, payload_len=8192))
            bed.sim.run()
            return bed.switch.dropped.value

        shallow = dataclasses.replace(CLOUD_TESTBED,
                                      switch_port_queue_ns=1_000.0)
        assert converge(shallow) > 0
        assert converge(CLOUD_TESTBED) == 0
