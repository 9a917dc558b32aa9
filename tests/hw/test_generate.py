"""Seeded city-topology generation: determinism, validation, structure."""

from functools import partial

import pytest

from repro.core.errors import TopologyError
from repro.datapaths import (
    DpdkDatapath,
    KernelUdpDatapath,
    RdmaDatapath,
    XdpDatapath,
)
from repro.hw import Testbed
from repro.hw.generate import (
    CITY_PRESETS,
    CityNetwork,
    city_plan,
    class_queue_ceilings,
    normalize_city_spec,
    resolve_topology,
    topology_digest,
)
from repro.hw.profiles import DATAPATH_STAGES
from repro.netstack import Packet
from repro.simnet import Simulator


def tiny(**overrides):
    spec = {"hosts": 16, "regions": 4, "messages": 2, "seed": 7}
    spec.update(overrides)
    return spec


class TestResolve:
    def test_preset_resolves(self):
        spec = resolve_topology("smoke64")
        assert spec["hosts"] == 64
        assert spec["regions"] == 4

    def test_unknown_preset_raises(self):
        with pytest.raises(TopologyError):
            resolve_topology("atlantis")

    def test_preset_equals_its_own_spec(self):
        assert (topology_digest("smoke64")
                == topology_digest(dict(CITY_PRESETS["smoke64"])))

    def test_digest_tracks_content(self):
        assert topology_digest(tiny()) != topology_digest(tiny(seed=8))
        assert topology_digest(tiny()) != topology_digest(tiny(hosts=32))

    def test_normalize_is_idempotent(self):
        spec = normalize_city_spec(tiny())
        assert normalize_city_spec(spec) == spec


class TestValidation:
    @pytest.mark.parametrize("bad", [
        {"hosts": 2},                     # too few hosts
        {"hosts": "many"},                # wrong type
        {"regions": 1},                   # single region is not a city
        {"regions": 9},                   # > hosts // 2
        {"hosts": 2048, "regions": 2},    # > 254 hosts per region (10.R.0.K)
        {"classes": 0},
        {"classes": 9},
        {"datapath": "carrier-pigeon"},
        {"profile": "mainframe"},
        {"interval_ns": 0.0},
        {"trunk_propagation_ns": -1.0},
        {"moat": True},                   # unknown key
        {"tor_forward_ns": float("nan")},  # a NaN instant orders nothing
        {"trunk_queue_ns": float("inf")},  # no end-of-time bound
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(TopologyError):
            normalize_city_spec(tiny(**bad))

    @pytest.mark.parametrize("key", ["tor_forward_ns", "core_forward_ns",
                                     "service_ns"])
    def test_negative_fabric_delay_raises_naming_the_key(self, key):
        with pytest.raises(TopologyError, match=key):
            normalize_city_spec(tiny(**{key: -100.0}))
        assert normalize_city_spec(tiny(**{key: 0}))[key] == 0.0

    def test_ceilings_monotone_in_class(self):
        ceilings = class_queue_ceilings(resolve_topology(tiny(classes=3)))
        assert sorted(ceilings) == [0, 1, 2]
        # class 0 (EF) gets the shallowest queue
        assert ceilings[0] < ceilings[1] < ceilings[2]


class TestPlan:
    def test_same_inputs_same_plan(self):
        spec = resolve_topology(tiny())
        assert city_plan(spec) == city_plan(spec)

    def test_seed_moves_the_plan(self):
        a = city_plan(resolve_topology(tiny()))
        b = city_plan(resolve_topology(tiny(seed=8)))
        assert [f["phase_ns"] for f in a["flows"]] \
            != [f["phase_ns"] for f in b["flows"]]

    def test_flow_classes_round_robin(self):
        spec = resolve_topology(tiny(classes=3))
        for flow in city_plan(spec)["flows"]:
            assert flow["cls"] == flow["id"] % 3

    def test_phases_inside_one_interval(self):
        spec = resolve_topology(tiny())
        for flow in city_plan(spec)["flows"]:
            assert 0.0 <= flow["phase_ns"] < spec["interval_ns"]

    def test_rpc_flows_cross_regions_to_services(self):
        spec = resolve_topology(tiny(rpc_every=2))
        plan = city_plan(spec)
        hosts = plan["hosts"]
        services = {region["service"] for region in plan["regions"]}
        rpcs = [flow for flow in plan["flows"] if flow["kind"] == "rpc"]
        assert rpcs
        for flow in rpcs:
            assert flow["dst"] in services
            assert hosts[flow["src"]]["region"] != hosts[flow["dst"]]["region"]

    def test_services_land_on_accelerated_hosts(self):
        plan = city_plan(resolve_topology(tiny()))
        hosts = plan["hosts"]
        for region in plan["regions"]:
            assert hosts[region["service"]]["accelerated"]

    def test_every_host_has_a_region_local_address(self):
        plan = city_plan(resolve_topology(tiny()))
        for host in plan["hosts"]:
            assert host["ip"].startswith("10.%d.0." % host["region"])


class TestWorkload:
    def test_peak_heap_does_not_grow_with_the_message_count(self):
        """Each flow keeps one send pending, so the event heap is bounded
        by the frames in flight, not by flows x messages."""
        peaks = []
        for messages in (16, 64):
            spec = resolve_topology(dict(CITY_PRESETS["smoke64"],
                                         messages=messages))
            sim = Simulator(seed=spec["seed"])
            net = CityNetwork(sim, spec)
            net.schedule_workload()
            sim.run()
            flows = len(city_plan(spec)["flows"])
            assert len(net.deliveries) == flows * messages
            peaks.append(sim.stats()["peak_heap"])
        assert peaks[0] == peaks[1], peaks


def plugin_charges(datapath, profile, size):
    """The summed stage costs plugin ``datapath`` charges, jitter off, to
    send one packet of ``size`` bytes and to receive it: ``(tx, rx)``."""
    bed = Testbed(profile.replace(cpu_jitter=0.0, rdma_nic=True), seed=0)
    sim = bed.sim
    a, b = bed.hosts
    charged = {a: [], b: []}
    for host in (a, b):
        def record(key, size, burst=1, jitter=True, host=host,
                   charge=host.stage_cost):
            cost = charge(key, size, burst=burst, jitter=jitter)
            charged[host].append(cost)
            return cost
        host.stage_cost = record
    port = 7400
    if datapath == "udp":
        send = KernelUdpDatapath.get(a).socket(port).send
        recv = KernelUdpDatapath.get(b).socket(port).recv
    elif datapath == "rdma":
        send = RdmaDatapath(a).create_qp(port).post_send
        recv = RdmaDatapath(b).create_qp(port).poll_recv
    else:
        plugin = {"dpdk": DpdkDatapath, "xdp": XdpDatapath}[datapath]
        send = plugin(a).send
        receiver = plugin(b)
        recv = partial(receiver.recv_burst, receiver.open_port(port))
    received = []

    def tx():
        yield from send(Packet(a.ip, b.ip, port, port, payload_len=size))

    def rx():
        received.append((yield from recv()))

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert received and not sim.failures
    return sum(charged[a]), sum(charged[b])


class TestDatapathCosts:
    @pytest.mark.parametrize("datapath", sorted(DATAPATH_STAGES))
    def test_city_message_costs_what_the_plugin_charges(self, datapath):
        """A city message costs, on each side, what the datapath plugin
        charges one packet of the same size on the same profile."""
        net = CityNetwork(Simulator(), tiny(datapath=datapath))
        charged = plugin_charges(datapath, net.profile, net.spec["size"])
        assert (net.tx_cost_ns, net.rx_cost_ns) == charged
