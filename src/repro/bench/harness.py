"""Drivers for the latency and throughput benchmarks (paper §6.2).

Seven systems, exactly as in Fig. 7:

===================  =========================================================
``udp_blocking``     UDP sockets, blocking receive
``udp_nonblocking``  UDP sockets, busy-polled non-blocking receive
``catnap``           Demikernel over kernel sockets
``insane_slow``      INSANE with the no-acceleration QoS (kernel UDP)
``catnip``           Demikernel over DPDK
``insane_fast``      INSANE with the acceleration QoS (DPDK)
``raw_dpdk``         native DPDK application
===================  =========================================================
"""

from repro.baselines.demikernel import DemikernelApp
from repro.baselines.raw_dpdk import DpdkBenchApp
from repro.baselines.raw_udp import UdpBenchApp
from repro.core import QosPolicy, Session
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.simnet import RateMeter, Tally

#: Paper Fig. 7 ordering.
SYSTEMS = (
    "udp_blocking",
    "udp_nonblocking",
    "catnap",
    "insane_slow",
    "catnip",
    "insane_fast",
    "raw_dpdk",
)


def make_testbed(profile="local", seed=0, hosts=2):
    """Build a testbed by profile name ('local' or 'cloud')."""
    return Testbed(PROFILES[profile], hosts=hosts, seed=seed)


def make_system(name, testbed, config=None):
    """Instantiate the benchmark application for one system."""
    if name == "udp_blocking":
        return UdpBenchApp(testbed, blocking=True)
    if name == "udp_nonblocking":
        return UdpBenchApp(testbed, blocking=False)
    if name == "raw_dpdk":
        return DpdkBenchApp(testbed)
    if name == "catnap":
        return DemikernelApp(testbed, "catnap")
    if name == "catnip":
        return DemikernelApp(testbed, "catnip")
    if name == "insane_slow":
        return InsaneBenchApp(testbed, "slow", config=config)
    if name == "insane_fast":
        return InsaneBenchApp(testbed, "fast", config=config)
    raise ValueError("unknown system %r (choose from %s)" % (name, SYSTEMS))


class InsaneBenchApp:
    """The INSANE version of the benchmarking application.

    This is deliberately the same application shape as the raw versions, but
    written against the INSANE public API — the program Table 3 counts at
    189 LoC in C (see ``examples/loc_apps/app_insane.py`` for the runnable
    equivalent counted by the Table 3 bench).
    """

    def __init__(self, testbed, mode, config=None):
        if mode not in ("fast", "slow"):
            raise ValueError("mode must be 'fast' or 'slow'")
        self.testbed = testbed
        self.sim = testbed.sim
        self.mode = mode
        self.policy = QosPolicy.fast() if mode == "fast" else QosPolicy.slow()
        self.deployment = InsaneDeployment(testbed, config=config)
        self.client = Session(self.deployment.runtime(0), "bench-client")
        self.server = Session(self.deployment.runtime(1), "bench-server")
        stream_name = "bench-" + mode
        self.client_stream = self.client.create_stream(self.policy, name=stream_name)
        self.server_stream = self.server.create_stream(self.policy, name=stream_name)

    # -- ping-pong ------------------------------------------------------------

    def pingpong(self, rounds, size):
        sim = self.sim
        rtts = Tally("insane_%s_rtt" % self.mode)
        c_source = self.client.create_source(self.client_stream, channel=1)
        c_sink = self.client.create_sink(self.client_stream, channel=2)
        s_sink = self.server.create_sink(self.server_stream, channel=1)
        s_source = self.server.create_source(self.server_stream, channel=2)

        def client():
            for _ in range(rounds):
                start = sim.now
                buffer = yield from self.client.get_buffer_wait(c_source, size)
                yield from self.client.emit_data(c_source, buffer, length=size)
                delivery = yield from self.client.consume_data(c_sink)
                self.client.release_buffer(c_sink, delivery)
                rtts.record(sim.now - start)

        def server():
            while True:
                delivery = yield from self.server.consume_data(s_sink)
                self.server.release_buffer(s_sink, delivery)
                buffer = yield from self.server.get_buffer_wait(s_source, size)
                yield from self.server.emit_data(s_source, buffer, length=size)

        sim.process(server(), name="insane.server")
        sim.process(client(), name="insane.client")
        sim.run()
        return rtts

    # -- streaming throughput -------------------------------------------------

    def stream(self, messages, size, sinks=1):
        """Flood ``messages`` to ``sinks`` concurrent sink applications on
        the receiver host; returns a list of per-sink RateMeters."""
        sim = self.sim
        source = self.client.create_source(self.client_stream, channel=5)
        meters = []
        sink_sessions = []
        stream_name = self.server_stream.name
        for index in range(sinks):
            if index == 0:
                session, stream = self.server, self.server_stream
            else:
                session = Session(self.deployment.runtime(1), "bench-sink%d" % index)
                stream = session.create_stream(self.policy, name=stream_name)
            sink = session.create_sink(stream, channel=5)
            meters.append(RateMeter("sink%d" % index))
            sink_sessions.append((session, sink, meters[-1]))

        def sender():
            for _ in range(messages):
                buffer = yield from self.client.get_buffer_wait(source, size)
                yield from self.client.emit_data(source, buffer, length=size)

        def sink_proc(session, sink, meter):
            touch = session.runtime.host.profile.stage("app_touch").cost(size)
            received = 0
            while received < messages:
                # the per-message app-processing sleep is folded into the
                # receive-side IPC charge (one wake-up, identical instant)
                delivery = yield from session.consume_data(sink, extra_ns=touch)
                session.release_buffer(sink, delivery)
                meter.record(sim.now, size)
                received += 1

        for session, sink, meter in sink_sessions:
            sim.process(sink_proc(session, sink, meter), name="insane.sink")
        sim.process(sender(), name="insane.sender")
        sim.run()
        return meters


def run_pingpong(system, profile="local", rounds=2000, size=64, seed=0, config=None):
    """One Fig. 5/7 data point; returns a Tally of RTTs in ns."""
    testbed = make_testbed(profile, seed=seed)
    app = make_system(system, testbed, config=config)
    return app.pingpong(rounds, size)


def run_throughput(system, profile="local", messages=20000, size=1024, seed=0, config=None):
    """One Fig. 8a data point; returns goodput in Gbps."""
    testbed = make_testbed(profile, seed=seed)
    app = make_system(system, testbed, config=config)
    if system.startswith("insane"):
        meters = app.stream(messages, size)
        return meters[0].gbps()
    return app.stream(messages, size).gbps()


def run_multisink(sinks, profile="local", messages=20000, size=1024, seed=0, config=None):
    """One Fig. 8b data point; returns the average per-sink goodput (Gbps)."""
    testbed = make_testbed(profile, seed=seed)
    app = InsaneBenchApp(testbed, "fast", config=config)
    meters = app.stream(messages, size, sinks=sinks)
    rates = [meter.gbps() for meter in meters]
    return sum(rates) / len(rates)
