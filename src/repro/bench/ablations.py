"""Ablation studies on the design choices DESIGN.md calls out.

A1 — packet scheduling: FIFO vs the 802.1Qbv time-aware scheduler for a
     time-sensitive flow sharing a datapath with bulk traffic (paper §5.2,
     §8 "Packet scheduling").
A2 — polling-thread mapping: one thread per datapath vs one shared thread
     (paper §5.3, §8 "Thread scheduling strategies").
A3 — opportunistic batching on/off (paper §6.2's explanation of Fig. 8a).
A4 — the QoS mapping matrix: policy x host capability -> chosen datapath,
     with the measured RTT of each mapping (paper §5.2).
"""

from repro.bench.harness import run_multisink, run_throughput
from repro.bench.tables import format_table
from repro.core import QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.runtime import InsaneDeployment, build_stack
from repro.hw import Testbed
from repro.hw.profiles import LOCAL_TESTBED
from repro.simnet import Tally, Timeout


def run_ablation_tsn(messages=200, period_ns=20_000, seed=0, quiet=False):
    """A1: one-way latency of a time-sensitive flow whose *sender* is
    congested by a bulk flow to a third host, FIFO vs TSN.

    The 802.1Qbv time-aware shaper acts on the transmit scheduler, so the
    contention point must be the sender: host0 sends the time-sensitive
    flow to host1 while flooding bulk traffic to host2 through the same
    datapath binding.  Returns {mode: Tally}.
    """
    import struct

    results = {}
    for mode in ("fifo", "tsn"):
        testbed, deployment = build_stack(seed=seed, hosts=3)
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "ts-tx")
        bulk_tx = Session(deployment.runtime(0), "bulk-tx")  # separate app
        rx = Session(deployment.runtime(1), "ts-rx")
        bulk_rx = Session(deployment.runtime(2), "bulk-rx")
        time_sensitive = mode == "tsn"
        ts_policy = QosPolicy.fast(time_sensitive=time_sensitive)
        bulk_policy = QosPolicy.fast()
        ts_tx_stream = tx.create_stream(ts_policy, name="ts")
        ts_rx_stream = rx.create_stream(ts_policy, name="ts")
        bulk_tx_stream = bulk_tx.create_stream(bulk_policy, name="bulk")
        bulk_rx_stream = bulk_rx.create_stream(bulk_policy, name="bulk")
        ts_source = tx.create_source(ts_tx_stream, channel=1)
        ts_sink = rx.create_sink(ts_rx_stream, channel=1)
        bulk_source = bulk_tx.create_source(bulk_tx_stream, channel=2)
        bulk_rx.create_sink(bulk_rx_stream, channel=2, callback=lambda d: None)
        latencies = Tally("%s_latency" % mode)

        def bulk_sender():
            while True:
                buffer = yield from bulk_tx.get_buffer_wait(bulk_source, 4096)
                yield from bulk_tx.emit_data(bulk_source, buffer, length=4096)

        def ts_sender():
            for _ in range(messages):
                buffer = yield from tx.get_buffer_wait(ts_source, 64)
                # carry the send timestamp in the payload itself
                buffer.write(struct.pack("!Q", int(sim.now)))
                yield from tx.emit_data(ts_source, buffer, length=64)
                yield Timeout(period_ns)

        def ts_receiver():
            # under FIFO, bulk load may drop time-sensitive packets at the
            # NIC ring: consume whatever arrives within the time bound
            while True:
                delivery = yield from rx.consume_data(ts_sink)
                (sent_ns,) = struct.unpack("!Q", bytes(delivery.buffer.view[:8]))
                latencies.record(sim.now - sent_ns)
                rx.release_buffer(ts_sink, delivery)

        sim.process(bulk_sender(), name="bulk")
        sim.process(ts_receiver(), name="ts-rx")
        sim.process(ts_sender(), name="ts-tx")
        sim.run(until=int(messages * period_ns * 3) + 5_000_000)
        latencies.delivered_fraction = latencies.count / float(messages)
        results[mode] = latencies
    if not quiet:
        rows = [
            [
                mode,
                t.mean / 1000.0,
                t.percentile(99) / 1000.0,
                t.maximum / 1000.0,
                "%d%%" % round(100 * t.delivered_fraction),
            ]
            for mode, t in results.items()
        ]
        print(format_table(
            ["scheduler", "mean (us)", "p99 (us)", "max (us)", "delivered"],
            rows,
            title="A1: time-sensitive flow latency under bulk contention",
        ))
    return results


def run_ablation_threads(rounds=500, seed=0, quiet=False):
    """A2: fast-path RTT while a slow-path flood runs, per-datapath threads
    vs one shared polling thread.  Returns {mapping: Tally}."""
    results = {}
    for mapping in ("per-datapath", "shared"):
        testbed, deployment = build_stack(
            seed=seed, config=RuntimeConfig(thread_mapping=mapping)
        )
        sim = testbed.sim
        client = Session(deployment.runtime(0), "a2-client")
        server = Session(deployment.runtime(1), "a2-server")
        fast = QosPolicy.fast()
        c_stream = client.create_stream(fast, name="a2")
        s_stream = server.create_stream(fast, name="a2")
        c_source = client.create_source(c_stream, channel=1)
        c_sink = client.create_sink(c_stream, channel=2)
        s_sink = server.create_sink(s_stream, channel=1)
        s_source = server.create_source(s_stream, channel=2)
        # background slow-path load through the same runtimes
        slow_tx = Session(deployment.runtime(0), "bg-tx")
        slow_rx = Session(deployment.runtime(1), "bg-rx")
        slow_tx_stream = slow_tx.create_stream(QosPolicy.slow(), name="bg")
        slow_rx_stream = slow_rx.create_stream(QosPolicy.slow(), name="bg")
        bg_source = slow_tx.create_source(slow_tx_stream, channel=9)
        slow_rx.create_sink(slow_rx_stream, channel=9, callback=lambda d: None)
        rtts = Tally(mapping)
        done = [False]

        def background():
            while not done[0]:
                buffer = yield from slow_tx.get_buffer_wait(bg_source, 1024)
                yield from slow_tx.emit_data(bg_source, buffer, length=1024)

        def client_proc():
            for _ in range(rounds):
                start = sim.now
                buffer = yield from client.get_buffer_wait(c_source, 64)
                yield from client.emit_data(c_source, buffer, length=64)
                delivery = yield from client.consume_data(c_sink)
                client.release_buffer(c_sink, delivery)
                rtts.record(sim.now - start)
            done[0] = True

        def server_proc():
            while True:
                delivery = yield from server.consume_data(s_sink)
                server.release_buffer(s_sink, delivery)
                buffer = yield from server.get_buffer_wait(s_source, 64)
                yield from server.emit_data(s_source, buffer, length=64)

        sim.process(background(), name="bg")
        sim.process(server_proc(), name="a2.server")
        sim.process(client_proc(), name="a2.client")
        sim.run()
        results[mapping] = rtts
    if not quiet:
        rows = [
            [mapping, t.mean / 1000.0, t.percentile(99) / 1000.0]
            for mapping, t in results.items()
        ]
        print(format_table(
            ["thread mapping", "fast RTT mean (us)", "p99 (us)"],
            rows,
            title="A2: polling-thread mapping under mixed load",
        ))
    return results


def run_ablation_batching(messages=20000, size=1024, seed=0, quiet=False):
    """A3: INSANE fast throughput with and without opportunistic batching
    (disabled means ``tx_burst=1``: every scheduler pass sends one
    packet).  Returns {mode: gbps}."""
    results = {}
    for mode, config in (
        ("batching", None),
        ("no-batching", RuntimeConfig(tx_burst=1)),
    ):
        results[mode] = run_throughput(
            "insane_fast", messages=messages, size=size, seed=seed, config=config
        )
    if not quiet:
        rows = [[mode, gbps] for mode, gbps in results.items()]
        print(format_table(
            ["mode", "goodput (Gbps)"],
            rows,
            title="A3: opportunistic batching, 1KB payload",
        ))
    return results


def run_ablation_rx_threads(messages=8000, size=1024, seed=0, quiet=False):
    """A5: parallelizing the datapath over multiple polling threads
    (paper §8, "Thread scheduling strategies").  Returns
    {(threads, sinks): gbps}."""
    results = {}
    for threads in (1, 2):
        for sinks in (1, 8):
            config = RuntimeConfig(threads_per_datapath=threads)
            results[(threads, sinks)] = run_multisink(
                sinks, messages=messages, size=size, seed=seed, config=config
            )
    if not quiet:
        rows = [
            [threads, sinks, results[(threads, sinks)]]
            for threads in (1, 2)
            for sinks in (1, 8)
        ]
        print(format_table(
            ["polling threads", "sinks", "avg Gbps/sink"],
            rows,
            title="A5: polling threads per datapath (1KB payload)",
        ))
    return results


def run_ablation_qos(rounds=300, seed=0, quiet=False):
    """A4: QoS policy x host capability -> datapath mapping + measured RTT.
    Returns a list of row dicts."""
    scenarios = [
        ("all datapaths", LOCAL_TESTBED.replace(rdma_nic=True)),
        ("no RDMA NIC", LOCAL_TESTBED),
        ("kernel only", LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False)),
    ]
    policies = [
        ("no acceleration", QosPolicy.slow()),
        ("accelerated", QosPolicy.fast()),
        ("accelerated, constrained", QosPolicy.fast(constrained=True)),
    ]
    rows = []
    for host_label, profile in scenarios:
        for policy_label, policy in policies:
            testbed = Testbed(profile, seed=seed)
            deployment = InsaneDeployment(testbed)
            tx = Session(deployment.runtime(0), "qos-tx")
            rx = Session(deployment.runtime(1), "qos-rx")
            tx_stream = tx.create_stream(policy, name="qos")
            rx.create_stream(policy, name="qos")
            rtt = _mini_pingpong(testbed, deployment, policy, rounds)
            rows.append(
                {
                    "host": host_label,
                    "policy": policy_label,
                    "datapath": tx_stream.datapath,
                    "fallback": tx_stream.decision.fallback,
                    "rtt_us": rtt / 1000.0,
                }
            )
    if not quiet:
        print(format_table(
            ["host capability", "policy", "mapped datapath", "fallback", "RTT (us)"],
            [[r["host"], r["policy"], r["datapath"], "yes" if r["fallback"] else "no", r["rtt_us"]] for r in rows],
            title="A4: QoS mapping matrix",
        ))
    return rows


def _mini_pingpong(testbed, deployment, policy, rounds):
    """Average RTT of a small INSANE ping-pong on an existing deployment."""
    sim = testbed.sim
    client = Session(deployment.runtime(0), "qq-client")
    server = Session(deployment.runtime(1), "qq-server")
    c_stream = client.create_stream(policy, name="qq")
    s_stream = server.create_stream(policy, name="qq")
    c_source = client.create_source(c_stream, channel=1)
    c_sink = client.create_sink(c_stream, channel=2)
    s_sink = server.create_sink(s_stream, channel=1)
    s_source = server.create_source(s_stream, channel=2)
    rtts = Tally("rtt")

    def client_proc():
        for _ in range(rounds):
            start = sim.now
            buffer = yield from client.get_buffer_wait(c_source, 64)
            yield from client.emit_data(c_source, buffer, length=64)
            delivery = yield from client.consume_data(c_sink)
            client.release_buffer(c_sink, delivery)
            rtts.record(sim.now - start)

    def server_proc():
        while True:
            delivery = yield from server.consume_data(s_sink)
            server.release_buffer(s_sink, delivery)
            buffer = yield from server.get_buffer_wait(s_source, 64)
            yield from server.emit_data(s_source, buffer, length=64)

    sim.process(server_proc(), name="qq.server")
    sim.process(client_proc(), name="qq.client")
    sim.run()
    return rtts.mean
