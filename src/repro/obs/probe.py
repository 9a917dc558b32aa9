"""The paced one-way probe behind Fig. 6 and the fluid tier's envelopes.

One publisher on host 0 sends ``messages`` messages to one sink on host
1 and sleeps ``gap_ns`` after each, so every message crosses an idle
pipeline.  With per-packet trace stamps on (``RuntimeConfig(trace=True)``)
each delivery splits into the paper's four components:

* **send** — emit to NIC hand-off (client IPC, scheduler pass, mempool
  exchange, userspace stack TX, driver call);
* **network** — NIC hand-off to NIC receive-ring arrival (DMA,
  serialization, propagation, and — on the cloud testbed — the switch);
* **receive** — ring arrival to runtime dispatch (poll detection, driver
  RX, stack RX, channel dispatch);
* **data processing** — dispatch to the application's consume returning
  (token delivery over the sink ring and the client-library pickup).
"""

from repro.core import QosPolicy, Session
from repro.simnet import Tally, Timeout

COMPONENTS = ("send", "network", "receive", "data_processing")


def run_paced_probe(deployment, messages, size, gap_ns, policy=None):
    """Run the probe on ``deployment``; returns ``(tallies, datapath)``.

    ``tallies`` maps each of :data:`COMPONENTS` and ``"one_way"`` (emit
    to consume) to a :class:`~repro.simnet.Tally` in ns; they stay empty
    unless the deployment stamps packets.  ``datapath`` is the one the
    publisher's stream rode.  ``policy`` defaults to INSANE fast.
    """
    sim = deployment.testbed.sim
    if policy is None:
        policy = QosPolicy.fast()
    tx = Session(deployment.runtime(0), "probe-tx")
    rx = Session(deployment.runtime(1), "probe-rx")
    # the traced breakdown's Chrome trace labels each message by stream
    tx_stream = tx.create_stream(policy, name="traced")
    rx_stream = rx.create_stream(policy, name="traced")
    source = tx.create_source(tx_stream, channel=1)
    sink = rx.create_sink(rx_stream, channel=1)
    tallies = {name: Tally(name) for name in COMPONENTS + ("one_way",)}

    def producer():
        for _ in range(messages):
            buffer = yield from tx.get_buffer_wait(source, size)
            yield from tx.emit_data(source, buffer, length=size)
            yield Timeout(gap_ns)  # paced: isolate per-message pipeline

    def consumer():
        for _ in range(messages):
            delivery = yield from rx.consume_data(sink)
            done = sim.now
            stamps = delivery.meta.get("trace")
            if stamps and "emit_ns" in stamps:
                tallies["send"].record(
                    stamps["nic_handoff"] - stamps["emit_ns"])
                tallies["network"].record(
                    stamps["nic_rx_arrival"] - stamps["nic_handoff"])
                tallies["receive"].record(
                    stamps["runtime_rx"] - stamps["nic_rx_arrival"])
                tallies["data_processing"].record(
                    done - stamps["runtime_rx"])
                tallies["one_way"].record(done - stamps["emit_ns"])
            rx.release_buffer(sink, delivery)

    sim.process(consumer(), name="probe.consumer")
    sim.process(producer(), name="probe.producer")
    sim.run()
    return tallies, tx_stream.datapath
