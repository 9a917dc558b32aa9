"""Quickstart: send one message through INSANE in ~40 lines.

Builds the paper's local edge testbed (two hosts, 100 Gbps back to back),
starts an INSANE runtime on each, and sends one zero-copy message from a
source on host0 to a sink on host1 over the *fast* (DPDK) datapath.

Every INSANE handle (deployment, session, stream, source, sink) is a
context manager; ``with`` blocks close them in order and reclaim any
leaked buffer slots, so resource hygiene is automatic.

Run with::

    python examples/quickstart.py
"""

from repro.core import QosPolicy, Session
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed


def main():
    # the paper's local testbed: two hosts cabled back to back
    testbed = Testbed.local(seed=42)
    with InsaneDeployment(testbed) as deployment, \
            Session(deployment.runtime(0), "producer") as producer, \
            Session(deployment.runtime(1), "consumer") as consumer:

        # a stream carries the QoS; INSANE picks the datapath (here: DPDK).
        # QosPolicy.fast() is the preset for the validated options
        #   QosPolicy.from_kwargs(acceleration="fast")
        policy = QosPolicy.fast()
        out_stream = producer.create_stream(policy, name="quickstart")
        in_stream = consumer.create_stream(policy, name="quickstart")
        source = producer.create_source(out_stream, channel=7)
        sink = consumer.create_sink(in_stream, channel=7)
        print("stream mapped to datapath: %s" % out_stream.datapath)

        def produce():
            buffer = producer.get_buffer(source, 64)          # borrow a slot
            buffer.write(b"hello from the INSANE middleware!")
            yield from producer.emit_data(source, buffer)     # zero-copy emit

        def consume():
            delivery = yield from consumer.consume_data(sink)  # blocking consume
            message = bytes(delivery.payload())
            print("received %r after %.2f us" % (message, testbed.sim.now / 1000))
            consumer.release_buffer(sink, delivery)            # return the slot

        testbed.sim.process(produce())
        testbed.sim.process(consume())
        testbed.sim.run()
    # the with-block closed both sessions and shut every runtime down


if __name__ == "__main__":
    main()
