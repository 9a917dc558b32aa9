"""The INSANE runtime: the per-host userspace networking service.

The runtime centralizes host networking and offers it *as a service* to
local applications (paper §5.3): it owns the memory manager, instantiates
each datapath at most once per host with one transmit scheduler, and drives
everything with a configurable pool of polling threads.  Applications attach
over shared memory (sessions) and exchange slot-id tokens with it.
"""

from functools import partial

from repro.core.config import RuntimeConfig
from repro.core.control import ControlPlane, HealthMonitor
from repro.core.errors import NoDatapathError
from repro.core.ipc import Token, TokenRing
from repro.core.qos import resolve_mapping
from repro.core.memory import MemoryManager
from repro.core.outcomes import EmitOutcome
from repro.core.polling import PollingThread
from repro.core.scheduler import TxScheduler
from repro.datapaths import (
    DpdkDatapath,
    KernelUdpDatapath,
    RdmaDatapath,
    XdpDatapath,
)
from repro.datapaths.registry import available_datapaths
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.netstack import FramePolicy, Packet
from repro.netstack.packet import trace_drop
from repro.simnet import Counter, Store, Timeout

#: Well-known UDP port space used for runtime-to-runtime traffic,
#: one port per datapath technology.
INSANE_PORTS = {"udp": 47000, "dpdk": 47001, "xdp": 47002, "rdma": 47003}

#: Bytes of INSANE message header on the wire (stream hash, channel id,
#: length, emit id) — accounted in the payload length of every datagram.
#: The simulated header is ``packet.insane = (channel_key, length)``.
INSANE_HEADER_BYTES = 24

#: Preference order when a publisher must pick a technology the subscriber
#: listens on (heterogeneous deployments).
TECH_PREFERENCE = ("rdma", "dpdk", "xdp", "udp")

#: outcome codes routing writes into an emit's byte of its source's table
_SENT = EmitOutcome.SENT.as_int()
_DEGRADED = EmitOutcome.DEGRADED.as_int()
_NO_SUBSCRIBERS = EmitOutcome.NO_SUBSCRIBERS.as_int()
_FAILED = EmitOutcome.FAILED.as_int()

#: the byte of a pending emit that routing turns into DEGRADED rather
#: than SENT: its stream was degraded when the emit crossed into the
#: runtime, or a failover migrated it.  The outcome follows the ring the
#: emit was handed to, not the stream's flag at the later instant a
#: polling pass routes it.
PENDING_DEGRADED = 254


def fanout_cost_ns(sinks, rings, per_sink_ns, l2_budget, l2_penalty_ns):
    """Receive-side cost of fanning one message out to ``sinks`` local
    sink rings, ``rings`` being registered on the host; a binding's
    receive pass and the fluid tier's envelope both charge it."""
    if sinks <= 0:
        return 0.0
    cost = (sinks - 1) * per_sink_ns
    excess = rings - l2_budget
    if excess > 0:
        cost += excess * l2_penalty_ns
    return cost


class SinkEndpoint:
    """Runtime-side state for one registered sink.

    ``weight`` is the number of subscribers the endpoint stands for: the
    rx fan-out charge and the L2 ring-pressure model count it as that
    many rings, while dispatch still hands it one delivery token.
    """

    def __init__(self, runtime, key, app_id, ring, datapath="udp", weight=1):
        self.endpoint_id = next(runtime.sim.ids)
        self.runtime = runtime
        self.key = key
        self.app_id = app_id
        self.ring = ring
        self.datapath = datapath
        self.weight = weight
        self.dropped = Counter("sink%d.dropped" % self.endpoint_id)


class SinkGroup(list):
    """The endpoints registered on one channel key, with their summed
    weight: the sink count a receive pass charges fan-out for."""

    __slots__ = ("weight",)

    def __init__(self):
        super().__init__()
        self.weight = 0


class DatapathBinding:
    """Everything the runtime keeps per instantiated datapath plugin."""

    def __init__(self, runtime, name):
        self.runtime = runtime
        self.name = name
        self.host = runtime.host
        self.sim = runtime.sim
        self.profile = runtime.profile
        self.port = INSANE_PORTS[name]
        self.accelerated = name != "udp"
        self.sched_stage = "insane_sched_fast" if self.accelerated else "insane_sched_slow"
        self.dispatch_stage = (
            "insane_dispatch_fast" if self.accelerated else "insane_dispatch_slow"
        )
        self.threads = []
        config = runtime.config
        scalars = self.profile.scalars
        self.tx_burst = config.tx_burst or int(scalars["insane_tx_burst"])
        self.rx_burst = int(scalars["dpdk_rx_burst"])
        self.fanout_ns = scalars["insane_fanout_per_sink_ns"]
        self.l2_budget = scalars["insane_l2_ring_budget"]
        self.l2_penalty_ns = scalars["insane_l2_penalty_ns"]
        #: max ns of frames the NIC may hold before the send loop throttles
        #: (keeps transmit ordering under the scheduler's control)
        self.max_nic_backlog_ns = 5_000.0
        # one SPSC ring per attached application (paper Fig. 4)
        self.tx_rings = {}
        self._ring_list = []   # stable iteration order, no dict copy per pass
        # token/packet costs are pure functions of (stage set, size, burst);
        # memoizing them skips the per-item profile lookups on the hot path
        # without perturbing any value (jitter is applied after the sum)
        self._token_cost_cache = {}
        self._rx_cost_cache = {}
        self.scheduler = TxScheduler()
        self.cross_tech_routes = Counter("%s.%s.cross_tech" % (self.host.name, name))
        self.pool_drops = Counter("%s.%s.pool_drops" % (self.host.name, name))
        self.no_sink_drops = Counter("%s.%s.no_sink_drops" % (self.host.name, name))
        self.unknown_drops = Counter("%s.%s.unknown_drops" % (self.host.name, name))
        self.sched_drops = Counter("%s.%s.sched_drops" % (self.host.name, name))
        #: packets polling passes drained from the receive queue
        self.rx_packets = Counter("%s.%s.rx_packets" % (self.host.name, name))
        # fault state (repro.faults): a failed binding accepts emits (the
        # client-side rings stay up — shared memory does not die with a
        # NIC driver) but its polling passes stop until restore(); a
        # stalled binding pauses until ``stalled_until``.
        self.failed = False
        self.failed_at = None
        self.stalled_until = 0.0
        self._failover_handled = False
        #: threads parked on this binding, counted by their parks: the
        #: binding is armed (see :meth:`arm`) while there is one
        self.parked = 0
        self._wire_datapath()

    def ring_for(self, app_id):
        """The application's private SPSC emit ring on this binding."""
        ring = self.tx_rings.get(app_id)
        if ring is None:
            ring = TokenRing(
                self.sim,
                self.runtime.ipc_ring_slots,
                "%s.%s.txring.%s" % (self.host.name, self.name, app_id),
            )
            if self.parked:
                ring.on_item = self._kick
            self.tx_rings[app_id] = ring
            self._ring_list.append(ring)
        return ring

    def _wire_datapath(self):
        """Build the plugin and claim the port.  The one place that knows
        which technology this binding drives: it keeps the receive queue
        and the send and close callables the rest of the binding uses."""
        host = self.host
        port = self.port
        if self.name == "udp":
            # the kernel stack exists once per host
            datapath = KernelUdpDatapath.get(host)
            socket = datapath.socket(port, blocking=False)
            self.rx_queue = socket.buffer
            self._send_many = socket.send_many
            self._close = socket.close
        elif self.name == "rdma":
            datapath = RdmaDatapath(host)
            qp = datapath.create_qp(port)
            self.rx_queue = qp.recv_queue
            self._send_many = qp.post_send_many
            self._close = partial(datapath.close_qp, port)
        else:
            if self.name == "dpdk":
                # fast mode shares the runtime pool with the PMD: true
                # zero-copy between application slots and the NIC.
                datapath = DpdkDatapath(host, mempool=self.runtime.memory.pool)
            else:
                datapath = XdpDatapath(host)
            self.rx_queue = datapath.open_port(port)
            self._send_many = datapath.send_many
            self._close = partial(datapath.close_port, port)
        self.datapath = datapath
        self.detect_ns = datapath.detect_ns

    def _kick(self):
        for thread in self.threads:
            thread.kick()

    def arm(self, armed):
        """Have an item put on an emit ring or the receive queue kick the
        binding's threads, or call nothing.  A kick wakes only a parked
        thread, so the threads arm their bindings while one is parked."""
        on_item = self._kick if armed else None
        self.rx_queue.on_item = on_item
        for ring in self._ring_list:
            ring.on_item = on_item

    # -- fault injection / failover ------------------------------------------

    def fail(self, reason=""):
        """Mark this binding failed (fault injection or operator action).

        In-flight frames on the dead path are lost (their TX buffers are
        reclaimed); tokens already emitted by clients stay parked in the
        shared-memory rings until the health monitor re-maps the affected
        streams.  Idempotent while failed.
        """
        if self.failed:
            return
        self.failed = True
        self.failed_at = self.sim.now
        self._failover_handled = False
        self.datapath.fail()
        self._drop_scheduled(self.scheduler.take_all())
        self.runtime._on_binding_failed(self, reason)

    def restore(self):
        """Bring a failed binding back; newly created streams may map to
        it again (already re-mapped streams stay on their fallback)."""
        if not self.failed:
            return
        self.failed = False
        self.failed_at = None
        self.datapath.restore()
        self.runtime._on_binding_restored(self)
        self._kick()

    def stall(self, duration_ns):
        """Pause this binding's polling passes for ``duration_ns`` —
        models a wedged PMD/driver thread: queues back up, then drain."""
        until = self.sim.now + duration_ns
        if until > self.stalled_until:
            self.stalled_until = until
            self.sim.schedule(duration_ns, self._kick)

    def _drop_scheduled(self, packets):
        """Drop packets this failed binding will never send: release each
        TX buffer (data already past the API is lost with the datapath),
        count it in ``sched_drops`` and close its traced record."""
        now = self.sim.now
        for packet in packets:
            buffer = packet.tx_buffer
            if buffer is not None:
                packet.tx_buffer = None
                buffer.pool.release(buffer)
            if packet.trace is not None:
                trace_drop(packet.trace, now, "datapath %s failed" % self.name)
        self.sched_drops.value += len(packets)

    # -- cost helpers -----------------------------------------------------------

    def _token_cost(self, burst):
        """Runtime-side cost of accepting one emitted token."""
        profile = self.profile
        cost = profile.stage("insane_ipc").cost(0, burst=burst) / 2.0
        cost += profile.stage(self.sched_stage).cost(0, burst=burst)
        if self.accelerated:
            cost += profile.stage("insane_pool_fast").cost(0, burst=burst)
        return cost

    def _rx_pkt_cost(self, packet, burst):
        """Receive-side per-packet processing cost: the plugin's
        ``rx_stages``, then the hand-off to the runtime."""
        profile = self.profile
        size = packet.payload_len
        cost = 0.0
        for key in self.datapath.rx_stages:
            cost += profile.stage(key).cost(size, burst=burst)
        cost += profile.stage("insane_ipc").cost(0, burst=burst) / 2.0
        cost += profile.stage(self.dispatch_stage).cost(0, burst=burst)
        if self.accelerated:
            cost += profile.stage("insane_pool_fast").cost(0, burst=burst)
        return cost

    # -- the polling pass ----------------------------------------------------------

    def pending(self):
        """Whether a polling pass could make progress right now.

        May report a false positive (a queued TSN packet behind a closed
        gate); the pass then simply finds nothing eligible.  Must never
        report a false negative, or the polling thread would park with
        work queued.  A failed or stalled binding reports no work.
        """
        if self.failed or self.stalled_until > self.sim.now:
            return False
        for ring in self._ring_list:
            if ring._items:
                return True
        return len(self.rx_queue) > 0 or len(self.scheduler) > 0

    def poll(self):
        """One polling pass: drain emitted tokens through the scheduler
        into the datapath, then received packets into local sink rings.
        Returns whether it did any work."""
        progressed = False
        token_costs = self._token_cost_cache
        jitter = self.host.jitter
        route = self._route_token
        for ring in self._ring_list:
            tokens = ring.drain(self.tx_burst)
            if not tokens:
                continue
            progressed = True
            burst = len(tokens)
            base = token_costs.get(burst)
            if base is None:
                base = token_costs[burst] = self._token_cost(burst)
            yield Timeout(jitter(base * burst))
            for token in tokens:
                route(token)
        pop_ready = self.scheduler.pop_ready
        while True:
            ready = pop_ready(self.sim.now, self.tx_burst)
            if not ready:
                break
            progressed = True
            yield from self._send_batch(ready)
        # the binding may have failed or stalled during the transmit half
        if self.failed or self.stalled_until > self.sim.now:
            return progressed
        batch = self.rx_queue.drain(self.rx_burst)
        if not batch:
            return progressed
        burst = len(batch)
        self.rx_packets.value += burst
        cost = self.detect_ns
        rx_costs = self._rx_cost_cache
        sinks_get = self.runtime._sinks.get
        sink_rings = self.runtime.sink_ring_count
        l2_excess = sink_rings > self.l2_budget
        groups = []
        for packet in batch:
            # pure function of (payload_len, burst): memoized, same value
            key = (packet.payload_len, burst)
            pkt_cost = rx_costs.get(key)
            if pkt_cost is None:
                if len(rx_costs) > 4096:
                    rx_costs.clear()
                pkt_cost = rx_costs[key] = self._rx_pkt_cost(packet, burst)
            cost += pkt_cost
            header = packet.insane
            sinks = None
            if header is not None:
                sinks = sinks_get(header[0])
                if sinks is not None:
                    weight = sinks.weight
                    if weight > 1 or l2_excess:
                        cost += fanout_cost_ns(weight, sink_rings,
                                               self.fanout_ns, self.l2_budget,
                                               self.l2_penalty_ns)
            groups.append(sinks)
        yield Timeout(self.host.jitter(cost))
        now = self.sim.now
        pool = self.runtime.memory.pool
        for packet, sinks in zip(batch, groups):
            trace = packet.trace
            if trace is not None:
                trace["runtime_rx"] = now
            header = packet.insane
            if header is None:
                self.unknown_drops.value += 1
                if trace is not None:
                    trace_drop(trace, now, "unknown stream header")
                continue
            key, length = header
            if sinks is None:
                # no sink group when the batch was drained: one may have
                # registered during the receive charge
                sinks = sinks_get(key)
            if not sinks:
                self.no_sink_drops.value += 1
                if trace is not None:
                    trace_drop(trace, now, "no local sink")
                continue
            buffer = pool.try_alloc()
            if buffer is None:
                self.pool_drops.value += 1
                if trace is not None:
                    trace_drop(trace, now, "rx pool exhausted")
                continue
            payload = packet.payload
            if payload is not None:
                # the NIC's DMA wrote straight into this pool slot
                buffer.write(payload[:length])
            buffer.length = length
            if len(sinks) > 1:
                pool.addref(buffer, len(sinks) - 1)
            self._deliver(sinks, buffer, length, key, packet.src_ip, trace)
        return True

    def _route_token(self, token):
        """Deliver locally over shared memory, schedule remote transmissions."""
        runtime = self.runtime
        buffer = token.buffer
        source = token.source
        key = source.key
        local = runtime._sinks.get(key)
        if local is None:
            local = ()
        remote = runtime.control.remote_subscribers(key, self.host.ip)
        refs_needed = len(local) + len(remote)
        outcomes = source._outcomes
        index = token.emit_index
        if refs_needed == 0:
            outcomes[index] = _NO_SUBSCRIBERS
            buffer.pool.release(buffer)
            return
        outcomes[index] = (
            _DEGRADED if outcomes[index] == PENDING_DEGRADED else _SENT
        )
        if refs_needed > 1:
            buffer.pool.addref(buffer, refs_needed - 1)
        if local:
            self._deliver(local, buffer, token.length, key,
                          token.source_ip, token.trace)
        time_sensitive = source.stream.time_sensitive
        now = self.sim.now
        for dst_ip, dst_datapaths in remote:
            egress = self if self.name in dst_datapaths else self._egress_for(dst_datapaths)
            packet = egress._build_packet(token, buffer, dst_ip)
            if egress is not self and egress.failed:
                # fail() has emptied its queue already: nothing would
                # ever send or drop a copy queued there
                egress._drop_scheduled([packet])
                continue
            egress.scheduler.push(packet, time_sensitive, now)
            if egress is not self:
                egress._kick()

    def _egress_for(self, dst_datapaths):
        """The binding to reach a subscriber bound to ``dst_datapaths``,
        which this binding's technology is not among: the best mutually
        supported one, else the kernel path, the universal fallback (every
        runtime keeps it open; it may have failed).
        """
        available = self.runtime.available_datapaths()
        for tech in TECH_PREFERENCE:
            if tech in dst_datapaths and tech in available:
                self.cross_tech_routes.value += 1
                return self.runtime.ensure_binding(tech)
        self.cross_tech_routes.value += 1
        return self.runtime.ensure_binding("udp")

    def _build_packet(self, token, buffer, dst_ip):
        # carry whatever bytes the application actually wrote (possibly a
        # short prefix of the declared length: synthetic payload mode)
        written = buffer.length
        if written > token.length:
            written = token.length
        payload = buffer.view[:written] if written else None
        trace = token.trace
        if trace is not None:
            tracer = self.runtime.tracer
            if tracer is not None:
                # one lifecycle child record per wire packet; a
                # MessageTrace is a dict, so every stamp site downstream
                # works unchanged
                trace = tracer.fork(trace, self.sim.now, self.name, dst_ip)
            else:
                trace = {"emit_ns": trace["emit_ns"]}
        # slotted record: hot metadata lands in attributes; positional
        # arguments (payload, payload_len, trace, seq) bind faster
        packet = Packet(self.host.ip, dst_ip, self.port, self.port, payload,
                        token.length + INSANE_HEADER_BYTES, trace,
                        next(self.sim.ids))
        if trace is not None:
            trace["runtime_tx"] = self.sim.now
        packet.insane = (token.source.key, token.length)
        packet.tx_buffer = buffer
        return packet

    def _send_batch(self, packets):
        # NIC TX backpressure: keep the hardware queue shallow so packet
        # ordering stays under the (possibly TSN) scheduler's control
        nic = self.host.nic
        backlog = nic.tx_backlog_ns(self.sim.now)
        if backlog > self.max_nic_backlog_ns:
            yield Timeout(backlog - self.max_nic_backlog_ns)
        now = self.sim.now
        for packet in packets:
            if packet.trace is not None:
                packet.trace["datapath_tx"] = now
        yield from self._send_many(packets)

    def _deliver(self, sinks, buffer, length, key, source_ip, trace):
        """Put one delivery token on the ring of every endpoint of
        ``sinks``.

        Co-located and network copies both come through here.  Each
        endpoint is lent ``buffer`` (the caller took its references) and
        handed the message's one token.  A full ring drops that copy:
        the endpoint counts it, the lend is released and a traced
        record (the emit's root or the packet's child) is annotated.
        """
        memory = self.runtime.memory
        token = Token(buffer.slot_id, length, key[0], key[1], source_ip,
                      buffer, trace)
        for endpoint in sinks:
            memory.lend_to(endpoint.app_id, buffer)
            if not endpoint.ring.try_put(token):
                endpoint.dropped.value += 1
                memory.release_for(endpoint.app_id, buffer)
                annotate = getattr(trace, "annotate", None)
                if annotate is not None:
                    annotate(self.sim.now, "drop",
                             "sink ring full: %s" % endpoint.app_id)

    def shutdown(self):
        self._close()


class InsaneRuntime:
    """One INSANE runtime per participating host."""

    def __init__(self, host, control=None, config=None):
        self.host = host
        self.sim = host.sim
        self.profile = host.profile
        self.config = config or RuntimeConfig()
        #: hoisted from config: read per emit/packet on the hook paths
        self.tracer = self.config.tracer
        self.control = control or ControlPlane()
        self.control.register_runtime(self)
        self.ipc_ring_slots = int(self.profile.scalar("ipc_ring_slots"))
        #: per-side cost of one client<->runtime ring crossing, the same
        #: for every binding: ``emit_data`` and ``consume_data`` each
        #: charge it jittered
        self.ipc_half_ns = self.profile.stage("insane_ipc").cost(0, burst=1) / 2.0
        self.memory = MemoryManager(self.sim, self.profile, name=host.name + ".mm")
        self.frame_policy = FramePolicy(
            mtu=self.profile.mtu, jumbo_mtu=self.profile.jumbo_mtu
        )
        #: the largest buffer ``get_buffer`` lends: one frame's payload
        #: under the policy, which never changes, less the INSANE header
        self.max_emit_size = self.frame_policy.max_payload - INSANE_HEADER_BYTES
        self.bindings = {}
        self.threads = []
        self._shared_thread = None
        self._sinks = {}           # ChannelKey -> SinkGroup
        #: summed weight of every registered sink endpoint
        self.sink_ring_count = 0
        self.warnings = []
        self._sessions = {}
        self.version = 1
        self._failed_datapaths = set()
        self.health = HealthMonitor(self)
        self.failovers = Counter(host.name + ".failovers")
        # the kernel path listens on every runtime: the universal fallback
        # for publishers on heterogeneous deployments
        self.ensure_binding("udp")

    # -- datapath management ------------------------------------------------

    def available_datapaths(self):
        """Technologies usable for (re-)mapping streams right now: what the
        host supports, minus currently-failed bindings — failover must
        never re-pick a dead path."""
        return set(available_datapaths(self.profile)) - self._failed_datapaths

    def ensure_binding(self, name):
        """Instantiate the datapath at most once per host (paper §4)."""
        binding = self.bindings.get(name)
        if binding is None:
            binding = DatapathBinding(self, name)
            self.bindings[name] = binding
            self._assign_thread(binding)
        return binding

    def _assign_thread(self, binding):
        if self.config.thread_mapping == "per-datapath":
            # one or more dedicated threads per plugin (paper §8 suggests
            # parallelizing the CPU-bound receive pipeline)
            for index in range(self.config.threads_per_datapath):
                thread = PollingThread(
                    self, "%s.poll.%s.%d" % (self.host.name, binding.name, index)
                )
                self.threads.append(thread)
                thread.add_binding(binding)
        else:
            if self._shared_thread is None:
                self._shared_thread = PollingThread(self, self.host.name + ".poll")
                self.threads.append(self._shared_thread)
            self._shared_thread.add_binding(binding)

    # -- fault injection & failover ---------------------------------------------

    def fail_datapath(self, name, reason=""):
        """Fail a datapath binding (fault injection / operator action).

        The health monitor detects the failure
        :data:`~repro.core.control.FAILOVER_DETECT_NS` later and re-maps
        every affected stream onto the best surviving datapath its policy
        allows (paper §5.2's fallback rule).
        """
        binding = self.bindings.get(name)
        if binding is None:
            raise NoDatapathError(
                "no %r binding instantiated on %s" % (name, self.host.name)
            )
        binding.fail(reason)
        return binding

    def restore_datapath(self, name):
        """Bring a failed binding back into service for *new* mappings
        (already re-mapped streams stay on their fallback)."""
        binding = self.bindings.get(name)
        if binding is None:
            raise NoDatapathError(
                "no %r binding instantiated on %s" % (name, self.host.name)
            )
        binding.restore()
        return binding

    def _on_binding_failed(self, binding, reason):
        self._failed_datapaths.add(binding.name)
        self.warn(
            "datapath %s failed on %s%s"
            % (binding.name, self.host.name, (": " + reason) if reason else "")
        )
        if self.tracer is not None:
            self.tracer.datapath_failed(
                self.sim.now, self.host.name, binding.name, reason
            )
        self.health.binding_failed(binding, reason)

    def _on_binding_restored(self, binding):
        self._failed_datapaths.discard(binding.name)
        if self.tracer is not None:
            self.tracer.datapath_restored(self.sim.now, self.host.name, binding.name)

    def failover_remap(self, binding):
        """Re-map every stream bound to ``binding`` onto the best surviving
        datapath satisfying its policy; exactly-once per failure epoch is
        the health monitor's job, this method just executes the re-map.

        Returns ``(remapped, stranded, migrated)``: re-map records, streams
        left with no usable datapath, and tokens migrated out of the dead
        binding's shared-memory rings.
        """
        remapped, stranded = [], []
        survivors = self.available_datapaths()
        for session in list(self._sessions.values()):
            for stream in list(session.streams):
                if stream.binding is not binding or stream.closed:
                    continue
                try:
                    decision = resolve_mapping(
                        stream.policy,
                        survivors,
                        strategy=self.config.mapping_strategy,
                    )
                except NoDatapathError:
                    stream.failed = True
                    stranded.append((session.app_id, stream.name))
                    self.warn(
                        "stream %s/%s: datapath %s failed and no surviving "
                        "datapath remains; emits on this stream now fail"
                        % (session.app_id, stream.name, binding.name)
                    )
                    continue
                if decision.warning:
                    self.warn(decision.warning)
                new_binding = self.ensure_binding(decision.datapath)
                for sink in stream.sinks:
                    self.remap_sink(sink.endpoint, decision.datapath)
                stream._rebind(decision, new_binding)
                self.failovers.value += 1
                remapped.append(
                    (session.app_id, stream.name, binding.name, decision.datapath)
                )
                self.warn(
                    "stream %s/%s re-mapped %s -> %s after datapath failure"
                    % (session.app_id, stream.name, binding.name, decision.datapath)
                )
        migrated = self._migrate_tokens(binding)
        if self.tracer is not None:
            self.tracer.failover_remapped(
                self.sim.now, self.host.name, binding.name,
                remapped, stranded, migrated,
            )
        return remapped, stranded, migrated

    def remap_sink(self, endpoint, datapath):
        """Move a sink's control-plane subscription to ``datapath``.

        The shared-memory delivery ring itself is datapath-independent;
        only the advertised technology (what remote publishers pick their
        egress from) changes.
        """
        if endpoint.datapath == datapath:
            return
        self.control.unsubscribe(endpoint.key, self, datapath=endpoint.datapath)
        endpoint.datapath = datapath
        self.control.subscribe(endpoint.key, self, datapath=datapath)

    def _migrate_tokens(self, binding):
        """Move tokens parked in a failed binding's emit rings onto their
        streams' new bindings; tokens with nowhere to go fail (and their
        buffers return to the pool)."""
        migrated = 0
        for app_id, ring in list(binding.tx_rings.items()):
            # each take admits a producer blocked on the full ring: take
            # until the ring is empty, or its token would strand there
            while len(ring):
                _ok, token = ring.try_get()
                stream = token.source.stream
                target = None
                if (
                    not stream.closed
                    and not stream.failed
                    and stream.binding is not binding
                    and not stream.binding.failed
                ):
                    target = stream.binding
                if target is None:
                    self.fail_emit(token, "failover: no surviving datapath")
                    continue
                token.source._outcomes[token.emit_index] = PENDING_DEGRADED
                if self.tracer is not None:
                    token.trace.annotate(self.sim.now, "migrated", target.name)
                if target.ring_for(app_id).try_enqueue(token):
                    migrated += 1
                else:
                    self.fail_emit(token, "failover: fallback ring full")
        return migrated

    def fail_emit(self, token, reason):
        """Fail an emit the runtime cannot route: its outcome reads
        FAILED, its buffer returns to the pool and a traced emit's record
        is closed as dropped."""
        token.source._outcomes[token.emit_index] = _FAILED
        token.buffer.pool.release(token.buffer)
        if self.tracer is not None:
            token.trace.mark_dropped(self.sim.now, reason)

    # -- session management ----------------------------------------------------

    def attach_session(self, session):
        self._sessions[session.app_id] = session
        self.memory.attach(session.app_id, quota=getattr(session, "slot_quota", None))

    def detach_session(self, session):
        self._sessions.pop(session.app_id, None)
        return self.memory.detach(session.app_id)

    # -- sink registry ------------------------------------------------------------

    def register_sink(self, key, app_id, datapath="udp", ring=None,
                      weight=1):
        """Register a sink endpoint for ``app_id`` on channel ``key``.

        Deliveries land in ``ring``: a fresh shared-memory ring by
        default, or any object whose ``try_put(delivery)`` takes the
        token.  ``weight`` is the number of subscribers the endpoint
        stands for (see :class:`SinkEndpoint`).  The control plane
        subscribes it on ``datapath``.
        """
        if weight < 1:
            raise ValueError("sink weight must be >= 1, got %r" % (weight,))
        if ring is None:
            ring = Store(
                self.sim,
                capacity=self.ipc_ring_slots,
                name="%s.sinkring%d" % (self.host.name, self.sink_ring_count),
            )
        endpoint = SinkEndpoint(self, key, app_id, ring, datapath=datapath,
                                weight=weight)
        group = self._sinks.setdefault(key, SinkGroup())
        group.append(endpoint)
        group.weight += weight
        self.sink_ring_count += weight
        self.control.subscribe(key, self, datapath=datapath)
        return endpoint

    def set_sink_weight(self, endpoint, weight):
        """Re-weight a registered endpoint, at once: a caller that moves
        subscribers between it and plain sinks in the same callback keeps
        the fan-out charge exact."""
        if weight < 1:
            raise ValueError("sink weight must be >= 1, got %r" % (weight,))
        delta = weight - endpoint.weight
        endpoint.weight = weight
        self._sinks[endpoint.key].weight += delta
        self.sink_ring_count += delta

    def unregister_sink(self, endpoint):
        group = self._sinks.get(endpoint.key)
        if group and endpoint in group:
            group.remove(endpoint)
            group.weight -= endpoint.weight
            self.sink_ring_count -= endpoint.weight
            self.control.unsubscribe(endpoint.key, self, datapath=endpoint.datapath)
            if not group:
                self._sinks.pop(endpoint.key, None)

    # -- misc -----------------------------------------------------------------------

    def warn(self, message):
        self.warnings.append(message)

    def stats(self):
        """An operator-facing snapshot of the runtime's internal state."""
        bindings = {}
        for name, binding in self.bindings.items():
            bindings[name] = {
                "tx_rings": {
                    app_id: {
                        "depth": len(ring),
                        "enqueued": ring.enqueued.value,
                        "rejected": ring.rejected.value,
                    }
                    for app_id, ring in binding.tx_rings.items()
                },
                "scheduler_backlog": len(binding.scheduler),
                "rx_queue_depth": len(binding.rx_queue),
                "pool_drops": binding.pool_drops.value,
                "no_sink_drops": binding.no_sink_drops.value,
                "unknown_drops": binding.unknown_drops.value,
                "sched_drops": binding.sched_drops.value,
                "tx_packets": binding.datapath.tx_packets.value,
                "rx_packets": binding.rx_packets.value,
                "polling_threads": len(binding.threads),
                "failed": binding.failed,
            }
        return {
            "host": self.host.name,
            "ip": self.host.ip,
            "profile": self.profile.name,
            "sessions": sorted(self._sessions),
            "sink_rings": self.sink_ring_count,
            "memory": {
                "slots": self.memory.pool.slots,
                "slot_bytes": self.memory.pool.slot_bytes,
                "in_use": self.memory.pool.in_use,
                "allocations": self.memory.pool.allocations.value,
                "exhaustions": self.memory.pool.exhaustions.value,
            },
            "bindings": bindings,
            "failed_datapaths": sorted(self._failed_datapaths),
            "failovers": self.failovers.value,
            "failover_events": len(self.health.events),
            "warnings": list(self.warnings),
        }

    def upgrade(self, swap_ns=100_000.0):
        """Transparent software upgrade (generator; returns downtime ns).

        The microkernel-style design makes this possible (paper §4, citing
        Snap): polling threads stop, the runtime binary is swapped
        (``swap_ns``), and fresh threads take over the *same* bindings —
        shared-memory pools, token rings, NIC queues, and attached sessions
        all survive untouched; anything that arrived during the swap is
        drained when the new threads start.
        """
        started = self.sim.now
        old_threads, self.threads = self.threads, []
        self._shared_thread = None
        for thread in old_threads:
            thread.stop()
        for binding in self.bindings.values():
            binding.threads = []
        yield Timeout(swap_ns)
        self.version += 1
        for binding in self.bindings.values():
            self._assign_thread(binding)
        return self.sim.now - started

    def shutdown(self):
        """Stop polling threads and close every binding.  Idempotent."""
        if getattr(self, "_shut_down", False):
            return
        self._shut_down = True
        for thread in self.threads:
            thread.stop()
        for binding in self.bindings.values():
            binding.shutdown()
        self.control.unregister_runtime(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False


class InsaneDeployment:
    """Convenience: one runtime per testbed host plus a shared control plane.

    Usable as a context manager; exit shuts every runtime down (idempotent,
    like all close/shutdown calls in this API).
    """

    def __init__(self, testbed, config=None):
        self.testbed = testbed
        self.control = ControlPlane()
        self.runtimes = {}
        for host in testbed.hosts:
            self.runtimes[host.name] = InsaneRuntime(host, self.control, config)

    def runtime(self, index):
        return self.runtimes[self.testbed.hosts[index].name]

    def shutdown(self):
        for runtime in self.runtimes.values():
            runtime.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False


#: accepted datapath spellings -> canonical registry name.  The obs layer
#: labels the kernel stack ``kernel_udp``; the registry calls it ``udp``.
DATAPATH_ALIASES = {
    "udp": "udp",
    "kernel_udp": "udp",
    "xdp": "xdp",
    "dpdk": "dpdk",
    "rdma": "rdma",
}


def normalize_datapath(name):
    """The registry name for a datapath spelling; ``ValueError`` if unknown."""
    canonical = DATAPATH_ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            "unknown datapath %r (choose from %s)"
            % (name, ", ".join(sorted(DATAPATH_ALIASES)))
        )
    return canonical


def build_stack(datapath=None, profile="local", seed=0, hosts=2,
                config=None):
    """A fresh testbed and deployment, optionally pinned to ``datapath``.

    ``profile`` names a recorded testbed; ``config`` defaults to a plain
    :class:`RuntimeConfig`.  A pin replaces the QoS mapping with the
    datapath.  The recorded testbeds have no RNIC, so an ``rdma`` pin is
    the what-if that switches one on (paper §6: "not yet available").
    Returns ``(testbed, deployment)``.
    """
    hw_profile = PROFILES[profile]
    if config is None:
        config = RuntimeConfig()
    if datapath is not None:
        datapath = normalize_datapath(datapath)
        if datapath == "rdma" and not hw_profile.rdma_nic:
            hw_profile = hw_profile.replace(rdma_nic=True)
        config.mapping_strategy = \
            lambda policy, available, _pin=datapath: _pin
    testbed = Testbed(hw_profile, hosts=hosts, seed=seed)
    return testbed, InsaneDeployment(testbed, config=config)
