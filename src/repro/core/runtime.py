"""The INSANE runtime: the per-host userspace networking service.

The runtime centralizes host networking and offers it *as a service* to
local applications (paper §5.3): it owns the memory manager, instantiates
each datapath at most once per host, runs the packet schedulers, and drives
everything with a configurable pool of polling threads.  Applications attach
over shared memory (sessions) and exchange slot-id tokens with it.
"""

from functools import partial
from types import MappingProxyType

from repro.core.config import RuntimeConfig
from repro.core.control import ControlPlane, HealthMonitor
from repro.core.errors import NoDatapathError
from repro.core.ipc import Token, TokenRing
from repro.core.qos import resolve_mapping
from repro.core.memory import MemoryManager
from repro.core.outcomes import EmitOutcome
from repro.core.polling import PollingThread
from repro.core.scheduler import (
    CLASS_BEST_EFFORT,
    CLASS_TIME_SENSITIVE,
    TsnScheduler,
    scheduler_for,
)
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
INSANE_HEADER_BYTES = 24

#: Preference order when a publisher must pick a technology the subscriber
#: listens on (heterogeneous deployments).
TECH_PREFERENCE = ("rdma", "dpdk", "xdp", "udp")

#: outcome codes routing writes into an emit's byte of its source's table
_SENT = EmitOutcome.SENT.as_int()
_DEGRADED = EmitOutcome.DEGRADED.as_int()
_NO_SUBSCRIBERS = EmitOutcome.NO_SUBSCRIBERS.as_int()
_FAILED = EmitOutcome.FAILED.as_int()

#: the metadata of every untraced network delivery: read-only and shared
_NO_META = MappingProxyType({})


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
    weight: the sink count ``rx_pass`` charges fan-out for."""

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
        self._ipc_half_ns = self.profile.stage("insane_ipc").cost(0, burst=1) / 2.0
        self.fifo = scheduler_for(False, best_effort=config.best_effort_scheduler)
        self.tsn = None
        self.cross_tech_routes = Counter("%s.%s.cross_tech" % (self.host.name, name))
        self.pool_drops = Counter("%s.%s.pool_drops" % (self.host.name, name))
        self.no_sink_drops = Counter("%s.%s.no_sink_drops" % (self.host.name, name))
        self.unknown_drops = Counter("%s.%s.unknown_drops" % (self.host.name, name))
        self.sched_drops = Counter("%s.%s.sched_drops" % (self.host.name, name))
        #: packets rx_pass drained from the datapath's receive queue
        self.rx_packets = Counter("%s.%s.rx_packets" % (self.host.name, name))
        # fault state (repro.faults): a failed binding accepts emits (the
        # client-side rings stay up — shared memory does not die with a
        # NIC driver) but its polling passes stop until restore(); a
        # stalled binding pauses until ``stalled_until``.
        self.failed = False
        self.failed_at = None
        self.stalled_until = 0.0
        self._failover_handled = False
        self._wire_datapath()
        self.rx_queue.on_item = self._kick

    def ring_for(self, app_id):
        """The application's private SPSC emit ring on this binding."""
        ring = self.tx_rings.get(app_id)
        if ring is None:
            ring = TokenRing(
                self.sim,
                self.runtime.ipc_ring_slots,
                "%s.%s.txring.%s" % (self.host.name, self.name, app_id),
            )
            ring.on_item = self._kick
            self.tx_rings[app_id] = ring
            self._ring_list.append(ring)
        return ring

    def ipc_half_cost(self):
        """Per-side cost of one client<->runtime ring crossing."""
        return Timeout(self.host.jitter(self._ipc_half_ns))

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
        self.sched_drops.value += self._drop_scheduled()
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

    def _drop_scheduled(self):
        """Release the TX buffers of packets stranded in the schedulers
        (data already past the API is lost with the datapath)."""
        dropped = 0
        for scheduler in (self.fifo, self.tsn):
            if scheduler is None:
                continue
            while len(scheduler):
                ready = scheduler.next_ready_at(self.sim.now)
                batch = scheduler.pop_ready(
                    self.sim.now if ready is None else ready, 1024
                )
                if not batch:
                    break
                for packet in batch:
                    buffer = packet.tx_buffer
                    if buffer is not None:
                        packet.tx_buffer = None
                        buffer.pool.release(buffer)
                    dropped += 1
        return dropped

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
        """Receive-side per-packet processing cost: the plugin's RX chain
        stages, then the hand-off to the runtime."""
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

    def _fanout_cost(self, sink_count):
        """Token fan-out to local sink rings, with the L2 pressure model."""
        if sink_count <= 0:
            return 0.0
        cost = (sink_count - 1) * self.fanout_ns
        excess = self.runtime.sink_ring_count - self.l2_budget
        if excess > 0:
            cost += excess * self.l2_penalty_ns
        return cost

    # -- TX path --------------------------------------------------------------------

    def tx_pending(self):
        """Whether a tx_pass could make progress right now.

        May report a false positive (a queued TSN packet behind a closed
        gate); the pass then simply finds nothing eligible.  Must never
        report a false negative, or the polling thread would park with
        work queued.
        """
        if self.failed or self.stalled_until > self.sim.now:
            return False
        for ring in self._ring_list:
            if ring._items:
                return True
        if len(self.fifo):
            return True
        tsn = self.tsn
        return tsn is not None and len(tsn) > 0

    def rx_pending(self):
        """Whether the datapath's receive queue holds anything."""
        if self.failed or self.stalled_until > self.sim.now:
            return False
        return len(self.rx_queue) > 0

    def tx_pass(self):
        """Drain emitted tokens through the scheduler into the datapath."""
        progressed = False
        cache = self._token_cost_cache
        jitter = self.host.jitter
        route = self._route_token
        for ring in self._ring_list:
            tokens = ring.drain(self.tx_burst)
            if not tokens:
                continue
            progressed = True
            burst = len(tokens)
            base = cache.get(burst)
            if base is None:
                base = cache[burst] = self._token_cost(burst)
            yield Timeout(jitter(base * burst))
            for token in tokens:
                route(token)
        while True:
            ready = self._pop_ready(self.sim.now, self.tx_burst)
            if not ready:
                break
            progressed = True
            yield from self._send_batch(ready)
        return progressed

    def _route_token(self, token):
        """Deliver locally over shared memory, schedule remote transmissions."""
        runtime = self.runtime
        buffer = token.buffer
        key = (token.stream, token.channel)  # hashes equal to ChannelKey
        local = runtime._sinks.get(key)
        if local is None:
            local = ()
        remote = runtime.control.remote_subscribers(key, self.host.ip)
        refs_needed = len(local) + len(remote)
        if refs_needed == 0:
            token.outcomes[token.emit_index] = _NO_SUBSCRIBERS
            buffer.pool.release(buffer)
            return
        token.outcomes[token.emit_index] = (
            _DEGRADED if token.meta.get("degraded") else _SENT
        )
        pool = buffer.pool
        for _ in range(refs_needed - 1):
            pool.addref(buffer)
        if local:
            meta = token.meta
            self._deliver(local, buffer, token.length, token.stream,
                          token.channel, token.source_ip, meta,
                          meta.get("obs"))
        traffic_class = (
            CLASS_TIME_SENSITIVE if token.meta.get("time_sensitive") else CLASS_BEST_EFFORT
        )
        for dst_ip, dst_datapaths in remote:
            egress = self if self.name in dst_datapaths else self._egress_for(dst_datapaths)
            packet = egress._build_packet(token, buffer, dst_ip)
            egress._push_scheduler(packet, traffic_class)
            if egress is not self:
                egress._kick()

    def _egress_for(self, dst_datapaths):
        """The binding to reach a subscriber bound to ``dst_datapaths``.

        Prefer this binding's own technology when the subscriber listens on
        it; otherwise pick the best mutually supported one; the kernel path
        is the universal fallback (every runtime keeps it open).
        """
        if self.name in dst_datapaths:
            return self
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
        meta = token.meta
        obs = meta.get("obs")
        if obs is not None:
            # one lifecycle child record per wire packet; a MessageTrace is
            # a dict, so every stamp site downstream works unchanged
            trace = obs.tracer.fork(obs, self.sim.now, self.name, dst_ip)
        elif "emit_ns" in meta:
            trace = {"emit_ns": meta["emit_ns"]}
        else:
            trace = None
        # slotted record: hot metadata lands in attributes
        packet = Packet(
            self.host.ip,
            dst_ip,
            self.port,
            self.port,
            payload=payload,
            payload_len=token.length + INSANE_HEADER_BYTES,
            trace=trace,
            seq=next(self.sim.ids),
        )
        if trace is not None:
            trace["runtime_tx"] = self.sim.now
        packet.insane = (token.stream, token.channel, token.length)
        packet.tx_buffer = buffer
        app = meta.get("app")
        if app is not None:
            packet.flow = app
        return packet

    def _push_scheduler(self, packet, traffic_class):
        now = self.sim.now
        if traffic_class == CLASS_TIME_SENSITIVE:
            if self.tsn is None:
                self.tsn = TsnScheduler()
            self.tsn.push(packet, traffic_class, now=now)
        else:
            flow = packet.flow
            if flow is None:
                flow = "default"
            self.fifo.push(packet, traffic_class, now=now, flow=flow)

    def _pop_ready(self, now, max_items):
        batch = []
        if self.tsn is not None:
            batch.extend(self.tsn.pop_ready(now, max_items))
        if len(batch) < max_items:
            batch.extend(self.fifo.pop_ready(now, max_items - len(batch)))
        return batch

    def next_scheduler_ready(self, now):
        ready = self.fifo.next_ready_at(now)
        if self.tsn is not None:
            tsn_ready = self.tsn.next_ready_at(now)
            if tsn_ready is not None and (ready is None or tsn_ready < ready):
                ready = tsn_ready
        return ready

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

    # -- RX path ----------------------------------------------------------------------

    def rx_pass(self):
        """Drain received packets and dispatch them to local sinks."""
        batch = self.rx_queue.drain(self.rx_burst)
        if not batch:
            return False
        burst = len(batch)
        self.rx_packets.value += burst
        cost = self.detect_ns
        cache = self._rx_cost_cache
        sinks_get = self.runtime._sinks.get
        l2_excess = self.runtime.sink_ring_count > self.l2_budget
        per_packet_sinks = []
        for packet in batch:
            # pure function of (payload_len, burst): memoized, same value
            key = (packet.payload_len, burst)
            pkt_cost = cache.get(key)
            if pkt_cost is None:
                if len(cache) > 4096:
                    cache.clear()
                pkt_cost = cache[key] = self._rx_pkt_cost(packet, burst)
            cost += pkt_cost
            meta = packet.insane
            sinks = None
            if meta is not None:
                sinks = sinks_get((meta[0], meta[1]))
                if sinks is not None:
                    weight = sinks.weight
                    if weight > 1 or l2_excess:
                        cost += self._fanout_cost(weight)
            per_packet_sinks.append(sinks)
        yield Timeout(self.host.jitter(cost))
        dispatch = self._dispatch
        for packet, sinks in zip(batch, per_packet_sinks):
            dispatch(packet, sinks)
        return True

    def _dispatch(self, packet, sinks=None):
        now = self.sim.now
        trace = packet.trace
        if trace is not None:
            trace["runtime_rx"] = now
        meta = packet.insane
        if meta is None:
            self.unknown_drops.value += 1
            if trace is not None:
                trace_drop(trace, now, "unknown stream header")
            return
        stream, channel, length = meta
        if sinks is None:
            sinks = self.runtime._sinks.get((stream, channel))
        if not sinks:
            self.no_sink_drops.value += 1
            if trace is not None:
                trace_drop(trace, now, "no local sink")
            return
        buffer = self.runtime.memory.pool.try_alloc()
        if buffer is None:
            self.pool_drops.value += 1
            if trace is not None:
                trace_drop(trace, now, "rx pool exhausted")
            return
        payload = packet.payload
        if payload is not None:
            # the NIC's DMA wrote straight into this pool slot
            buffer.write(payload[:length])
        buffer.length = length
        if len(sinks) > 1:
            addref = buffer.pool.addref
            for _ in range(len(sinks) - 1):
                addref(buffer)
        self._deliver(sinks, buffer, length, stream, channel, packet.src_ip,
                      _NO_META if trace is None else {"trace": trace}, trace)

    def _deliver(self, sinks, buffer, length, stream, channel, source_ip,
                 meta, record):
        """Put one delivery token per endpoint of ``sinks`` on its ring.

        Co-located and network copies both come through here.  Each
        endpoint is lent ``buffer`` (the caller took its references),
        then handed a token sharing ``meta``.  A full ring drops that
        copy: the endpoint counts it, the lend is released and the
        traced ``record`` (the emit's root or the packet's child) is
        annotated.
        """
        memory = self.runtime.memory
        slot_id = buffer.slot_id
        for endpoint in sinks:
            memory.lend_to(endpoint.app_id, buffer)
            if not endpoint.ring.try_put(Token(slot_id, length, stream,
                                               channel, source_ip, buffer,
                                               meta)):
                endpoint.dropped.value += 1
                memory.release_for(endpoint.app_id, buffer)
                annotate = getattr(record, "annotate", None)
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
        self.memory = MemoryManager(self.sim, self.profile, name=host.name + ".mm")
        self.frame_policy = FramePolicy(
            mtu=self.profile.mtu, jumbo_mtu=self.profile.jumbo_mtu
        )
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
            for token in ring.drain(len(ring)):
                stream = self._stream_for(app_id, token.stream)
                target = None
                if (
                    stream is not None
                    and not stream.failed
                    and stream.binding is not binding
                    and not stream.binding.failed
                ):
                    target = stream.binding
                obs = token.meta.get("obs")
                if target is None:
                    token.outcomes[token.emit_index] = _FAILED
                    token.buffer.pool.release(token.buffer)
                    if obs is not None:
                        obs.mark_dropped(self.sim.now, "failover: no surviving datapath")
                    continue
                token.meta["degraded"] = True
                if obs is not None:
                    obs.annotate(self.sim.now, "migrated", target.name)
                if target.ring_for(app_id).try_enqueue(token):
                    migrated += 1
                else:
                    token.outcomes[token.emit_index] = _FAILED
                    token.buffer.pool.release(token.buffer)
                    if obs is not None:
                        obs.mark_dropped(self.sim.now, "failover: fallback ring full")
        return migrated

    def _stream_for(self, app_id, stream_name):
        session = self._sessions.get(app_id)
        if session is None:
            return None
        for stream in session.streams:
            if stream.name == stream_name:
                return stream
        return None

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
                "scheduler_backlog": len(binding.fifo)
                + (len(binding.tsn) if binding.tsn is not None else 0),
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
