"""The INSANE runtime: the per-host userspace networking service.

The runtime centralizes host networking and offers it *as a service* to
local applications (paper §5.3): it owns the memory manager, instantiates
each datapath at most once per host, runs the packet schedulers, and drives
everything with a configurable pool of polling threads.  Applications attach
over shared memory (sessions) and exchange slot-id tokens with it.
"""

from repro.core.channel import ChannelKey
from repro.core.config import RuntimeConfig
from repro.core.control import ControlPlane, HealthMonitor
from repro.core.errors import NoDatapathError
from repro.core.ipc import Token, TokenRing
from repro.core.qos import resolve_mapping
from repro.core.memory import MemoryManager
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
from repro.netstack import FramePolicy, Packet
from repro.simnet import Counter, Timeout

#: Well-known UDP port space used for runtime-to-runtime traffic,
#: one port per datapath technology.
INSANE_PORTS = {"udp": 47000, "dpdk": 47001, "xdp": 47002, "rdma": 47003}

#: Bytes of INSANE message header on the wire (stream hash, channel id,
#: length, emit id) — accounted in the payload length of every datagram.
INSANE_HEADER_BYTES = 24

#: Preference order when a publisher must pick a technology the subscriber
#: listens on (heterogeneous deployments).
TECH_PREFERENCE = ("rdma", "dpdk", "xdp", "udp")


def _trace_drop(trace, now, reason):
    """Mark a traced packet dropped.  Duck-typed so the runtime never
    imports :mod:`repro.obs`: plain-dict traces (``config.trace``) and
    ``None`` both fall through for free."""
    if trace is not None:
        mark = getattr(trace, "mark_dropped", None)
        if mark is not None:
            mark(now, reason)


def _trace_annotate(trace, now, kind, detail=""):
    """Annotate a traced packet's timeline (duck-typed, see above)."""
    if trace is not None:
        annotate = getattr(trace, "annotate", None)
        if annotate is not None:
            annotate(now, kind, detail)


class SinkEndpoint:
    """Runtime-side state for one registered sink."""

    def __init__(self, runtime, key, app_id, ring, datapath="udp"):
        self.endpoint_id = next(runtime.sim.ids)
        self.runtime = runtime
        self.key = key
        self.app_id = app_id
        self.ring = ring
        self.datapath = datapath
        self.dropped = Counter("sink%d.dropped" % self.endpoint_id)


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
        self.rx_burst = config.rx_burst or int(scalars["dpdk_rx_burst"])
        self.batching = config.opportunistic_batching
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
            ring.store.on_item = self._kick
            self.tx_rings[app_id] = ring
            self._ring_list.append(ring)
        return ring

    def ipc_half_cost(self):
        """Per-side cost of one client<->runtime ring crossing."""
        return Timeout(self.host.jitter(self._ipc_half_ns))

    def _wire_datapath(self):
        host = self.host
        if self.name == "udp":
            self.datapath = KernelUdpDatapath.get(host)
            self.socket = self.datapath.socket(self.port, blocking=False)
            self.rx_queue = self.socket.buffer
            self.detect_ns = self.profile.scalar("udp_poll_detect_ns")
        elif self.name == "dpdk":
            # fast mode shares the runtime pool with the PMD: true
            # zero-copy between application slots and the NIC.
            self.datapath = DpdkDatapath(host, mempool=self.runtime.memory.pool)
            self.rx_queue = self.datapath.open_port(self.port)
            self.detect_ns = self.profile.scalar("dpdk_poll_detect_ns")
        elif self.name == "xdp":
            self.datapath = XdpDatapath(host)
            self.rx_queue = self.datapath.open_port(self.port)
            self.detect_ns = self.profile.scalar("xdp_poll_detect_ns")
        elif self.name == "rdma":
            self.datapath = RdmaDatapath(host)
            self.qp = self.datapath.create_qp(self.port)
            self.rx_queue = self.qp.recv_queue
            self.detect_ns = self.profile.scalar("rdma_poll_detect_ns")
        else:
            raise ValueError("unknown datapath %r" % (self.name,))

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
        """Receive-side per-packet processing cost (datapath-specific)."""
        profile = self.profile
        size = packet.payload_len
        if self.name == "udp":
            cost = 0.0  # kernel already charged udp_rx
        elif self.name == "dpdk":
            cost = profile.stage("dpdk_rx").cost(size, burst=burst)
            cost += profile.stage("ustack_rx").cost(size, burst=burst)
        elif self.name == "xdp":
            cost = profile.stage("xdp_rx").cost(size, burst=burst)
            cost += profile.stage("ustack_rx").cost(size, burst=burst)
        else:  # rdma
            cost = profile.stage("rdma_poll_cq").cost(size, burst=burst)
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
            if ring.store._items:
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
        max_batch = self.tx_burst if self.batching else 1
        while True:
            ready = self._pop_ready(self.sim.now, max_batch)
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
        if token.emit_id is not None:
            if refs_needed == 0:
                outcome = "no_subscribers"
            elif token.meta.get("degraded"):
                outcome = "degraded"
            else:
                outcome = "sent"
            runtime._outcomes[token.emit_id] = outcome
        if refs_needed == 0:
            buffer.pool.release(buffer)
            return
        pool = buffer.pool
        for _ in range(refs_needed - 1):
            pool.addref(buffer)
        for endpoint in local:
            runtime.deliver_to_sink(endpoint, token, buffer)
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
                self.tsn = TsnScheduler(self.runtime.config.gate_control_list)
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
        if self.name == "udp":
            yield from self.socket.send_many(packets)
        elif self.name == "rdma":
            yield from self.qp.post_send_many(packets)
        else:
            yield from self.datapath.send_many(packets)

    # -- RX path ----------------------------------------------------------------------

    def rx_pass(self):
        """Drain received packets and dispatch them to local sinks."""
        try_get = self.rx_queue.try_get
        batch = []
        while len(batch) < self.rx_burst:
            ok, packet = try_get()
            if not ok:
                break
            batch.append(packet)
        if not batch:
            return False
        burst = len(batch)
        cost = self.detect_ns
        cache = self._rx_cost_cache
        sinks_get = self.runtime._sinks.get
        l2_excess = self.runtime.sink_ring_count > self.l2_budget
        # fluid-tier weighting: an aggregate endpoint stands for many cold
        # subscribers, so the fan-out charge uses the *effective* sink
        # count (len + modelled extras).  The dict is empty unless a fluid
        # aggregate is registered — the packet-accurate path is untouched.
        fluid_weights = self.runtime._fluid_weights
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
                    effective = len(sinks)
                    if fluid_weights:
                        effective += fluid_weights.get((meta[0], meta[1]), 0)
                    if effective > 1 or l2_excess:
                        cost += self._fanout_cost(effective)
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
            _trace_drop(trace, now, "unknown stream header")
            return
        stream, channel, length = meta
        if sinks is None:
            sinks = self.runtime._sinks.get((stream, channel))
        if not sinks:
            self.no_sink_drops.value += 1
            _trace_drop(trace, now, "no local sink")
            return
        runtime = self.runtime
        memory = runtime.memory
        buffer = memory.pool.try_alloc()
        if buffer is None:
            self.pool_drops.value += 1
            _trace_drop(trace, now, "rx pool exhausted")
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
        src_ip = packet.src_ip
        slot_id = buffer.slot_id
        # one delivery token per sink, built directly (no intermediate
        # token + meta-dict copy as in deliver_to_sink)
        for endpoint in sinks:
            tmeta = (
                {"recv_ns": now} if trace is None
                else {"trace": trace, "recv_ns": now}
            )
            delivery = Token(slot_id, length, stream, channel,
                            None, src_ip, buffer, tmeta)
            memory.lend_to(endpoint.app_id, buffer)
            if not endpoint.ring.try_put(delivery):
                endpoint.dropped.value += 1
                memory.release_for(endpoint.app_id, buffer)
                _trace_annotate(trace, now, "drop",
                                "sink ring full: %s" % endpoint.app_id)

    def shutdown(self):
        if self.name == "udp":
            self.socket.close()
        elif self.name == "rdma":
            self.datapath.close_qp(self.port)
        else:
            self.datapath.close_port(self.port)


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
        self.ipc_ring_slots = self.config.ipc_ring_slots or int(
            self.profile.scalar("ipc_ring_slots")
        )
        self.memory = MemoryManager(
            self.sim,
            self.profile,
            name=host.name + ".mm",
            slots=self.config.pool_slots,
        )
        self.frame_policy = FramePolicy(
            mtu=self.profile.mtu,
            jumbo_mtu=self.profile.jumbo_mtu,
            jumbo_enabled=self.config.jumbo_frames,
        )
        self.bindings = {}
        self.threads = []
        self._shared_thread = None
        self._sinks = {}           # ChannelKey -> [SinkEndpoint]
        self.sink_ring_count = 0
        #: ChannelKey -> extra effective sink count contributed by fluid
        #: aggregates (weight - 1 each); empty unless the fluid tier is in
        #: use, and rx_pass charges fan-out as if the modelled subscribers
        #: were individually registered (L2 pressure model included)
        self._fluid_weights = {}
        self.warnings = []
        self._outcomes = {}
        self._sessions = {}
        self.version = 1
        self._failed_datapaths = set()
        self.health = HealthMonitor(self, detect_ns=self.config.failover_detect_ns)
        self.failovers = Counter(host.name + ".failovers")
        if self.config.always_kernel_listener:
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

        The health monitor detects the failure ``failover_detect_ns``
        later and re-maps every affected stream onto the best surviving
        datapath its policy allows (paper §5.2's fallback rule).
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
        self.health.binding_restored(binding)

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
                    self.mark_outcome(token, "failed")
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
                    self.mark_outcome(token, "failed")
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

    def register_sink(self, key, app_id, datapath="udp"):
        from repro.simnet import Store  # local import to avoid cycle noise

        ring = Store(
            self.sim,
            capacity=self.ipc_ring_slots,
            name="%s.sinkring%d" % (self.host.name, self.sink_ring_count),
        )
        endpoint = SinkEndpoint(self, key, app_id, ring, datapath=datapath)
        self._sinks.setdefault(key, []).append(endpoint)
        self.sink_ring_count += 1
        self.control.subscribe(key, self, datapath=datapath)
        return endpoint

    def register_sink_key(self, stream, channel, app_id, datapath="udp"):
        return self.register_sink(ChannelKey(stream, channel), app_id, datapath=datapath)

    # -- fluid aggregate endpoints (repro.fluid) --------------------------------

    def register_fluid_sink(self, key, absorber, weight, app_id,
                            datapath="udp"):
        """Register a fluid aggregate as one weighted sink endpoint.

        ``absorber`` is a ring-duck (``try_put(delivery)`` absorbs the
        token and returns True) standing for ``weight`` cold subscribers.
        The runtime subscribes it on the control plane like any sink, and
        accounts the modelled population in :attr:`sink_ring_count` (so
        the L2 ring-pressure model sees the same state as a full-DES run
        with ``weight`` registered rings) and in the per-channel fan-out
        weight used by ``rx_pass``.
        """
        if weight < 1:
            raise ValueError("fluid sink weight must be >= 1, got %r"
                             % (weight,))
        self.memory.attach(app_id)
        endpoint = SinkEndpoint(self, key, app_id, absorber,
                                datapath=datapath)
        self._sinks.setdefault(key, []).append(endpoint)
        self.sink_ring_count += weight
        self._fluid_weights[key] = (
            self._fluid_weights.get(key, 0) + (weight - 1)
        )
        self.control.subscribe(key, self, datapath=datapath)
        return endpoint

    def set_fluid_weight(self, endpoint, old_weight, new_weight):
        """Re-weight a fluid endpoint (promotion/demotion moves
        subscribers between the fluid aggregate and real DES sinks)."""
        if new_weight < 1:
            raise ValueError("fluid sink weight must be >= 1, got %r"
                             % (new_weight,))
        delta = new_weight - old_weight
        self.sink_ring_count += delta
        self._fluid_weights[endpoint.key] = (
            self._fluid_weights.get(endpoint.key, 0) + delta
        )

    def unregister_fluid_sink(self, endpoint, weight):
        """Remove a fluid endpoint registered with ``weight``."""
        endpoints = self._sinks.get(endpoint.key)
        if endpoints and endpoint in endpoints:
            endpoints.remove(endpoint)
            self.sink_ring_count -= weight
            extra = self._fluid_weights.get(endpoint.key, 0) - (weight - 1)
            if extra:
                self._fluid_weights[endpoint.key] = extra
            else:
                self._fluid_weights.pop(endpoint.key, None)
            self.control.unsubscribe(endpoint.key, self,
                                     datapath=endpoint.datapath)
            if not endpoints:
                self._sinks.pop(endpoint.key, None)

    def unregister_sink(self, endpoint):
        endpoints = self._sinks.get(endpoint.key)
        if endpoints and endpoint in endpoints:
            endpoints.remove(endpoint)
            self.sink_ring_count -= 1
            self.control.unsubscribe(endpoint.key, self, datapath=endpoint.datapath)
            if not endpoints:
                self._sinks.pop(endpoint.key, None)

    def deliver_to_sink(self, endpoint, token, buffer):
        """Enqueue a delivery token; on ring overflow, drop and release."""
        delivery = Token(
            slot_id=buffer.slot_id,
            length=token.length,
            stream=token.stream,
            channel=token.channel,
            source_ip=token.source_ip or self.host.ip,
            buffer=buffer,
            meta=dict(token.meta),
        )
        self.memory.lend_to(endpoint.app_id, buffer)
        if not endpoint.ring.try_put(delivery):
            endpoint.dropped.value += 1
            self.memory.release_for(endpoint.app_id, buffer)

    # -- emit outcome bookkeeping ------------------------------------------------

    def mark_outcome(self, token, outcome):
        if token.emit_id is not None:
            self._outcomes[token.emit_id] = outcome

    def emit_outcome(self, emit_id):
        return self._outcomes.get(emit_id, "pending")

    # -- misc -----------------------------------------------------------------------

    def warn(self, message):
        self.warnings.append(message)
        if self.config.warn is not None:
            self.config.warn(message)

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
                "rx_packets": binding.datapath.rx_packets.value,
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

    def __init__(self, testbed, config=None, host_indices=None):
        self.testbed = testbed
        self.control = ControlPlane()
        self.runtimes = {}
        indices = host_indices if host_indices is not None else range(len(testbed.hosts))
        for index in indices:
            host = testbed.hosts[index]
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
