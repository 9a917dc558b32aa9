"""uTCP: a userspace reliable byte-stream transport (mTCP-lite).

Kernel-bypassing datapaths deliver raw datagrams; applications that need a
connection-oriented byte stream must bring their own transport (paper §3,
citing mTCP).  uTCP is that transport, implemented directly over a
datapath's send/receive queues:

* three-way handshake (SYN / SYN-ACK / ACK) and FIN teardown;
* cumulative ACKs with go-back-N retransmission and exponential backoff;
* receiver-advertised byte windows with a persist probe against the
  zero-window deadlock;
* in-order delivery with out-of-order segment buffering;
* MSS segmentation of arbitrarily sized writes.

Deliberate simplifications (documented, not hidden): no congestion control
(flow control only — edge links here are lossy, not congested), fixed
initial RTO, no TIME_WAIT, one connection per (stack, peer ip).
"""

import struct

from repro.core.errors import UtcpError
from repro.simnet import Counter, Get, Signal, Store, Timeout, Wait

#: seq, ack, advertised window (bytes), payload length, flags
_SEGMENT = struct.Struct("!IIIHB")
SEGMENT_HEADER_LEN = _SEGMENT.size

FLAG_SYN = 0x01
FLAG_ACK = 0x02
FLAG_FIN = 0x04

MSS = 1400                  # payload bytes per segment
DEFAULT_RECV_BUFFER = 64 * 1024
DEFAULT_RTO_NS = 200_000
MAX_RTO_NS = 5_000_000
PERSIST_NS = 400_000
#: SYN retransmissions before a connect aborts with UtcpError (the
#: backoff doubles per attempt, so the total wait is bounded too).
DEFAULT_MAX_SYN_RETRIES = 6

# connection states
CLOSED = "closed"
LISTEN = "listen"
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
FIN_WAIT = "fin-wait"


class Segment:
    """One uTCP segment (header + payload bytes)."""

    __slots__ = ("seq", "ack", "window", "flags", "payload")

    def __init__(self, seq, ack, window, flags, payload=b""):
        self.seq = seq
        self.ack = ack
        self.window = window
        self.flags = flags
        self.payload = payload

    def to_bytes(self):
        return _SEGMENT.pack(
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            min(self.window, 0xFFFFFFFF),
            len(self.payload),
            self.flags,
        ) + self.payload

    @classmethod
    def from_bytes(cls, data):
        if len(data) < SEGMENT_HEADER_LEN:
            raise ValueError("truncated uTCP segment")
        seq, ack, window, length, flags = _SEGMENT.unpack(bytes(data[:SEGMENT_HEADER_LEN]))
        payload = bytes(data[SEGMENT_HEADER_LEN : SEGMENT_HEADER_LEN + length])
        if len(payload) != length:
            raise ValueError("uTCP payload shorter than its length field")
        return cls(seq, ack, window, flags, payload)

    def describe(self):
        names = []
        if self.flags & FLAG_SYN:
            names.append("SYN")
        if self.flags & FLAG_ACK:
            names.append("ACK")
        if self.flags & FLAG_FIN:
            names.append("FIN")
        return "%s seq=%d ack=%d win=%d len=%d" % (
            "|".join(names) or "DATA", self.seq, self.ack, self.window, len(self.payload),
        )


class UtcpStack:
    """One uTCP endpoint bound to a datapath port on one host."""

    def __init__(self, datapath, port, recv_buffer=DEFAULT_RECV_BUFFER, rto_ns=DEFAULT_RTO_NS,
                 max_syn_retries=DEFAULT_MAX_SYN_RETRIES):
        self.datapath = datapath
        self.host = datapath.host
        self.sim = datapath.sim
        self.port = port
        self.recv_buffer = recv_buffer
        self.rto_ns = rto_ns
        self.max_syn_retries = max_syn_retries
        self.queue = datapath.open_port(port)
        self.connections = {}          # peer ip -> UtcpConnection
        self._accept_queue = Store(self.sim, name="utcp.accept")
        self._listening = False
        self.segments_sent = Counter("utcp.segments_sent")
        self.retransmits = Counter("utcp.retransmits")
        self.sim.process(self._rx_loop(), name="utcp.rx.%s" % self.host.name)

    # -- public API ----------------------------------------------------------

    def listen(self):
        """Start accepting incoming connections."""
        self._listening = True
        return self

    def accept(self):
        """Wait for the next established inbound connection (generator)."""
        connection = yield Get(self._accept_queue)
        return connection

    def connect(self, peer_ip):
        """Open a connection to ``peer_ip`` (generator)."""
        if peer_ip in self.connections:
            raise RuntimeError("already connected to %s" % peer_ip)
        connection = UtcpConnection(self, peer_ip, initiator=True)
        self.connections[peer_ip] = connection
        yield from connection._do_connect()
        return connection

    # -- internals -------------------------------------------------------------

    def _rx_loop(self):
        from repro.datapaths import DpdkDatapath

        while True:
            packets = yield from self.datapath.recv_burst(self.queue)
            for packet in packets:
                try:
                    segment = Segment.from_bytes(packet.payload_bytes())
                except ValueError:
                    DpdkDatapath.release_rx(packet)
                    continue
                self._demux(packet.src_ip, segment)
                DpdkDatapath.release_rx(packet)

    def _demux(self, peer_ip, segment):
        connection = self.connections.get(peer_ip)
        if connection is None:
            if self._listening and segment.flags & FLAG_SYN and not segment.flags & FLAG_ACK:
                connection = UtcpConnection(self, peer_ip, initiator=False)
                self.connections[peer_ip] = connection
            else:
                return  # no listener: drop (a full TCP would RST)
        connection._on_segment(segment)

    def _transmit(self, peer_ip, segment):
        """Fire-and-forget segment transmission (spawns a send process)."""
        from repro.netstack.packet import Packet

        packet = Packet(self.host.ip, peer_ip, self.port, self.port,
                        payload=segment.to_bytes(), seq=next(self.sim.ids))
        self.segments_sent.value += 1

        def op():
            yield from self.datapath.send(packet)

        self.sim.process(op(), name="utcp.tx")


class UtcpConnection:
    """One established (or in-progress) byte-stream connection."""

    def __init__(self, stack, peer_ip, initiator):
        self.stack = stack
        self.sim = stack.sim
        self.peer_ip = peer_ip
        self.state = CLOSED if initiator else LISTEN
        # send side
        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_wnd = DEFAULT_RECV_BUFFER
        self._unacked = []            # [(seq, payload)] in order
        self._pending = bytearray()   # written, not yet segmented
        self._send_signal = None
        self._rto_handle = None
        self._persist_handle = None
        self._backoff = 1
        self._syn_retries = 0
        # receive side
        self.rcv_nxt = 0
        self._recv_buffer = bytearray()
        self._out_of_order = {}
        self._recv_signal = None
        self._fin_received = False
        self._fin_sent = False
        self._connected = Signal(self.sim)

    # -- connection setup ---------------------------------------------------------

    def _do_connect(self):
        self.state = SYN_SENT
        self._send_control(FLAG_SYN)
        self._arm_rto()
        yield Wait(self._connected)
        if self.state is not ESTABLISHED:
            raise UtcpError(
                "uTCP connect to %s failed after %d SYN retransmissions"
                % (self.peer_ip, self._syn_retries)
            )

    # -- public byte-stream API ------------------------------------------------------

    def send(self, data):
        """Queue ``data`` and transmit as the window allows (generator)."""
        if self.state not in (ESTABLISHED, SYN_RCVD, SYN_SENT):
            raise RuntimeError("send on %s connection" % self.state)
        self._pending.extend(data)
        yield from self._pump_send()

    def recv(self, max_bytes):
        """Receive up to ``max_bytes`` (generator); b"" signals EOF."""
        while not self._recv_buffer:
            if self._fin_received:
                return b""
            self._recv_signal = Signal(self.sim)
            yield Wait(self._recv_signal)
        take = min(max_bytes, len(self._recv_buffer))
        data = bytes(self._recv_buffer[:take])
        del self._recv_buffer[:take]
        if take:
            # window update: tell the peer space has freed up
            self._send_control(FLAG_ACK)
        return data

    def recv_exactly(self, nbytes):
        """Receive exactly ``nbytes`` or raise on EOF (generator)."""
        chunks = []
        remaining = nbytes
        while remaining:
            chunk = yield from self.recv(remaining)
            if not chunk:
                raise UtcpError("EOF after %d/%d bytes" % (nbytes - remaining, nbytes))
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def drain(self):
        """Wait until everything written has been acknowledged (generator)."""
        while self._pending or self._unacked:
            self._send_signal = Signal(self.sim)
            yield Wait(self._send_signal)

    def close(self):
        """Flush, send FIN, and wait for its acknowledgement (generator)."""
        yield from self.drain()
        if not self._fin_sent:
            self._fin_sent = True
            self._send_control(FLAG_FIN)
            self._arm_rto()
            self.state = FIN_WAIT
        while self._fin_sent and self._unacked_fin():
            self._send_signal = Signal(self.sim)
            yield Wait(self._send_signal)
        if self._fin_received:
            self.state = CLOSED

    # -- send machinery ------------------------------------------------------------------

    def _window_room(self):
        in_flight = self.snd_nxt - self.snd_una
        return max(0, self.snd_wnd - in_flight)

    def _pump_send(self):
        while self._pending:
            room = self._window_room()
            if room <= 0:
                self._arm_persist()
                self._send_signal = Signal(self.sim)
                yield Wait(self._send_signal)
                continue
            size = min(MSS, room, len(self._pending))
            payload = bytes(self._pending[:size])
            del self._pending[:size]
            segment = Segment(
                self.snd_nxt, self.rcv_nxt, self._advertised_window(),
                FLAG_ACK, payload,
            )
            self._unacked.append((self.snd_nxt, payload))
            self.snd_nxt += size
            self.stack._transmit(self.peer_ip, segment)
            self._arm_rto()

    def _unacked_fin(self):
        # FIN occupies one sequence number past the data
        return self.state is FIN_WAIT and self.snd_una < self.snd_nxt

    def _advertised_window(self):
        return max(0, self.stack.recv_buffer - len(self._recv_buffer))

    def _send_control(self, flags, seq=None):
        if self.state in (ESTABLISHED, FIN_WAIT):
            flags |= FLAG_ACK
        segment = Segment(
            self.snd_nxt if seq is None else seq,
            self.rcv_nxt,
            self._advertised_window(),
            flags,
        )
        # SYN/FIN consume a sequence number — but only on first transmission
        # (an explicit seq means a retransmission)
        if seq is None and flags & (FLAG_SYN | FLAG_FIN):
            self.snd_nxt += 1
        self.stack._transmit(self.peer_ip, segment)

    # -- timers --------------------------------------------------------------------------

    def _arm_rto(self):
        if self._rto_handle is not None:
            self._rto_handle.cancel()
        self._rto_handle = self.sim.schedule_cancellable(
            self.stack.rto_ns * self._backoff, self._on_rto
        )

    def _cancel_rto(self):
        if self._rto_handle is not None:
            self._rto_handle.cancel()
            self._rto_handle = None

    def _on_rto(self):
        self._rto_handle = None
        if self.state is SYN_SENT:
            self._syn_retries += 1
            if self._syn_retries > self.stack.max_syn_retries:
                # connect abort: unblock the waiter; _do_connect raises
                # the typed error (the peer is gone or the path is dead)
                self.state = CLOSED
                self.stack.connections.pop(self.peer_ip, None)
                if not self._connected.fired:
                    self._connected.succeed(False)
                return
            self.stack.retransmits.value += 1
            self._send_control(FLAG_SYN, seq=self.snd_una)
            self.snd_nxt = self.snd_una + 1
        elif self._unacked:
            # go-back-N: retransmit everything outstanding
            for seq, payload in self._unacked:
                self.stack.retransmits.value += 1
                self.stack._transmit(
                    self.peer_ip,
                    Segment(seq, self.rcv_nxt, self._advertised_window(), FLAG_ACK, payload),
                )
        elif self._unacked_fin():
            self.stack.retransmits.value += 1
            self._send_control(FLAG_FIN, seq=self.snd_nxt - 1)
        else:
            return
        self._backoff = min(self._backoff * 2, MAX_RTO_NS // self.stack.rto_ns or 1)
        self._arm_rto()

    def _arm_persist(self):
        if self._persist_handle is None:
            self._persist_handle = self.sim.schedule_cancellable(PERSIST_NS, self._on_persist)

    def _on_persist(self):
        self._persist_handle = None
        if self._window_room() <= 0 and (self._pending or self._unacked):
            # zero-window probe: a bare ACK soliciting a window update
            self._send_control(FLAG_ACK)
            self._arm_persist()

    # -- segment handling ---------------------------------------------------------------------

    def _on_segment(self, segment):
        if segment.flags & FLAG_SYN:
            self._on_syn(segment)
            return
        if segment.flags & FLAG_ACK:
            self._on_ack(segment)
        if segment.payload:
            self._on_data(segment)
        if segment.flags & FLAG_FIN:
            self._on_fin(segment)

    def _on_syn(self, segment):
        if segment.flags & FLAG_ACK:
            # SYN-ACK for our SYN
            if self.state is SYN_SENT:
                self.state = ESTABLISHED
                self.snd_una = self.snd_nxt
                self.rcv_nxt = segment.seq + 1
                self.snd_wnd = segment.window
                self._cancel_rto()
                self._backoff = 1
                self._send_control(FLAG_ACK)
                self._connected.succeed(True)
        else:
            # inbound SYN (new or retransmitted)
            self.rcv_nxt = segment.seq + 1
            self.snd_wnd = segment.window
            if self.state in (LISTEN, SYN_RCVD):
                first = self.state is LISTEN
                self.state = SYN_RCVD
                self._send_control(FLAG_SYN | FLAG_ACK, seq=0 if first else self.snd_una)
                if first:
                    self.snd_una = 0
                    self.snd_nxt = 1
                else:
                    self.snd_nxt = self.snd_una + 1

    def _on_ack(self, segment):
        if self.state is SYN_RCVD and segment.ack >= self.snd_nxt:
            self.state = ESTABLISHED
            self.snd_una = segment.ack
            self.stack._accept_queue.try_put(self)
        self.snd_wnd = segment.window
        if segment.ack > self.snd_una:
            self.snd_una = segment.ack
            self._unacked = [
                (seq, payload)
                for seq, payload in self._unacked
                if seq + len(payload) > self.snd_una
            ]
            self._backoff = 1
            if self._unacked or self.state is FIN_WAIT and self._unacked_fin():
                self._arm_rto()
            else:
                self._cancel_rto()
        self._wake_sender()

    def _on_data(self, segment):
        if segment.seq == self.rcv_nxt:
            self._recv_buffer.extend(segment.payload)
            self.rcv_nxt += len(segment.payload)
            while self.rcv_nxt in self._out_of_order:
                payload = self._out_of_order.pop(self.rcv_nxt)
                self._recv_buffer.extend(payload)
                self.rcv_nxt += len(payload)
            if self._recv_signal is not None and not self._recv_signal.fired:
                self._recv_signal.succeed()
                self._recv_signal = None
        elif segment.seq > self.rcv_nxt:
            self._out_of_order[segment.seq] = segment.payload
        # cumulative (possibly duplicate) ACK either way
        self._send_control(FLAG_ACK)

    def _on_fin(self, segment):
        if segment.seq == self.rcv_nxt:
            self.rcv_nxt += 1
            self._fin_received = True
            if self._recv_signal is not None and not self._recv_signal.fired:
                self._recv_signal.succeed()
                self._recv_signal = None
            self._send_control(FLAG_ACK)
            if self._fin_sent and not self._unacked_fin():
                self.state = CLOSED
        elif segment.seq < self.rcv_nxt:
            # retransmitted FIN: our acknowledgement was lost — resend it
            self._send_control(FLAG_ACK)

    def _wake_sender(self):
        if self._send_signal is not None and not self._send_signal.fired:
            self._send_signal.succeed()
            self._send_signal = None
