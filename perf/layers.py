"""Per-layer attribution of one traced repetition, measured from outside.

Three instruments, all installed by the benchmark around public classes
of ``repro``; nothing inside the program changes:

* cProfile over the timed phase.  Each function is charged to the layer
  (the ``repro`` package) whose file defines it, so a layer's self time
  is its spans' time minus the time of the calls they make.  Code outside
  ``repro`` is ``stdlib`` (standard library and builtins, including the C
  calls the layers make); ``repro`` packages without a layer of their own
  and the benchmark's own glue are ``other``.
* A census of the objects that hold the layers' counters (simulators,
  runtimes, NICs, switches, fluid aggregates, partitions), taken by
  wrapping their constructors for the duration of the repetition.
* Wrappers on ``PartitionRunner.flush``/``advance`` that count the
  conservative-sync traffic of a partitioned run.
"""

import os

LAYERS = ("simnet", "core", "hw", "netstack", "datapaths", "fluid", "dist",
          "loadgen", "scenario", "faults", "obs", "stdlib", "other")

_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_RESUME_FILE = os.path.join("simnet", "process.py")


class Census:
    """Counter-holding objects built while the census is entered."""

    def __init__(self):
        from repro.core.runtime import InsaneRuntime
        from repro.dist.sync import PartitionRunner
        from repro.fluid.aggregate import FluidAggregate
        from repro.hw.nic import Nic
        from repro.hw.switch import Switch
        from repro.simnet.engine import Simulator

        self.classes = {"sims": Simulator, "runtimes": InsaneRuntime,
                        "nics": Nic, "switches": Switch,
                        "aggregates": FluidAggregate,
                        "partitions": PartitionRunner}
        self.found = {key: [] for key in self.classes}
        self.sync = {"messages": 0, "null": 0, "frames": 0, "advances": 0}
        self._originals = []

    def __enter__(self):
        for key, cls in self.classes.items():
            self._wrap(cls, "__init__", _registering(self.found[key]))
        runner = self.classes["partitions"]
        self._wrap(runner, "flush", _counting_flush(self.sync))
        self._wrap(runner, "advance", _counting_advance(self.sync))
        return self

    def __exit__(self, *exc_info):
        for cls, name, original in reversed(self._originals):
            setattr(cls, name, original)
        self._originals = []
        return False

    def _wrap(self, cls, name, make_wrapper):
        original = vars(cls)[name]
        self._originals.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def totals(self):
        """Summed layer counters of every object found so far."""
        sims = [sim.stats() for sim in self.found["sims"]]
        runtimes = [runtime.stats() for runtime in self.found["runtimes"]]
        bindings = [binding for stats in runtimes
                    for binding in stats["bindings"].values()]
        nics, switches = self.found["nics"], self.found["switches"]
        aggregates = self.found["aggregates"]
        return {
            "events": sum(stats["events_executed"] for stats in sims),
            "purged": sum(stats["cancelled_purged"] for stats in sims),
            "peak_heap": max((stats["peak_heap"] for stats in sims),
                             default=0),
            "tx_packets": sum(binding["tx_packets"] for binding in bindings),
            "drops": sum(binding[key] for binding in bindings
                         for key in ("pool_drops", "no_sink_drops",
                                     "unknown_drops", "sched_drops")),
            "pool_exhaustions": sum(stats["memory"]["exhaustions"]
                                    for stats in runtimes),
            "tx_frames": sum(nic.tx_frames.value for nic in nics),
            "rx_dropped": sum(nic.rx_dropped.value for nic in nics),
            "switch_forwarded": sum(switch.forwarded.value
                                    for switch in switches),
            "switch_dropped": sum(switch.dropped.value for switch in switches),
            "drain_ticks": sum(agg.drain_ticks for agg in aggregates),
            "cold_delivered": sum(agg.delivered for agg in aggregates),
            "partition_events": [runner.sim.stats()["events_executed"]
                                 for runner in self.found["partitions"]],
        }


def _registering(found):
    def make(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            found.append(self)
        return __init__
    return make


def _counting_flush(sync):
    def make(original):
        def flush(self, send):
            def counted(peer, message):
                frames = len(message[1])
                sync["messages"] += 1
                sync["frames"] += frames
                if not frames:
                    sync["null"] += 1
                send(peer, message)
            return original(self, counted)
        return flush
    return make


def _counting_advance(sync):
    def make(original):
        def advance(self):
            sync["advances"] += 1
            return original(self)
        return advance
    return make


def layer_of(path, repro_dir):
    """The layer a profiled function's source file belongs to."""
    if path.startswith(repro_dir):
        package, sep, _rest = path[len(repro_dir):].partition(os.sep)
        return package if sep and package in LAYERS else "other"
    if path.startswith(_PERF_DIR):
        return "other"
    return "stdlib"


def layer_metrics(stats, before, after, sync, ops):
    """The per-layer metrics one traced repetition measures by itself.

    ``stats`` is the :class:`pstats.Stats` of the timed phase, ``before``
    and ``after`` are :meth:`Census.totals` around it, ``sync`` the
    census's sync counters and ``ops`` the completed operations.
    """
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    ops = max(ops, 1)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    resumes = 0
    for (path, _line, func), entry in stats.stats.items():
        ncalls, tottime = entry[1], entry[2]
        layer = layer_of(path, repro_dir)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if func == "_resume" and path.endswith(_RESUME_FILE):
            resumes += ncalls
    total_s = sum(self_s.values()) or 1.0
    # work done during set-up (testbeds, envelope calibration) is not
    # the timed phase's
    delta = {key: after[key] - before[key] for key in after
             if key not in ("peak_heap", "partition_events")}
    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_share"] = self_s[layer] / total_s
        metrics[layer + ".calls_per_op"] = calls[layer] / ops
    partition_events = after["partition_events"]
    messages = sync["messages"]
    metrics.update({
        "simnet.events_per_op": delta["events"] / ops,
        "simnet.resumes_per_op": resumes / ops,
        "simnet.purged_per_op": delta["purged"] / ops,
        "simnet.peak_heap": after["peak_heap"],
        "core.tx_packets_per_op": delta["tx_packets"] / ops,
        "core.drops": delta["drops"],
        "core.pool_exhaustions": delta["pool_exhaustions"],
        "hw.tx_frames_per_op": delta["tx_frames"] / ops,
        "hw.rx_dropped": delta["rx_dropped"],
        "hw.switch_forwarded_per_op": delta["switch_forwarded"] / ops,
        "hw.switch_dropped": delta["switch_dropped"],
        "fluid.drain_ticks": delta["drain_ticks"],
        "fluid.cold_share": (delta["cold_delivered"]
                             / (delta["cold_delivered"] + ops)),
        "dist.sync_msgs_per_frame": (messages / sync["frames"]
                                     if sync["frames"] else 0.0),
        "dist.null_share": sync["null"] / messages if messages else 0.0,
        "dist.imbalance": (max(partition_events) * len(partition_events)
                           / sum(partition_events)
                           if sum(partition_events) else 0.0),
        "dist.advance_calls": sync["advances"],
    })
    return metrics
