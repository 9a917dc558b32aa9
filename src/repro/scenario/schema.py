"""Scenario-document schema: parse, validate, normalize — loudly.

A scenario document (YAML or JSON) describes one verifiable experiment::

    scenario: streaming-dpdk-lossburst
    description: paced DPDK stream through a 20% loss burst
    seed: 7
    topology:
      profile: local          # local | cloud
      hosts: 2
      impairments:            # steady-state per-path impairments
        - {link: 0, loss_rate: 0.01}
    workload:
      kind: streaming         # streaming | pingpong | bulk | fanout | baseline
      messages: 400
      size: 1KB
      interval: 2us
      qos: {acceleration: fast}
      datapath: dpdk          # optional hard pin
    faults:
      - {kind: loss_burst, at: 100us, for: 200us, rate: 0.2}
      - {profile: wifi_flaky} # a recorded impairment profile, replayed
    slo:
      p99_latency_max: 80us
      delivery_ratio_min: 0.9

:func:`validate_scenario` normalizes every field to canonical JSON-native
values (durations to float ns, sizes to byte counts, QoS to enum values,
recorded profiles expanded to concrete fault records) so the normalized
spec is *the* cell payload the sweep executor shards and digests.  Every
validation failure raises :class:`~repro.core.errors.ScenarioError`
citing the precise document path (``faults[2].kind``) and, when known,
the source file.
"""

import json
import re

from repro.core.errors import FaultInjectionError, QosValidationError, ScenarioError
from repro.core.qos import QosPolicy
from repro.faults.injectors import parse_ns
from repro.faults.schedule import INJECTOR_KINDS, _injector_from_record

#: Version of the scenario-document layout; stored in every normalized
#: spec so compiled artifacts can be rejected loudly on layout changes.
SCENARIO_SCHEMA = 1

#: datapath names a workload may pin.
DATAPATHS = ("udp", "xdp", "dpdk", "rdma")

#: topology profiles (the paper's two testbeds).
TOPOLOGY_PROFILES = ("local", "cloud")

#: workload kinds, one per service category (paper §2 traffic classes),
#: plus the closed-loop interactive model of ``repro.loadgen`` and the
#: frame-level city workload of generated topologies (``repro.dist``).
WORKLOAD_KINDS = ("streaming", "pingpong", "bulk", "fanout", "baseline",
                  "closed_loop", "city")

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")

_SIZE_UNITS = (("kib", 1024), ("mib", 1024 ** 2), ("kb", 1024),
               ("mb", 1024 ** 2), ("b", 1))


def parse_size(value, path, source=None):
    """Normalize a payload size to an int byte count.

    Accepts plain ints and ``"64B"``/``"1KB"``/``"4KiB"``-style strings
    (K and Ki are both 1024 — the paper's payload axes are powers of
    two).
    """
    if isinstance(value, bool):
        raise ScenarioError("size must be bytes or a '1KB'-style string, "
                            "got %r" % (value,), path=path, source=source)
    if isinstance(value, int):
        size = value
    elif isinstance(value, str):
        text = value.strip().lower().replace("_", "").replace(" ", "")
        for suffix, scale in sorted(_SIZE_UNITS, key=lambda u: -len(u[0])):
            if text.endswith(suffix):
                try:
                    size = int(text[: -len(suffix)]) * scale
                except ValueError:
                    raise ScenarioError(
                        "bad size %r: the part before %r must be an integer"
                        % (value, suffix.upper()), path=path, source=source
                    ) from None
                break
        else:
            try:
                size = int(text)
            except ValueError:
                raise ScenarioError(
                    "bad size %r: use bytes or a suffix of B/KB/KiB/MB/MiB "
                    "(e.g. '1KB')" % (value,), path=path, source=source
                ) from None
    else:
        raise ScenarioError("size must be bytes or a '1KB'-style string, "
                            "got %s" % type(value).__name__,
                            path=path, source=source)
    if size <= 0:
        raise ScenarioError("size must be > 0 bytes, got %d" % size,
                            path=path, source=source)
    return size


def parse_duration(value, path, source=None, allow_none=False):
    """Normalize a duration to float ns, citing ``path`` on failure."""
    if value is None and allow_none:
        return None
    try:
        ns = parse_ns(value, "duration")
    except FaultInjectionError as exc:
        raise ScenarioError(str(exc), path=path, source=source) from None
    if ns is None or ns < 0:
        raise ScenarioError("duration must be >= 0, got %r" % (value,),
                            path=path, source=source)
    return ns


def _require(mapping, key, types, path, source, default=None, required=False):
    value = mapping.get(key, default)
    if value is None and not required:
        return default
    if value is None and required:
        raise ScenarioError("missing required field %r" % key,
                            path=path, source=source)
    if types is not None and not isinstance(value, types):
        if isinstance(types, tuple):
            expected = "/".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise ScenarioError(
            "%s must be %s, got %s %r"
            % (key, expected, type(value).__name__, value),
            path="%s.%s" % (path, key) if path else key, source=source,
        )
    return value


def _reject_unknown(mapping, known, path, source):
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        where = "%s.%s" % (path, unknown[0]) if path else unknown[0]
        raise ScenarioError(
            "unknown field %r (known fields: %s)"
            % (unknown[0], ", ".join(sorted(known))), path=where,
            source=source,
        )


def _check_int(value, path, source, lo=1, what="value"):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError("%s must be an integer, got %r" % (what, value),
                            path=path, source=source)
    if value < lo:
        raise ScenarioError("%s must be >= %d, got %d" % (what, lo, value),
                            path=path, source=source)
    return value


# -- section validators --------------------------------------------------------

def _validate_generated_topology(section, source):
    """A generator-backed topology: ``kind: generated`` plus a preset
    name or an inline city spec (see :mod:`repro.hw.generate`), and the
    partition count :mod:`repro.dist` executes it across."""
    _reject_unknown(section, ("kind", "preset", "spec", "partitions"),
                    "topology", source)
    kind = section.get("kind", "generated")
    if kind != "generated":
        raise ScenarioError(
            "unknown topology kind %r (only 'generated' topologies carry "
            "a kind; testbed topologies use profile/hosts)" % (kind,),
            path="topology.kind", source=source,
        )
    preset = section.get("preset")
    raw = section.get("spec")
    if (preset is None) == (raw is None):
        raise ScenarioError(
            "a generated topology names a preset OR gives an inline spec "
            "(exactly one of topology.preset / topology.spec)",
            path="topology", source=source,
        )
    if preset is not None and not isinstance(preset, str):
        raise ScenarioError("preset must be a preset name string, got %r"
                            % (preset,), path="topology.preset",
                            source=source)
    if raw is not None:
        if not isinstance(raw, dict):
            raise ScenarioError("spec must be a mapping of generator "
                                "parameters", path="topology.spec",
                                source=source)
        if "seed" in raw:
            raise ScenarioError(
                "the scenario's top-level seed governs generation — drop "
                "topology.spec.seed", path="topology.spec.seed",
                source=source,
            )
    partitions = _check_int(section.get("partitions", 1),
                            "topology.partitions", source, lo=1,
                            what="partitions")
    from repro.core.errors import TopologyError
    from repro.hw.generate import resolve_topology

    try:
        resolved = resolve_topology(preset if preset is not None else raw)
    except TopologyError as exc:
        raise ScenarioError(str(exc), path="topology", source=source) \
            from None
    if partitions > resolved["regions"]:
        raise ScenarioError(
            "cannot run %d region(s) across %d partitions — a partition "
            "owns at least one whole region"
            % (resolved["regions"], partitions),
            path="topology.partitions", source=source,
        )
    # the stored spec is seed-less: the scenario's top-level seed is
    # injected at compile time, and a seed-free spec re-validates
    # unchanged (the seed rejection above would otherwise trip on our
    # own normalized output inside run_scenario_cell).
    resolved = {key: value for key, value in resolved.items()
                if key != "seed"}
    return {"kind": "generated", "spec": resolved, "partitions": partitions}


def _validate_topology(section, source):
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ScenarioError("topology must be a mapping, got %s"
                            % type(section).__name__,
                            path="topology", source=source)
    if "kind" in section or "preset" in section or "spec" in section:
        return _validate_generated_topology(section, source)
    _reject_unknown(section, ("profile", "hosts", "impairments"),
                    "topology", source)
    profile = section.get("profile", "local")
    if profile not in TOPOLOGY_PROFILES:
        raise ScenarioError(
            "unknown topology profile %r (choose from %s)"
            % (profile, ", ".join(TOPOLOGY_PROFILES)),
            path="topology.profile", source=source,
        )
    hosts = _check_int(section.get("hosts", 2), "topology.hosts", source,
                       lo=2, what="hosts")
    impairments = []
    raw = section.get("impairments", [])
    if not isinstance(raw, list):
        raise ScenarioError("impairments must be a list",
                            path="topology.impairments", source=source)
    for index, entry in enumerate(raw):
        path = "topology.impairments[%d]" % index
        if not isinstance(entry, dict):
            raise ScenarioError("an impairment must be a mapping",
                                path=path, source=source)
        _reject_unknown(entry, ("link", "loss_rate"), path, source)
        link = _check_int(entry.get("link", 0), path + ".link", source,
                          lo=0, what="link index")
        loss = entry.get("loss_rate")
        if not isinstance(loss, (int, float)) or isinstance(loss, bool) \
                or not 0.0 < float(loss) <= 1.0:
            raise ScenarioError(
                "loss_rate must be a number in (0, 1], got %r" % (loss,),
                path=path + ".loss_rate", source=source,
            )
        impairments.append({"link": link, "loss_rate": float(loss)})
    return {"profile": profile, "hosts": hosts, "impairments": impairments}


def _validate_qos(value, path, source):
    if value is None:
        value = {"acceleration": "fast"}
    if not isinstance(value, dict):
        raise ScenarioError("qos must be a mapping of policy options",
                            path=path, source=source)
    try:
        policy = QosPolicy.from_dict(value)
    except QosValidationError as exc:
        raise ScenarioError(str(exc), path=path, source=source) from None
    return policy.to_dict()


_FIDELITY_FIELDS = ("hot_fraction", "promote_threshold", "drain_interval")


def _validate_fidelity(value, path, source):
    """The hybrid fan-out's fidelity split (repro.fluid).

    ``hot_fraction`` of the subscribers stay packet-accurate;
    ``promote_threshold`` (messages/s) arms the promotion controller;
    ``drain_interval`` overrides the fluid aggregate's drain period.
    """
    if not isinstance(value, dict):
        raise ScenarioError("fidelity must be a mapping",
                            path=path, source=source)
    _reject_unknown(value, _FIDELITY_FIELDS, "workload.fidelity", source)
    out = {}
    if "hot_fraction" in value:
        fraction = value["hot_fraction"]
        if isinstance(fraction, bool) or \
                not isinstance(fraction, (int, float)) or \
                not 0.0 <= float(fraction) <= 1.0:
            raise ScenarioError(
                "hot_fraction (the packet-accurate share of the "
                "subscribers) must be a number in [0, 1], got %r"
                % (fraction,),
                path="%s.hot_fraction" % path, source=source,
            )
        out["hot_fraction"] = float(fraction)
    if "promote_threshold" in value:
        threshold = value["promote_threshold"]
        if isinstance(threshold, bool) or \
                not isinstance(threshold, (int, float)) or \
                float(threshold) <= 0.0:
            raise ScenarioError(
                "promote_threshold (messages/s above which cold "
                "subscribers promote to packet-accurate DES) must be a "
                "number > 0, got %r" % (threshold,),
                path="%s.promote_threshold" % path, source=source,
            )
        out["promote_threshold"] = float(threshold)
    if "drain_interval" in value:
        out["drain_interval"] = parse_duration(
            value["drain_interval"], "%s.drain_interval" % path, source)
        if out["drain_interval"] <= 0:
            raise ScenarioError(
                "drain_interval must be > 0 (it paces the fluid "
                "aggregate's single periodic event)",
                path="%s.drain_interval" % path, source=source,
            )
    return out


_WORKLOAD_FIELDS = {
    "streaming": ("kind", "messages", "size", "interval", "qos", "datapath"),
    "pingpong": ("kind", "rounds", "size", "qos", "datapath"),
    "bulk": ("kind", "messages", "size", "interval", "window", "qos"),
    "fanout": ("kind", "messages", "size", "sinks", "subscribers",
               "fidelity", "interval", "qos", "datapath"),
    "baseline": ("kind", "system", "baseline", "rounds", "size"),
    "closed_loop": ("kind", "clients", "think", "think_dist", "size",
                    "outstanding", "warmup", "window", "windows",
                    "cooldown", "epsilon", "qos", "datapath"),
    # generation parameters (messages, size, interval, classes) live in
    # the generated topology's spec; the workload only pins a datapath
    "city": ("kind", "datapath"),
}

#: systems a baseline workload may name (bench harness Fig. 7 set).
BASELINE_SYSTEMS = (
    "udp_blocking", "udp_nonblocking", "catnap", "insane_slow",
    "catnip", "insane_fast", "raw_dpdk",
)


def _validate_clients(value, source):
    """``clients``: one count (single point) or a strictly-increasing
    list of counts (an in-scenario capacity sweep)."""
    path = "workload.clients"
    if not isinstance(value, list):
        return _check_int(value, path, source, lo=1, what="clients")
    if len(value) < 2:
        raise ScenarioError(
            "a clients list is a capacity sweep and needs at least 2 "
            "counts (use a plain integer for a single point)",
            path=path, source=source,
        )
    counts = [
        _check_int(entry, "%s[%d]" % (path, index), source, lo=1,
                   what="clients")
        for index, entry in enumerate(value)
    ]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ScenarioError(
            "a clients sweep must be strictly increasing, got %r" % (value,),
            path=path, source=source,
        )
    return counts


def _validate_workload(section, source):
    if not isinstance(section, dict):
        raise ScenarioError("workload must be a mapping",
                            path="workload", source=source)
    kind = section.get("kind")
    if kind not in WORKLOAD_KINDS:
        raise ScenarioError(
            "unknown workload kind %r (choose from %s)"
            % (kind, ", ".join(WORKLOAD_KINDS)),
            path="workload.kind", source=source,
        )
    if kind == "closed_loop" and "messages" in section:
        # checked before the unknown-field sweep so the spec error is the
        # specific one: a closed-loop run is time-bounded, never
        # count-bounded — the two terminations contradict each other
        raise ScenarioError(
            "a closed_loop workload is bounded by its measurement windows, "
            "not a message count — drop 'messages' (clients cycle until "
            "warmup + windows + cooldown elapse)",
            path="workload.messages", source=source,
        )
    _reject_unknown(section, _WORKLOAD_FIELDS[kind], "workload", source)
    out = {"kind": kind}

    def size_field(default):
        out["size"] = parse_size(section.get("size", default),
                                 "workload.size", source)

    def count_field(name, default, lo=1):
        out[name] = _check_int(section.get(name, default),
                               "workload.%s" % name, source, lo=lo,
                               what=name)

    if kind == "streaming":
        count_field("messages", 400)
        size_field(1024)
        out["interval"] = parse_duration(section.get("interval", 2000.0),
                                         "workload.interval", source)
        out["qos"] = _validate_qos(section.get("qos"), "workload.qos", source)
    elif kind == "pingpong":
        count_field("rounds", 300)
        size_field(64)
        out["qos"] = _validate_qos(section.get("qos"), "workload.qos", source)
    elif kind == "bulk":
        count_field("messages", 60)
        size_field(512)
        out["interval"] = parse_duration(section.get("interval", 20_000.0),
                                         "workload.interval", source)
        count_field("window", 8)
        out["qos"] = _validate_qos(section.get("qos"), "workload.qos", source)
    elif kind == "fanout":
        hybrid = "subscribers" in section
        if hybrid and "sinks" in section:
            raise ScenarioError(
                "a fanout workload takes either 'sinks' (every sink "
                "packet-accurate) or 'subscribers' (hybrid fidelity: a hot "
                "fraction packet-accurate, the cold tail fluid) — not both",
                path="workload.subscribers", source=source,
            )
        if not hybrid:
            for field in ("fidelity", "interval"):
                if field in section:
                    raise ScenarioError(
                        "workload.%s requires the hybrid fan-out mode — "
                        "set 'subscribers' instead of 'sinks'" % field,
                        path="workload.%s" % field, source=source,
                    )
        # hybrid runs pace the publisher per the calibrated envelope, so
        # their natural message count is far below the classic default
        count_field("messages", 64 if hybrid else 300)
        size_field(1024)
        if hybrid:
            count_field("subscribers", None)
            if "interval" in section:
                out["interval"] = parse_duration(
                    section["interval"], "workload.interval", source)
            if "fidelity" in section:
                out["fidelity"] = _validate_fidelity(
                    section["fidelity"], "workload.fidelity", source)
        else:
            count_field("sinks", 4)
        out["qos"] = _validate_qos(section.get("qos"), "workload.qos", source)
        if hybrid and out["qos"]["time_sensitivity"] == "time-sensitive" \
                and out.get("fidelity", {}).get("hot_fraction") != 1.0:
            raise ScenarioError(
                "time-sensitive flows are always packet-accurate: the fluid "
                "tier aggregates away per-packet TSN guarantees — use "
                "'sinks', or set fidelity.hot_fraction to 1.0",
                path="workload.qos.time_sensitivity", source=source,
            )
    elif kind == "closed_loop":
        out["clients"] = _validate_clients(section.get("clients", 4), source)
        out["think"] = parse_duration(section.get("think", 10_000.0),
                                      "workload.think", source)
        think_dist = section.get("think_dist", "exponential")
        if think_dist not in ("fixed", "exponential"):
            raise ScenarioError(
                "unknown think_dist %r (choose from fixed, exponential)"
                % (think_dist,), path="workload.think_dist", source=source,
            )
        out["think_dist"] = think_dist
        size_field(64)
        count_field("outstanding", 1)
        out["warmup"] = parse_duration(section.get("warmup", 400_000.0),
                                       "workload.warmup", source)
        out["window"] = parse_duration(
            section.get("window", 2_000_000.0), "workload.window", source)
        if out["window"] <= 0:
            raise ScenarioError("window must be > 0 (it divides the stable "
                                "region)", path="workload.window",
                                source=source)
        count_field("windows", 3)
        out["cooldown"] = parse_duration(
            section.get("cooldown", 100_000.0), "workload.cooldown", source)
        epsilon = section.get("epsilon", 0.05)
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)) \
                or not 0.0 < float(epsilon) < 1.0:
            raise ScenarioError(
                "epsilon (the interactive-law residual tolerance) must be "
                "a number in (0, 1), got %r" % (epsilon,),
                path="workload.epsilon", source=source,
            )
        out["epsilon"] = float(epsilon)
        out["qos"] = _validate_qos(section.get("qos"), "workload.qos", source)
    elif kind == "baseline":
        for field, default in (("system", "insane_fast"),
                               ("baseline", "udp_nonblocking")):
            name = section.get(field, default)
            if name not in BASELINE_SYSTEMS:
                raise ScenarioError(
                    "unknown system %r (choose from %s)"
                    % (name, ", ".join(BASELINE_SYSTEMS)),
                    path="workload.%s" % field, source=source,
                )
            out[field] = name
        count_field("rounds", 300)
        size_field(64)
    # else: city — nothing beyond the shared datapath pin below

    datapath = section.get("datapath")
    if datapath is not None:
        if kind in ("bulk", "baseline"):
            raise ScenarioError(
                "a %s workload cannot pin a datapath (bulk follows its QoS; "
                "baseline systems pick their own stack)" % kind,
                path="workload.datapath", source=source,
            )
        if datapath not in DATAPATHS:
            raise ScenarioError(
                "unknown datapath %r (choose from %s)"
                % (datapath, ", ".join(DATAPATHS)),
                path="workload.datapath", source=source,
            )
        out["datapath"] = datapath
    return out


def _validate_faults(section, source):
    from repro.scenario.profiles import IMPAIRMENT_PROFILES

    if section is None:
        return []
    if not isinstance(section, list):
        raise ScenarioError("faults must be a list of fault records",
                            path="faults", source=source)
    normalized = []
    for index, record in enumerate(section):
        path = "faults[%d]" % index
        if not isinstance(record, dict):
            raise ScenarioError("a fault record must be a mapping",
                                path=path, source=source)
        if "profile" in record:
            extra = sorted(set(record) - {"profile"})
            if extra:
                raise ScenarioError(
                    "a profile replay takes no other fields (got %s)"
                    % ", ".join(extra), path=path, source=source,
                )
            name = record["profile"]
            profile = IMPAIRMENT_PROFILES.get(name)
            if profile is None:
                raise ScenarioError(
                    "unknown impairment profile %r (recorded profiles: %s)"
                    % (name, ", ".join(sorted(IMPAIRMENT_PROFILES))),
                    path=path + ".profile", source=source,
                )
            records = profile["faults"]
        else:
            records = [record]
        for offset, fault in enumerate(records):
            where = path if "profile" not in record else \
                "%s.profile[%d]" % (path, offset)
            if fault.get("kind") not in INJECTOR_KINDS:
                raise ScenarioError(
                    "unknown fault kind %r (known: %s)"
                    % (fault.get("kind"), ", ".join(sorted(INJECTOR_KINDS))),
                    path=where + ".kind", source=source,
                )
            try:
                injector = _injector_from_record(fault, index)
            except FaultInjectionError as exc:
                raise ScenarioError(str(exc), path=where,
                                    source=source) from None
            normalized.append(injector.to_dict())
    return normalized


def _validate_slo(section, spec, source):
    from repro.scenario.slo import validate_slo_section

    if section is None:
        raise ScenarioError(
            "a scenario must assert at least one SLO (an unverified "
            "scenario is a benchmark, not a check)", path="slo",
            source=source,
        )
    if not isinstance(section, dict) or not section:
        raise ScenarioError("slo must be a non-empty mapping of assertions",
                            path="slo", source=source)
    return validate_slo_section(section, spec, source)


# -- the public surface --------------------------------------------------------

def validate_scenario(document, source=None):
    """Validate + normalize one scenario document; returns the spec dict.

    The returned spec is canonical JSON (durations in ns, sizes in bytes,
    QoS as enum values, profiles expanded), carries ``schema``/``seed``,
    and is exactly the cell payload :func:`repro.scenario.runner.
    run_scenario_cell` executes.
    """
    if not isinstance(document, dict):
        raise ScenarioError(
            "a scenario document must be a mapping, got %s"
            % type(document).__name__, source=source,
        )
    schema = document.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(
            "unsupported scenario schema %r (this code understands %d)"
            % (schema, SCENARIO_SCHEMA), path="schema", source=source,
        )
    _reject_unknown(
        document,
        ("schema", "scenario", "description", "seed", "topology",
         "workload", "faults", "slo"),
        "", source,
    )
    name = _require(document, "scenario", str, "", source, required=True)
    if not _NAME_RE.match(name):
        raise ScenarioError(
            "scenario name %r must be lowercase [a-z0-9._-]" % name,
            path="scenario", source=source,
        )
    seed = document.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ScenarioError("seed must be a non-negative integer, got %r"
                            % (seed,), path="seed", source=source)
    spec = {
        "schema": SCENARIO_SCHEMA,
        "scenario": name,
        "description": _require(document, "description", str, "", source,
                                default=""),
        "seed": seed,
        "topology": _validate_topology(document.get("topology"), source),
        "workload": _validate_workload(
            _require(document, "workload", dict, "", source, required=True),
            source,
        ),
        "faults": _validate_faults(document.get("faults"), source),
    }
    spec["slo"] = _validate_slo(document.get("slo"), spec, source)
    generated = spec["topology"].get("kind") == "generated"
    if (spec["workload"]["kind"] == "city") != generated:
        raise ScenarioError(
            "a city workload runs on a generated topology and vice versa "
            "— pair workload.kind: city with topology.kind: generated",
            path="workload.kind", source=source,
        )
    if generated and spec["faults"]:
        raise ScenarioError(
            "fault injection targets testbed links; generated topologies "
            "do not take a faults section (drop it, or use a testbed "
            "topology)", path="faults", source=source,
        )
    if generated:
        profile_name = spec["topology"]["spec"]["profile"]
        effective_datapath = spec["workload"].get(
            "datapath", spec["topology"]["spec"]["datapath"])
    else:
        profile_name = spec["topology"]["profile"]
        effective_datapath = spec["workload"].get("datapath")
    if effective_datapath == "rdma" and profile_name == "cloud":
        # the cloud profile models RoCE-less NICs; keep the pin honest
        raise ScenarioError(
            "the cloud topology profile has no RDMA-capable NIC; pin rdma "
            "on the local profile", path="workload.datapath", source=source,
        )
    # the normalized spec must be canonically JSON-able (it becomes a
    # sweep cell); this raises loudly on any non-JSON leftovers
    json.dumps(spec, sort_keys=True)
    return spec


def parse_scenario(text, source=None):
    """Parse YAML/JSON text into a validated, normalized spec."""
    document = None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise ScenarioError("invalid JSON: %s" % exc, source=source) from None
    else:
        try:
            import yaml
        except ImportError:  # pragma: no cover - the container ships PyYAML
            raise ScenarioError(
                "PyYAML is not installed; write the scenario as JSON or "
                "install pyyaml", source=source,
            ) from None
        try:
            # libyaml's C parser when PyYAML was built with it, else the
            # pure-Python one; both build the same plain objects
            document = yaml.load(
                text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ScenarioError("invalid YAML: %s" % exc, source=source) from None
    return validate_scenario(document, source=source)


def load_scenario(path):
    """Load + validate one scenario file (.yaml/.yml/.json)."""
    with open(path) as handle:
        return parse_scenario(handle.read(), source=str(path))
