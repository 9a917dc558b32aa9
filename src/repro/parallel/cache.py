"""Content-addressed on-disk cache for sweep-cell results.

A cell's cache key is the sha256 of three facts, any of which changing
must invalidate the entry:

* the cell itself (canonical JSON — kind + every parameter);
* the hardware profile content it runs on (digested from the profile's
  full dataclass form, so *editing* a stage cost misses even though the
  profile name stayed ``"local"``);
* the package version (plus a cache schema version, so a payload-format
  change never deserializes stale shapes).

Entries are one JSON file per key under ``<root>/<key[:2]>/<key>.json``,
written atomically (tmp + ``os.replace``) so a crashed run never leaves a
truncated entry — a corrupt, unreadable or malformed file is treated as a
miss and overwritten.  The default root is ``.insane-cache/`` in the working
directory (override with ``$INSANE_CACHE_DIR``); it is git-ignored.
"""

import dataclasses
import hashlib
import json
import os

import repro
from repro.hw.profiles import PROFILES
from repro.simnet.cell import cell_key

#: bump when the cached payload format changes shape incompatibly.
CACHE_SCHEMA = 1

#: environment override for the cache root directory.
CACHE_DIR_ENV = "INSANE_CACHE_DIR"

_DEFAULT_DIRNAME = ".insane-cache"


def default_cache_root():
    """The cache directory: ``$INSANE_CACHE_DIR`` or ``./.insane-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.getcwd(), _DEFAULT_DIRNAME
    )


def profile_digest(profile):
    """sha256 over a profile's complete content (not just its name)."""
    record = dataclasses.asdict(profile)
    text = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(cell, profile=None, version=None):
    """The content-addressed key of one cell.

    ``profile`` defaults to the profile named by the cell's
    ``params["profile"]`` (falling back to ``"local"``, the testbed every
    profile-less experiment builds); pass a
    :class:`~repro.hw.profiles.TestbedProfile` explicitly for perturbed
    or ad-hoc profiles.

    Cells with a ``params["topology"]`` (generated-city cells) fold the
    *resolved* spec content into the key: a preset named ``"smoke64"``
    hashes by what the preset currently expands to, so editing the
    generator spec invalidates every entry keyed through the old
    content — the cell JSON alone would look unchanged and serve stale
    hits.  The spec also names the profile such cells actually run on.
    """
    params = cell.get("params") or {}
    topology = params.get("topology")
    topo_digest = None
    if topology is not None:
        from repro.hw.generate import resolve_topology, topology_digest

        spec = resolve_topology(topology)
        topo_digest = topology_digest(spec)
        if profile is None:
            profile = PROFILES[spec["profile"]]
    if profile is None:
        name = params.get("profile", "local")
        profile = PROFILES[name]
    h = hashlib.sha256()
    h.update(cell_key(cell).encode())
    h.update(b"\x00")
    h.update(profile_digest(profile).encode())
    h.update(b"\x00")
    if topo_digest is not None:
        h.update(topo_digest.encode())
        h.update(b"\x00")
    h.update((version or repro.__version__).encode())
    h.update(b"\x00")
    h.update(str(CACHE_SCHEMA).encode())
    return h.hexdigest()


class ResultCache:
    """A digest-keyed result store with hit/miss accounting."""

    def __init__(self, root=None):
        self.root = root or default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key):
        """The cached entry for ``key``, or ``None`` (counted as a miss).

        Only a well-formed entry is a hit: a dict stored under this very
        ``key`` with the current :data:`CACHE_SCHEMA` and a ``payload``.
        Anything else — unreadable JSON, another shape, another key, an
        old schema — reads as a miss, and the recomputed cell overwrites
        it.
        """
        path = self.path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or entry.get("schema") != CACHE_SCHEMA
            or "payload" not in entry
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key, cell, payload):
        """Store ``payload`` for ``key``; atomic, last-writer-wins."""
        entry = {
            "key": key,
            "cell": cell,
            "schema": CACHE_SCHEMA,
            "payload": payload,
        }
        path = self.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as handle:
            json.dump(entry, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        self.stores += 1
        return entry

    def stats(self):
        lookups = self.hits + self.misses
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
