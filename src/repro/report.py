"""The unified result object: every runner hands back a :class:`RunReport`.

PRs 2-5 grew three result surfaces — figure sweeps, validation fan-outs,
and now scenarios — each returning its own ad-hoc dict shape.  This module
replaces them with one frozen, schema-versioned dataclass family so every
digest comparison in the repo (sweep merges, the golden corpus tooling,
scenario suites) works over the *same* canonical JSON:

* ``data`` is the digest-compared payload — a pure function of the run's
  inputs (seeds, parameters, code), never of wall-clock time or host
  identity;
* ``meta`` is the non-compared provenance block — worker counts, cache
  hit rates, source paths, timestamps — free to vary between
  bit-identical runs;
* ``schema`` versions the report shape itself, so a stored report can be
  rejected loudly when the layout changes instead of silently
  mis-comparing.

``digest()`` hashes the canonical body (schema + kind + data, sorted
keys, fixed separators) and excludes ``meta`` by construction, which is
what lets a cached single-worker report compare equal to a fresh
16-worker one.
"""

import json
from dataclasses import dataclass, field
from typing import Mapping

#: Version of the report layout.  Bump when the body shape changes; the
#: loader refuses newer schemas instead of guessing.
RUN_REPORT_SCHEMA = 1


def canonical_json(value, indent=None):
    """Digest-stable JSON: sorted keys, fixed separators, no NaN."""
    separators = (",", ": ") if indent else (",", ":")
    return json.dumps(value, sort_keys=True, separators=separators,
                      indent=indent, allow_nan=False)


@dataclass(frozen=True)
class RunReport:
    """One run's canonical result: ``(kind, data)`` plus provenance.

    ``kind`` names the producing runner (``"bench.sweep"``,
    ``"validate.fuzz"``, ``"scenario.run"``, ``"scenario.suite"``, ...);
    equality and :meth:`digest` cover ``schema``, ``kind`` and ``data``
    only — ``meta`` is deliberately excluded from comparison.
    """

    kind: str
    data: Mapping
    meta: Mapping = field(default_factory=dict, compare=False)
    schema: int = RUN_REPORT_SCHEMA

    def body(self):
        """The digest-compared part of the report, as a plain dict."""
        return {"schema": self.schema, "kind": self.kind,
                "data": self.data}

    def to_dict(self, with_meta=True):
        """The full report as a plain JSON-able dict."""
        document = self.body()
        if with_meta:
            document["meta"] = dict(self.meta)
        return document

    def to_json(self, indent=None, with_meta=True):
        """Canonical JSON; ``with_meta=False`` yields the digest input."""
        return canonical_json(self.to_dict(with_meta=with_meta),
                              indent=indent)

    def digest(self):
        """sha256 over the canonical body — ``meta`` never moves it."""
        # imported here: most runs that build reports never digest one,
        # and hashlib maps OpenSSL's libcrypto (about 3.8 MB resident
        # with OpenSSL 3.0)
        from hashlib import sha256

        return sha256(self.to_json(with_meta=False).encode()).hexdigest()

    @classmethod
    def from_dict(cls, document):
        """Rebuild a report from :meth:`to_dict` output (loudly versioned)."""
        if not isinstance(document, dict):
            raise ValueError("a RunReport document must be a dict, got %s"
                             % type(document).__name__)
        missing = {"schema", "kind", "data"} - set(document)
        if missing:
            raise ValueError("RunReport document missing %s"
                             % sorted(missing))
        schema = document["schema"]
        if schema > RUN_REPORT_SCHEMA:
            raise ValueError(
                "RunReport schema %r is newer than this code understands "
                "(max %d); refusing to guess" % (schema, RUN_REPORT_SCHEMA)
            )
        return cls(kind=document["kind"], data=document["data"],
                   meta=document.get("meta", {}), schema=schema)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def write_reports(path, reports):
    """Append ``reports`` to a JSON file holding a list of report dicts.

    Successive invocations accumulate (the historical ``--json`` contract
    of the bench CLI); a corrupt or non-list file is replaced rather than
    crashed on.
    """
    import os

    stored = []
    if os.path.exists(path):
        with open(path) as handle:
            try:
                stored = json.load(handle)
            except ValueError:
                stored = []
        if not isinstance(stored, list):
            stored = [stored]
    for report in reports:
        stored.append(report.to_dict() if isinstance(report, RunReport)
                      else report)
    with open(path, "w") as handle:
        json.dump(stored, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
