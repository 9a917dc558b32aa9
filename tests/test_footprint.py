"""Each entry point loads only the code it runs.

Every check runs its workload in a fresh interpreter and reads what the
work left in ``sys.modules``.  The interpreter starts with ``-S``: no
site hooks, so no start-up plugin (such as a coverage hook, which loads
``hashlib`` itself) adds modules of its own.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: ``_hashlib`` maps OpenSSL's libcrypto, about 3.8 MB resident (OpenSSL 3.0)
CRYPTO = {"hashlib", "_hashlib", "hmac"}

PRELUDE = "import sys\nsys.path.insert(0, %r)\n" % SRC
REPORT = "import json\nprint(json.dumps(sorted(sys.modules)))\n"


def modules_after(body):
    """Run ``body`` in a fresh interpreter; return ``sys.modules`` after
    it as a set of names."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", PRELUDE + body + REPORT],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


STREAM = """
from repro.bench.harness import InsaneBenchApp, make_testbed

app = InsaneBenchApp(make_testbed("local", seed=0), "fast")
meter = app.stream(20, 1024)[0]
assert app.client_stream.datapath == "dpdk", app.client_stream.datapath
assert meter.messages == 20, meter.messages
"""

CLOSED_LOOP = """
from repro.loadgen.capacity import run_closed_loop_cell

metrics = run_closed_loop_cell(
    datapath="dpdk", clients=1, think_dist="fixed", seed=11,
    warmup_ns=100_000.0, window_ns=400_000.0, windows=3,
    cooldown_ns=50_000.0, epsilon=0.08)
assert metrics["stable"]["responses"] > 0
"""

CITY = """
import repro.dist.sync
"""


class TestNoCryptoOnTheDataPath:
    """Without an access controller, moving data never loads the HMAC
    and hash libraries."""

    def test_dpdk_stream_loads_no_crypto(self):
        assert not modules_after(STREAM) & CRYPTO

    def test_closed_loop_through_the_capacity_harness_loads_no_crypto(self):
        assert not modules_after(CLOSED_LOOP) & CRYPTO


class TestCityLoadsNoMiddleware:
    def test_dist_sync_imports_no_core_or_datapath_module(self):
        loaded = modules_after(CITY)
        assert "repro.dist.sync" in loaded
        assert not {name for name in loaded
                    if name.startswith(("repro.core", "repro.datapaths"))}
