"""``python -m repro.bench`` — alias of the ``insane bench`` CLI.

Examples::

    python -m repro.bench faults
    python -m repro.bench fig7 --profile cloud
"""

import sys

from repro.bench.cli import main

if __name__ == "__main__":
    sys.exit(main())
