"""What importing the package costs: it must not load the network stack."""

import os
import subprocess
import sys
from pathlib import Path

import tockta

# Pulled in by xml.sax.saxutils (through urllib.request), which the XML
# layer does not need for escaping three characters.
NETWORK_STACK = ("ssl", "socket", "http.client", "urllib.request", "email", "xml.sax")


def test_importing_the_package_and_cli_loads_no_network_stack():
    source_dir = Path(tockta.__file__).resolve().parent.parent
    code = (
        "import sys, tockta, tockta.cli\n"
        f"print(' '.join(m for m in {NETWORK_STACK!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(source_dir)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []
