"""A run stops and reaps every process it started, orphans included."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from perfbench import report

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc")

# Runs in a fresh interpreter: it kills every process below itself.
SCRIPT = textwrap.dedent("""
    import json, os, subprocess
    from perfbench import procs

    adopted = procs.adopt_orphans()
    # The shell exits at once and orphans its background sleep.
    subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 &"], check=True)
    before = [pid for pid, _ in procs.descendants(os.getpid())]
    stopped = procs.stop_descendants(timeout_s=10)
    after = procs.descendants(os.getpid())
    print(json.dumps({"adopted": adopted, "before": before,
                      "stopped": stopped, "after": after}))
""")


def test_orphaned_grandchild_is_stopped_and_reaped():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=report.ROOT, capture_output=True,
        text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(report.ROOT)},
    )
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["adopted"]
    assert len(seen["before"]) == 1
    assert seen["stopped"] == seen["before"]
    assert seen["after"] == []
