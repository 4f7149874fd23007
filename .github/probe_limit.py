"""Fail when a benchmark run record shows a failed probe that is not allowed.

Reads the run record line of ``perfbench/run.py`` on standard input:

    python3 .github/probe_limit.py jet-raise 1 < record

``probe_allowed.json``, next to this script, maps a workload and a seed to
the probes allowed to fail there, each named as in the record's
``probe_failures`` (the text before ": ").  Any other failed probe fails the
check, so a probe that starts failing cannot hide behind one that starts
passing, as it could under a limit on the count alone.
"""

import json
import os
import sys

workload, seed = sys.argv[1], sys.argv[2]
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe_allowed.json")) as fh:
    allowed = set(json.load(fh)[workload][seed])
failures = json.load(sys.stdin)["record"]["probe_failures"]
unexpected = [f for f in failures if f.split(": ", 1)[0] not in allowed]
if unexpected:
    sys.exit(f"{workload} seed {seed}: probes failed that are not allowed to:\n"
             + "\n".join(unexpected))
