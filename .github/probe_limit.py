"""Fail when a benchmark run record shows more failed probes than allowed.

Reads the run record line of ``perfbench/run.py`` on standard input:

    python3 .github/probe_limit.py '{"jet-raise": [4, 3]}' jet-raise 1 < record

The limits map a workload to its allowed ``probe_failed`` count per seed.
"""

import json
import sys

limits, workload, seed = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])
failed = json.load(sys.stdin)["record"]["probe_failed"]
allowed = limits[workload][seed]
if failed > allowed:
    sys.exit(f"{workload} seed {seed}: {failed} probes failed, {allowed} allowed")
