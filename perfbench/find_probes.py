"""Write ``probes.json``: the cells whose points the library gets wrong.

Run from the repository root after ``make_references.py``:

    python3 perfbench/find_probes.py

Evaluates every pool point of every workload once with the library in
``src/`` and lists, per workload, each cell with at least one variant that
fails the item-1 rule (a raise, a non-finite value, or a miss of the stored
reference by more than max(err_estimate, tol |ref|)), with the seconds its
slowest variant took.  Those cells become the workload's probes:
reported in every run, never timed, never gating ``correct``.  The file is frozen with the benchmark; regenerate it only to
re-baseline deliberately, since a library fix should show as a probe that
passes, not as a shorter probe list.
"""

from __future__ import annotations

import json
import os
import time

import run
import workloads


def main() -> int:
    run._import_library(run._source_root())
    from ckernels import analysis
    from ckernels.geometry import Space

    space_of = {s.value: s for s in Space}
    out, examples = {}, {}
    for w in workloads.WORKLOADS:
        cells = workloads.CELLS[w]
        refs = run._load_references(workloads.pool(w))
        probes, pass_s = {}, 0.0
        for cell in cells:
            pts = cell.variants()
            costs, failed = [], False
            for pt in pts:
                t0 = time.perf_counter()
                _, failures = run._run_pass(analysis, run._calls(space_of, [pt]), [pt], refs)
                costs.append(time.perf_counter() - t0)
                if failures and not failed:
                    failed = True
                    examples[cell.name] = failures[0]
                if failed and costs[-1] > workloads.PROBE_CAP_S:
                    break  # too slow to run as a probe whichever variant
            if failed:
                probes[cell.name] = round(max(costs), 4)
            else:
                pass_s += sum(costs) / len(pts)
        out[w] = dict(sorted(probes.items()))
        print(f"{w}: {len(cells)} cells, {len(probes)} probes "
              f"({sum(c > workloads.PROBE_CAP_S for c in probes.values())} over the cap), "
              f"timed pass ~{pass_s:.2f}s", flush=True)
    with open(os.path.join(run.HERE, "probes.json"), "w") as fh:
        json.dump({"probes": out, "first_failure": dict(sorted(examples.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
