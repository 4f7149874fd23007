"""Run every ``ckernels eval`` and ``ckernels table`` command of the README.

Each such command of a ```` ```sh ```` block, with its line continuations
joined, runs through ``python -X dev -W error::RuntimeWarning -m
ckernels.cli`` in a temporary directory, so that its redirects land there.
The run fails if any command exits non-zero, or if the README has none.

    python3 .github/readme_examples.py
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = f"{shlex.quote(sys.executable)} -X dev -W error::RuntimeWarning -m ckernels.cli"


def commands(text: str) -> list[str]:
    """The eval and table commands of the sh blocks, one line each."""
    found = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = " ".join(line.split())
            if re.match(r"ckernels (eval|table) ", line):
                found.append(line)
    return found


def main() -> int:
    found = commands((ROOT / "README.md").read_text(encoding="utf-8"))
    if not found:
        print("README.md has no ckernels eval or table command")
        return 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for line in found:
            run = subprocess.run(
                CLI + line[len("ckernels"):], shell=True, cwd=tmp, env=env,
                capture_output=True, text=True,
            )
            print(f"exit {run.returncode}: {line}")
            if run.returncode:
                failed += 1
                print(run.stderr, end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
