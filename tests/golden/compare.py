"""Golden-corpus drift between this tree and another checkout.

Usage, from the repository root:

    python3 tests/golden/compare.py PARENT_DIR

Every case of ``cli_corpus.json`` and ``usage_corpus.json`` is run under
this tree's ``src/`` and under ``PARENT_DIR/src``, each tree in its own
child process, with ``COLUMNS=80`` as the usage hashes were recorded. One
line per case says whether its stdout hash is the same or moved, how many
numeric cells moved and the largest relative move among them,
|a - b| / max(|a|, |b|). The exit status is 1 if any output differs in
anything but the values of its numbers (its text, layout, exit code or
stderr), and 0 otherwise.

A change that regenerates golden hashes lists this report in CHANGES.md.
The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")

# runs each argv of a JSON list read from stdin through coherray's CLI and
# writes the exit codes and both streams as a JSON list
CHILD = """
import contextlib, io, json, sys
from coherray.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""


def corpus() -> list[tuple[str, list[str]]]:
    """(label, argv) of every golden case, the CLI corpus first."""
    cases = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))["cases"]
    usage = json.loads((GOLDEN / "usage_corpus.json").read_text(encoding="utf-8"))["cases"]
    labelled = []
    for index, case in enumerate(cases):
        argv = list(case["argv"])
        if "config" in case:
            argv += ["--config", str(GOLDEN / case["config"])]
        labelled.append((f"{index:02d}-{case['argv'][0]}", argv))
    labelled += [(f"usage {' '.join(case['argv']) or 'no-argv'}", case["argv"]) for case in usage]
    return labelled


def run_tree(tree: Path, argvs: list[list[str]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(argvs), env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def numeric_drift(new: str, old: str) -> tuple[bool, int, float]:
    """Whether the two texts differ only in the values of their numbers,
    the count of numeric cells that moved and the largest relative move."""
    new_numbers, old_numbers = NUMBER.findall(new), NUMBER.findall(old)
    if NUMBER.split(new) != NUMBER.split(old) or len(new_numbers) != len(old_numbers):
        return False, 0, 0.0
    moved, largest = 0, 0.0
    for a, b in zip(map(float, new_numbers), map(float, old_numbers)):
        if a == b or (a != a and b != b):
            continue
        moved += 1
        if math.isfinite(a) and math.isfinite(b):
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
        else:
            largest = float("inf")
    return True, moved, largest


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    labelled = corpus()
    argvs = [case_argv for _, case_argv in labelled]
    new, old = run_tree(ROOT, argvs), run_tree(Path(argv[0]).resolve(), argvs)
    clean = True
    for (label, _), ours, theirs in zip(labelled, new, old):
        numeric, moved, largest = numeric_drift(ours["stdout"], theirs["stdout"])
        same_rest = ours["exit"] == theirs["exit"] and ours["stderr"] == theirs["stderr"]
        digest = hashlib.sha256(ours["stdout"].encode("utf-8")).hexdigest()
        if ours == theirs:
            print(f"{label}: same  {digest[:12]}")
        elif numeric and same_rest:
            print(f"{label}: moved {digest[:12]}  {moved} numeric cells, largest relative move"
                  f" {largest:.3g}")
        else:
            clean = False
            print(f"{label}: DIFFERS beyond numbers (stdout text, exit code or stderr)")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
