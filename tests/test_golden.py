"""Golden CLI corpus: fixed invocations whose stdout must not change.

Each case in ``golden/cli_corpus.json`` is an argv list (plus, for some,
a config file from ``golden/``) and the SHA-256 of the standard output
it produced when the corpus was recorded. The cases cover all eight
subcommands and every sweep (target, parameter) pair (checked below on
the resolved settings, so a key set in a config file counts), both
output formats (JSON for every subcommand), the three quantum
conventions, a config file with an output energy scale (run by every
subcommand but wavepacket, so each way a table marks its energy cells
is pinned, and overlap shows that non-energies stay unscaled), a
config file that sets the format, samples, n-max and sweep keys, a
jittered far-field Dicke fit
and arc and hemisphere spectra, three of them with more than 4096
detector points and N >= 8 (the far-field engine's row blocks and
numpy's pairwise summation both change shape there). A refactor that
claims to change no behaviour must leave every hash as it is.

``golden/usage_corpus.json`` does the same for the usage surface:
top-level and per-subcommand ``--help``, no command, an unknown command,
an unknown flag, an abbreviated flag, a flag before the command and a
missing required key, and the argv edge cases of a run: ``--`` before a
flag, a repeated flag, ``--flag=value`` with a negative value after it, a
flag without its value, ``-h`` after a flag, a stray word, an exact flag
beside a longer one it prefixes (``quantum --n``), an unknown short flag
and a sweep's ``--start=-1``. Each case stores the exit code and the SHA-256 of
stdout and of stderr, recorded with ``COLUMNS=80`` so that argparse
wraps help text the same way on every terminal.

A hash may be regenerated only by a change that intends to alter the
output of that invocation and says why in CHANGES.md; never to make a
refactor pass.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from coherray.cli import _SUBCOMMAND_FIELDS, main, parse_config
from coherray.experiments import _SWEEPS

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))["cases"]
USAGE_CASES = json.loads((GOLDEN / "usage_corpus.json").read_text(encoding="utf-8"))["cases"]

# compare.py is a script, not a test module, so it is loaded from its path
_COMPARE_SPEC = importlib.util.spec_from_file_location("compare", GOLDEN / "compare.py")
compare = importlib.util.module_from_spec(_COMPARE_SPEC)
_COMPARE_SPEC.loader.exec_module(compare)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def case_argv(case):
    """The case's argv, with its config file when it has one."""
    argv = list(case["argv"])
    if "config" in case:
        argv += ["--config", str(GOLDEN / case["config"])]
    return argv


def run_usage_case(argv):
    """Run ``main(argv)``; return its exit code and the hashes of both streams.

    ``--help`` exits through ``SystemExit`` out of argparse, so that exit
    code is taken from the exception.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    return {"exit": code, "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(err.getvalue())}


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_cli_output_matches_recorded_hash(case):
    argv = case_argv(case)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    digest = _sha256(out.getvalue())
    assert digest == case["sha256"], f"stdout changed for {argv}:\n{out.getvalue()}"


# numpy's SIMD dispatch narrowed for the replay below: without its AVX-512
# targets, and without AVX2 too
DISPATCH_SETTINGS = ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3")

# compare.py's child, which then reports numpy's enabled CPU features on stderr
REPLAY = compare.CHILD + """
from numpy._core._multiarray_umath import __cpu_features__
print(json.dumps([name for name, on in __cpu_features__.items() if on]), file=sys.stderr)
"""


@pytest.mark.parametrize("disabled", DISPATCH_SETTINGS)
def test_cli_hashes_hold_under_narrower_numpy_dispatch(disabled):
    """Every stdout case keeps its recorded hash when numpy runs without
    the SIMD targets named in NPY_DISABLE_CPU_FEATURES. The corpus is
    replayed in one child process, the only one that sees the variable,
    since numpy reads it at import. The child's numpy reports the targets
    off, on machines that have them and on machines that do not."""
    env = dict(os.environ, PYTHONPATH=str(compare.ROOT / "src"), COLUMNS="80",
               NPY_DISABLE_CPU_FEATURES=disabled)
    done = subprocess.run(
        [sys.executable, "-c", REPLAY], input=json.dumps([case_argv(case) for case in CASES]),
        env=env, cwd=compare.ROOT, capture_output=True, text=True, check=True,
    )
    enabled = set(json.loads(done.stderr.splitlines()[-1]))
    assert not enabled & set(disabled.split())
    for case, result in zip(CASES, json.loads(done.stdout), strict=True):
        assert result["exit"] == 0
        assert _sha256(result["stdout"]) == case["sha256"], f"stdout changed for {case['argv']}"


@pytest.mark.parametrize(
    "case", USAGE_CASES, ids=[" ".join(case["argv"]) or "no-argv" for case in USAGE_CASES]
)
def test_usage_output_matches_recorded_hashes(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = {key: case[key] for key in ("exit", "stdout_sha256", "stderr_sha256")}
    assert run_usage_case(case["argv"]) == recorded, f"usage output changed for {case['argv']}"


def test_corpus_reaches_every_subcommand_and_sweep_pair():
    subcommands, sweeps = set(), set()
    for case in CASES:
        config = parse_config(case_argv(case))
        subcommands.add(config.subcommand)
        if config.subcommand == "sweep":
            sweeps.add((config.settings["target"], config.settings["parameter"]))
    assert subcommands == set(_SUBCOMMAND_FIELDS)
    assert sweeps == set(_SWEEPS)


CSV = "# config.seed = 0\nquantity,value\ntotal,56.548667764616276\nenhancement,3\n"


def test_numeric_drift_of_identical_texts_is_none():
    assert compare.numeric_drift(CSV, CSV) == (True, 0, 0.0)


def test_numeric_drift_counts_a_moved_number_and_its_relative_move():
    moved = CSV.replace("56.548667764616276", "56.548667764616283")
    numeric, count, largest = compare.numeric_drift(moved, CSV)
    assert (numeric, count) == (True, 1)
    assert largest == abs(56.548667764616283 - 56.548667764616276) / 56.548667764616283
    assert 0.0 < largest < 2e-16


@pytest.mark.parametrize(
    "changed", [CSV.replace("total,", "totals,"), CSV.replace("enhancement,3", "enhancement,3,4"),
                CSV.replace("# config.seed = 0\n", "")],
    ids=("label", "extra-number", "dropped-line"),
)
def test_numeric_drift_refuses_changed_text(changed):
    assert compare.numeric_drift(changed, CSV) == (False, 0, 0.0)
    assert compare.numeric_drift(CSV, changed) == (False, 0, 0.0)


def test_numeric_drift_of_nan():
    """nan against nan has not moved; nan against a number has moved
    without bound, whichever side holds the nan."""
    nan = CSV.replace("enhancement,3", "enhancement,nan")
    assert compare.numeric_drift(nan, nan) == (True, 0, 0.0)
    assert compare.numeric_drift(nan, CSV) == (True, 1, math.inf)
    assert compare.numeric_drift(CSV, nan) == (True, 1, math.inf)
