"""Golden CLI corpus: fixed invocations whose stdout must not change.

Each case in ``golden/cli_corpus.json`` is an argv list (plus, for some,
a config file from ``golden/``) and the SHA-256 of the standard output
it produced when the corpus was recorded. The cases cover all eight
subcommands, both output formats, the three quantum conventions, a
config file with an output energy scale, far-field sweeps over every
parameter, a jittered far-field Dicke fit and arc and hemisphere
spectra, three of them with more than 4096 detector points and N >= 8
(the far-field engine's row blocks and numpy's pairwise summation both
change shape there). A refactor that claims to change no behaviour must leave every
hash as it is.

A hash may be regenerated only by a change that intends to alter the
output of that invocation and says why in CHANGES.md; never to make a
refactor pass.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from coherray.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_cli_output_matches_recorded_hash(case):
    argv = list(case["argv"])
    if "config" in case:
        argv += ["--config", str(GOLDEN / case["config"])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == case["sha256"], f"stdout changed for {argv}:\n{out.getvalue()}"
