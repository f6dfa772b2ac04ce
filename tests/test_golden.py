"""Committed output digests: the bytes of a fixed set of small commands.

Each command runs in-process through `cli.main` in a temporary directory,
at --workers 1 and 2, and the sha256 of every output must equal the one in
`golden_digests.json`, next to the document's `format` and `version`.  A
change that alters bytes on purpose bumps the document's `version` and
regenerates the file in the same diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from nobfext.bfext import derive_params, explicit_params
from nobfext.cli import canonical_json, main, write_document
from nobfext.codes import preset_code
from nobfext.resilient import Majority, RecursiveMajority3, TableFunction, Tribes
from nobfext.sources import (EpsBiased, ExactTwise, MajorityOfGood, NobfSourceSpec,
                             UniformBits)

GOLDEN = Path(__file__).with_name("golden_digests.json")

N, BAD = 21, [1, 4, 10, 20]
# the Monte-Carlo benchmark's shape: 2^13 field elements x, 9-bit blocks
WIDE_N, WIDE_BAD = 63, [0, 3, 6, 30, 46, 50]
PROBS = [0.25, 0.125, 0.125, 0.0, 0.0625, 0.1875, 0.125, 0.125]
INPUTS = {
    "spec.json": NobfSourceSpec(N, BAD, UniformBits(N - len(BAD)),
                                MajorityOfGood()).to_descriptor(),
    "params.json": explicit_params(N, 7, 3, preset_code("hamming-7-4"),
                                   Majority(3)).to_json(),
    # a non-monotone block function: every coalition pattern is scanned
    "params-table.json": explicit_params(
        N, 7, 3, preset_code("hamming-7-4"),
        TableFunction(3, [0, 1, 1, 0, 1, 1, 0, 1])).to_json(),
    "source.json": {**NobfSourceSpec(N, BAD, ExactTwise(N - len(BAD), 3),
                                     MajorityOfGood()).to_descriptor(),
                    "samples_out": "stream.samples"},
    "extract.json": {"params": "params.json", "samples": "stream.samples"},
    "fix-exact.json": {"analysis": "fixedness", "spec": "spec.json",
                       "params": "params.json"},
    "fix-mc.json": {"analysis": "fixedness", "spec": "spec.json",
                    "params": "params.json", "force_mc": True, "samples": 20000},
    "fix-table-mc.json": {"analysis": "fixedness", "spec": "spec.json",
                          "params": "params-table.json", "force_mc": True,
                          "samples": 20000},
    # 2^9 fixing seeds over 2^5 fixings, every pair of Majority(7)
    "inf-max.json": {"analysis": "influence", "f": Majority(7).descriptor(),
                     "max_size": 2, "fixing": ExactTwise(5, 3).descriptor()},
    "inf-mc.json": {"analysis": "influence", "f": Tribes(2, 4).descriptor(),
                    "coalition": [1, 6], "mode": "mc", "samples": 5000},
    "cz-exact.json": {"analysis": "compare-zeroed", "spec": "spec.json",
                      "params": "params.json"},
    "cz-mc.json": {"analysis": "compare-zeroed", "spec": "spec.json",
                   "params": "params.json", "force_mc": True, "samples": 10000},
    # the exact walk over a t-wise generator's seed space, and over a
    # non-monotone block function
    "cz-twise.json": {"analysis": "compare-zeroed", "spec": "source.json",
                      "params": "params.json"},
    "cz-table.json": {"analysis": "compare-zeroed", "spec": "spec.json",
                      "params": "params-table.json"},
    # derived parameters whose m formula gives 2 (beta t^(1/21) = 2.67)
    "derived-extract.json": {"params": "derived.json",
                             "inputs": ["f" * 1024, "0123456789abcdef" * 64]},
    # no samples_out: the samples go to the --out path plus ".samples"
    "gen-default.json": NobfSourceSpec(N, BAD, UniformBits(N - len(BAD)),
                                       MajorityOfGood()).to_descriptor(),
    "extract-spec.json": {"params": "params.json", "spec": "spec.json", "count": 300},
    "code-preset.json": {"preset": "hamming-7-4"},
    "code-search.json": {"m": 8, "r": 24, "target_d": 7},
    # two words per row; kept at attempt 663
    "code-search-wide.json": {"m": 10, "r": 70, "target_d": 25},
    "bias.json": {"analysis": "bias", "f": Majority(3).descriptor(),
                  "distribution": {"kind": "table", "probs": PROBS}},
    "inf-exact.json": {"analysis": "influence", "f": Tribes(2, 4).descriptor(),
                       "coalition": [1, 6]},
    # uniform fixings of a monotone f: every triple of Majority(9)
    "inf-max-uniform.json": {"analysis": "influence", "f": Majority(9).descriptor(),
                             "max_size": 3},
    "spectrum.json": {"analysis": "spectrum",
                      "distribution": {"kind": "table", "probs": PROBS}},
    "vazirani.json": {"analysis": "vazirani",
                      "distribution": {"kind": "table", "probs": PROBS}},
    "spec-eps.json": NobfSourceSpec(WIDE_N, WIDE_BAD, EpsBiased(57, 0.01),
                                    MajorityOfGood()).to_descriptor(),
    "params-rm.json": explicit_params(WIDE_N, 7, 9, preset_code("simplex-k3"),
                                      RecursiveMajority3(2)).to_json(),
    "params-tribes.json": explicit_params(WIDE_N, 7, 9, preset_code("simplex-k3"),
                                          Tribes(3, 3)).to_json(),
    # 10,000 draws are one piece at --workers 1 and two of 5,000 at 2: above
    # and below the 2^13 elements x of the field
    "cz-eps-mc.json": {"analysis": "compare-zeroed", "spec": "spec-eps.json",
                       "params": "params-rm.json", "force_mc": True, "samples": 10000},
    "fix-eps-mc.json": {"analysis": "fixedness", "spec": "spec-eps.json",
                        "params": "params-rm.json", "force_mc": True, "samples": 10000},
    "cz-eps-tribes.json": {"analysis": "compare-zeroed", "spec": "spec-eps.json",
                           "params": "params-tribes.json", "force_mc": True,
                           "samples": 10000},
    # the exact walk over an eps-biased seed space of 2^18 (field of 2^9)
    "spec-eps-small.json": NobfSourceSpec(N, BAD, EpsBiased(N - len(BAD), 0.05),
                                          MajorityOfGood()).to_descriptor(),
    "cz-eps-exact.json": {"analysis": "compare-zeroed", "spec": "spec-eps-small.json",
                          "params": "params.json"},
}
COMMANDS = [  # (subcommand, config, out, extra outputs)
    ("gen-source", "source.json", "source.out.json", ["stream.samples"]),
    ("extract", "extract.json", "extract.out.json", []),
    ("analyze", "fix-exact.json", "fix-exact.out.json", []),
    ("analyze", "fix-mc.json", "fix-mc.out.json", []),
    ("analyze", "fix-table-mc.json", "fix-table-mc.out.json", []),
    ("analyze", "inf-max.json", "inf-max.out.json", []),
    ("analyze", "inf-mc.json", "inf-mc.out.json", []),
    ("analyze", "cz-exact.json", "cz-exact.out.json", []),
    ("analyze", "cz-mc.json", "cz-mc.out.json", []),
    ("analyze", "cz-twise.json", "cz-twise.out.json", []),
    ("analyze", "cz-table.json", "cz-table.out.json", []),
    ("extract", "derived-extract.json", "derived-extract.out.json", []),
    ("gen-source", "gen-default.json", "gen-default.out.json",
     ["gen-default.out.json.samples"]),
    ("extract", "extract-spec.json", "extract-spec.out.json", []),
    ("build-code", "code-preset.json", "code-preset.out.json", []),
    ("build-code", "code-search.json", "code-search.out.json", []),
    ("build-code", "code-search-wide.json", "code-search-wide.out.json", []),
    ("analyze", "bias.json", "bias.out.json", []),
    ("analyze", "inf-exact.json", "inf-exact.out.json", []),
    ("analyze", "inf-max-uniform.json", "inf-max-uniform.out.json", []),
    ("analyze", "spectrum.json", "spectrum.out.json", []),
    ("analyze", "vazirani.json", "vazirani.out.json", []),
    ("analyze", "cz-eps-mc.json", "cz-eps-mc.out.json", []),
    ("analyze", "fix-eps-mc.json", "fix-eps-mc.out.json", []),
    ("analyze", "cz-eps-tribes.json", "cz-eps-tribes.out.json", []),
    ("analyze", "cz-eps-exact.json", "cz-eps-exact.out.json", []),
]
SAMPLES = 400


def _document(path: Path) -> dict:
    """The document of an output, or a sample file's header line."""
    return json.loads(path.read_text().partition("\n")[0] if path.suffix == ".samples"
                      else path.read_text())


def run_commands(workdir: Path, workers: int) -> dict:
    """{output name: {sha256, format, version}} of the golden set, run in
    workdir."""
    for name, doc in INPUTS.items():
        (workdir / name).write_text(canonical_json(doc))
    write_document(str(workdir / "derived.json"),
                   derive_params(n=4096, delta=0.8, t=4, beta=2.5).to_json())
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command, config, out, _ in COMMANDS:
            argv = [command, "--config", config, "--out", out, "--seed", "7",
                    "--workers", str(workers)]
            if command == "gen-source":
                argv += ["--samples", str(SAMPLES)]
            assert main(argv) == 0, (command, config)
    finally:
        os.chdir(cwd)
    names = ["derived.json"] + [name for *_, out, extra in COMMANDS
                                for name in (out, *extra)]
    digests = {}
    for name in names:
        doc = _document(workdir / name)
        digests[name] = {
            "sha256": hashlib.sha256((workdir / name).read_bytes()).hexdigest(),
            "format": doc["format"],
            "version": doc.get("version"),
        }
    return digests


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_match_committed_digests(tmp_path, workers):
    golden = json.loads(GOLDEN.read_text())
    assert run_commands(tmp_path, workers) == golden["outputs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp), 1)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "outputs": outputs},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} digests to {GOLDEN}", file=sys.stderr)
