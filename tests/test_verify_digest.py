"""Byte identity of `verify`'s output, pinned as one sha256.

`verify 1`, `verify 2 --exhaustive` and seeded `verify 3 --samples k` runs,
in text and json, plus one tolerance at which the oracle and the symbolic
verdict disagree (exit 1), and runs read in shrunk chunks so that chunk
boundaries are crossed.  Any change to a byte of their exit codes, stdout or
stderr changes the digest.  `verify` prints counts only, so the digest does
not depend on the BLAS build or thread count.
"""

import contextlib
import hashlib
import io

import pcekit.cli as cli
import pcekit.dense as dense
from pcekit.cli import main

DIGEST = "eff1ae2febe8a34c635efa0d6b32b4ff5887eebd70c983fa7d849e96aa8f0af5"

RUNS = [
    ["verify", "1"],
    ["verify", "1", "--exhaustive"],
    ["--tol", "0.6", "verify", "1"],
    ["verify", "2", "--exhaustive"],
    ["--seed", "0", "verify", "3", "--samples", "1500"],
    ["--seed", "3", "verify", "3", "--samples", "2500"],
    ["--seed", "9", "verify", "3", "--samples", "700"],
]

# Read 1000 masks at a time: 33 chunks of `verify 2`, 3 of the 2500 samples.
SHRUNK_RUNS = [["verify", "2"], ["--seed", "3", "verify", "3", "--samples", "2500"]]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_verify_outputs_match_the_pinned_digest(monkeypatch):
    digest = hashlib.sha256()

    def add(label, argv):
        for fmt in ("text", "json"):
            value = _run(["--format", fmt, *argv])
            digest.update(f"{label} {fmt} {' '.join(argv)}\0{value}\0".encode())

    for argv in RUNS:
        add("whole", argv)
    for module in (cli, dense):
        monkeypatch.setattr(module, "VERIFY_CHUNK", 1000)
    for argv in SHRUNK_RUNS:
        add("shrunk", argv)
    assert digest.hexdigest() == DIGEST
