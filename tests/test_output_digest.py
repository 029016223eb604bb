"""Byte identity of the bitmask path's output, pinned as one sha256.

A seeded corpus of "preserved" documents at n = 1..12 goes through `check`
and `decompose` (text and json), `dump_channel_document`,
`PceMap.preserved_indices` and `reflect` along every qubit.  Any change to
a byte of their exit codes, stdout, stderr or results changes the digest.

The corpus is built here from `random.Random`, with members listed by plain
XOR spans, so it depends on no pcekit code.  The dense oracle's
``lambda_min`` (printed at n <= 3) is left out: its last digits are BLAS
rounding and differ between numpy builds.
"""

import contextlib
import hashlib
import io
import json
import random

from pcekit.cli import main
from pcekit.maps import PceMap, dump_channel_document, load_channel_document, reflect

DIGEST = "d1034aa24aaf476010af18b5e486fbf8eb5938b884c60a94c4f83fcfcb751b01"


def _subspace(rng, n, K):
    """The members of a random K-dimensional subspace of GF(2)^(2n), ascending."""
    members = {0}
    while len(members) < 1 << K:
        row = rng.randrange(4**n)
        if row not in members:
            members |= {m ^ row for m in members}
    return sorted(members)


def _outsider(rng, n, members):
    present = set(members)
    while True:
        code = rng.randrange(4**n)
        if code not in present:
            return code


def _strings(n, codes):
    return ["".join(str((f >> 2 * q) & 3) for q in range(n)) for f in codes]


def _corpus():
    """(name, document) pairs: channels, near-channels, a popcount-preserving
    swap, tau_0 erased, an empty list, and two malformed documents."""
    rng = random.Random(2021)
    docs = []
    for n in range(1, 13):
        cap = 6 if n == 12 else min(2 * n, 8)  # n = 12 stays sparse
        sets = []
        for K in sorted({rng.randint(0, cap), cap}):
            sets.append((f"channel K={K}", _subspace(rng, n, K)))
        near = range(2, min(2 * n - 1, cap) + 1)
        for K in rng.sample(near, min(2, len(near))):
            members = _subspace(rng, n, K)
            erased = members.copy()
            erased.remove(rng.choice(members[1:]))
            sets.append((f"erase one of K={K}", erased))
            sets.append((f"add one to K={K}", members + [_outsider(rng, n, members)]))
        K = rng.randint(1, min(cap, 2 * n - 1))
        members = _subspace(rng, n, K)
        sets.append((f"swap the largest of K={K}", members[:-1] + [_outsider(rng, n, members)]))
        sets.append((f"tau_0 erased K={K}", members[1:]))
        sets.append(("empty", []))
        for name, codes in sets:
            entries = _strings(n, codes)
            rng.shuffle(entries)
            docs.append((f"n={n} {name}", {"n": n, "preserved": entries}))
    docs.append(("bad digit", {"n": 2, "preserved": ["00", "0a"]}))
    docs.append(("short entry", {"n": 3, "preserved": ["000", "00"]}))
    return docs


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_oracle_lambda_min(text):
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not line.startswith("oracle_lambda_min:") and '"lambda_min":' not in line
    )


def test_bitmask_outputs_match_the_pinned_digest(tmp_path):
    digest = hashlib.sha256()

    def add(label, value):
        digest.update(f"{label}\0{value}\0".encode())

    for name, doc in _corpus():
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for fmt in ("text", "json"):
            for command in ("check", "decompose"):
                code, out, err = _run(["--format", fmt, command, str(path)])
                add(f"{name} {fmt} {command}", (code, _without_oracle_lambda_min(out), err))
        try:
            pce = load_channel_document(doc)
        except ValueError:
            continue
        assert isinstance(pce, PceMap)
        add(f"{name} dump", json.dumps(dump_channel_document(pce)))
        add(f"{name} preserved_indices", pce.preserved_indices())
        for k in range(1, pce.n + 1):
            tau = reflect(pce, k).tau.to_bytes((4**pce.n + 7) // 8, "little")
            add(f"{name} reflect {k}", hashlib.sha256(tau).hexdigest())
    assert digest.hexdigest() == DIGEST
