"""The benchmark's workloads, each one pass of operations built from a seed.

A pass is a fixed list of operations.  The seed picks the subspaces, flips,
labels, states and sample seeds; the sizes (n, K, term and label counts),
the kind of every near-channel flip, and the counts and order of operations
never depend on it, so every seed asks for the same amount of work and the
run-to-run spread reflects the program, not the draw.

The counts are chosen so that the median and the tail land where operations
of similar cost crowd together (see README.md), which keeps both order
statistics steady from seed to seed.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from . import checker
from .checker import CliResult
from .inputs import (
    InputWriter,
    gaussian_binomial,
    make_channel,
    make_near_channel,
    product_state,
    to_base4,
)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call`` runs it, ``check`` judges its result."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


class PassPlan:
    """Collects a pass's operations and folds each into the input digest."""

    def __init__(self, pk, writer: InputWriter):
        self.pk = pk
        self.writer = writer
        self.ops: list[Op] = []

    def cli(self, kind: str, argv: list[str], check) -> None:
        root = str(self.writer.directory)
        self.writer.note(" ".join(Path(a).name if a.startswith(root) else a for a in argv))
        cli = self.pk.cli

        def call() -> CliResult:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return CliResult(code, out.getvalue(), err.getvalue())

        self.ops.append(Op(kind, call, check))

    def lib(self, kind: str, description: str, call, check) -> None:
        self.writer.note(f"{kind} {description}")
        self.ops.append(Op(kind, call, check))


def _reflect_twice(pk, pce, k):
    once = pk.reflect(pce, k)
    return once, pk.reflect(once, k)


# (n, K) per seeded channel; each also gets a near-channel twin.  K runs from
# sparse to dense, and the densest configuration at each n has
# popcount * 4**n = 2**30, the same loop cost: K = 2n - 2 at n = 8, 12 at
# n = 9 and at most 10 at n = 10-11.  The intermediate K values fill in the
# middle of the latency distribution, so the median has close neighbours.
BITMASK_CONFIGS = [
    (7, 3), (7, 5), (7, 7), (7, 9), (7, 10), (7, 12),
    (8, 4), (8, 6), (8, 7), (8, 9), (8, 11), (8, 14),
    (9, 5), (9, 7), (9, 8), (9, 10), (9, 12),
    (10, 4), (10, 6), (10, 7), (10, 10),
    (11, 4), (11, 8),
]
BITMASK_TINY = [(3, 2), (3, 5), (4, 3)]


def bitmask(pk, rng: random.Random, writer: InputWriter, tiny: bool = False) -> list[Op]:
    """CLI check/decompose and library round-trips on "preserved" documents."""
    p = PassPlan(pk, writer)
    for index, (n, K) in enumerate(BITMASK_TINY if tiny else BITMASK_CONFIGS):
        for ch in (make_channel(rng, n, K), make_near_channel(rng, n, K, erase=index % 2 == 0)):
            tag = "channel" if ch.is_channel else "near"
            path = writer.write(f"bitmask-{tag}-n{n}-K{K}", ch.preserved_doc())
            p.cli("check", ["--format", "json", "check", path], partial(checker.check_report, ch))
            p.cli(
                "decompose",
                ["--format", "json", "decompose", path],
                partial(checker.check_decompose, ch),
            )
            pce = pk.PceMap(n, ch.tau)
            if ch.is_channel:
                p.lib(
                    "recompose_decompose",
                    Path(path).name,
                    lambda pce=pce: pk.recompose(pk.decompose(pce)),
                    partial(checker.check_bitmask, ch.tau, n),
                )
            k = rng.randint(1, n)
            p.lib(
                "reflect_twice",
                f"{Path(path).name} k={k}",
                partial(_reflect_twice, pk, pce, k),
                partial(checker.check_reflections, ch, k),
            )
    return p.ops


# (n, K) per "basis" document.  n = 12 builds the 4**n bitmask and runs the
# sign transform; sixteen n = 10 checks form the tail block: with n = 11
# checks there (32 MiB arrays) the tail's median moved by 17% between two
# sets of runs of the same code while the host-speed probe did not, which
# fits other tenants' use of the shared cache; n >= 14 is pure GF(2) work.  n = 13 is decomposed but not checked: one check there
# takes about 11 s and 1.8 GB, more than a run can repeat.
BASIS_DOCS = (
    [(13, 13), (12, 12)]
    + [(10, K) for K in (3, 4, 5, 6, 7, 8, 9, 11, 12, 12, 14, 15, 16, 16, 18, 20)]
    + [(14, 7), (14, 21), (15, 8), (15, 22), (16, 10), (16, 26)]
)
BASIS_TINY = [(5, 3), (6, 7), (14, 9)]
# K of the two channels of each same-n compose pair, as fractions of n.
COMPOSE_PAIRS = [(1 / 2, 1), (1, 3 / 2)]
CHECK_SKIPPED_N = 13


def basis(pk, rng: random.Random, writer: InputWriter, tiny: bool = False) -> list[Op]:
    """CLI check/decompose on "basis" documents and library compose."""
    p = PassPlan(pk, writer)
    docs = BASIS_TINY if tiny else BASIS_DOCS
    for n, K in docs:
        ch = make_channel(rng, n, K)
        path = writer.write(f"basis-n{n}-K{K}", ch.basis_doc())
        if n != CHECK_SKIPPED_N:
            p.cli("check", ["--format", "json", "check", path], partial(checker.check_report, ch))
        p.cli(
            "decompose", ["--format", "json", "decompose", path], partial(checker.check_decompose, ch)
        )
    for n in sorted({n for n, _ in docs}):
        for fractions in COMPOSE_PAIRS:
            pair = [make_channel(rng, n, int(f * n)) for f in fractions]
            loaded = []
            for ch in pair:
                path = writer.write(f"compose-n{n}-K{ch.K}", ch.basis_doc())
                loaded.append(pk.load_channel_document(json.loads(Path(path).read_text())))
            p.lib(
                "compose",
                f"n={n}",
                lambda a=loaded[0], b=loaded[1]: pk.compose(a, b),
                lambda result, a=pair[0], b=pair[1]: checker.check_intersection(a, b, result.basis),
            )
    return p.ops


class EnumerationPages:
    """Pages of the stream of every n-qubit channel, K = 0 .. 2n in turn.

    The first page of a pass starts a fresh stream, so each pass enumerates
    every channel once and the checker sees the whole sweep.
    """

    def __init__(self, pk, n: int, page: int):
        self.pk, self.n, self.page = pk, n, page
        self.total = sum(gaussian_binomial(2 * n, K) for K in range(2 * n + 1))
        self.stream = iter(())
        self.sweep = checker.EnumerationSweep(n)

    def _channels(self):
        for K in range(2 * self.n + 1):
            yield from self.pk.enumerate_subspaces(self.n, K)

    def add_to(self, p: PassPlan) -> None:
        pages = -(-self.total // self.page)
        for index in range(pages):
            p.lib(
                "enumerate_page",
                f"n={self.n} page={index}/{pages} size={self.page}",
                partial(self._next_page, index),
                partial(self._check_page, final=index == pages - 1),
            )

    def _next_page(self, index: int):
        if index == 0:
            self.stream = self._channels()
            self.sweep = checker.EnumerationSweep(self.n)
        return list(itertools.islice(self.stream, self.page))

    def _check_page(self, page, final: bool):
        return self.sweep.check_page(page, final)


EVOLVE_TERMS = 2
COLLIDE_LABELS = 3


def _label(rng: random.Random, n: int) -> int:
    return rng.randrange(1, 4**n)


def small_n(pk, rng: random.Random, writer: InputWriter, tiny: bool = False) -> list[Op]:
    """census, enumeration pages, verify, dense-oracle check, diagrams,
    evolve and collide."""
    p = PassPlan(pk, writer)
    census_n, enum_n, verify_n, page = (2, 2, 1, 16) if tiny else (3, 4, 2, 16384)
    samples, sampled_runs, check_docs = (20, 2, 1) if tiny else (250, 10, 5)
    evolve_ns, collide_ns = ((2,), (2,)) if tiny else ((4, 4, 5, 5), (2, 2, 3, 3, 4, 4))

    p.cli("census", ["--format", "json", "census", str(census_n)], partial(checker.check_census, census_n))
    EnumerationPages(pk, enum_n, page).add_to(p)
    p.cli(
        "verify_exhaustive",
        ["--format", "json", "verify", str(verify_n), "--exhaustive"],
        lambda r: checker.check_verify(r, verify_n, None, None),
    )
    for _ in range(sampled_runs):
        seed = rng.randrange(2**31)
        p.cli(
            "verify_sampled",
            ["--format", "json", "--seed", str(seed), "verify", "3", "--samples", str(samples)],
            lambda r, seed=seed: checker.check_verify(r, 3, samples, seed),
        )
    for n in (1, 2, 3):
        # K cycles through 1 .. 2n-1 in a fixed order.
        Ks = itertools.cycle(range(1, 2 * n))
        for i in range(check_docs):
            for ch, form in (
                (make_channel(rng, n, next(Ks)), "preserved"),
                (make_near_channel(rng, n, next(Ks), erase=i % 2 == 0), "preserved"),
                (make_channel(rng, n, next(Ks)), "basis"),
            ):
                doc = ch.preserved_doc() if form == "preserved" else ch.basis_doc()
                path = writer.write(f"small-{form}-n{n}", doc)
                p.cli("check_dense", ["--format", "json", "check", path], partial(checker.check_report, ch))
        for ch, doc in (
            (near := make_near_channel(rng, n, n, erase=True), near.preserved_doc()),
            (chan := make_channel(rng, n, n + 1), chan.basis_doc()),
        ):
            path = writer.write(f"diagram-n{n}", doc)
            p.cli("diagram_ascii", ["diagram", path], partial(checker.check_ascii, ch))
            p.cli("diagram_svg", ["diagram", path, "--format", "svg"], partial(checker.check_svg, ch))
    for n in evolve_ns:
        terms = [(_label(rng, n), round(rng.uniform(0.2, 2.0), 3)) for _ in range(EVOLVE_TERMS)]
        r0 = product_state(rng, n)
        t = round(rng.uniform(0.5, 3.0), 2)
        proc = writer.write(
            f"process-n{n}",
            {"n": n, "terms": [{"alpha": to_base4(a, n), "gamma": g} for a, g in terms]},
        )
        state = writer.write(f"state-n{n}", {"n": n, "components": r0})
        p.cli(
            "evolve",
            ["evolve", proc, state, str(t), "--steps", "20"],
            partial(checker.check_evolve, n, terms, r0, t, 20),
        )
    for n in collide_ns:
        labels = [_label(rng, n) for _ in range(COLLIDE_LABELS)]
        r0 = product_state(rng, n)
        sched = writer.write(f"schedule-n{n}", {"n": n, "labels": [to_base4(a, n) for a in labels]})
        state = writer.write(f"state-n{n}", {"n": n, "components": r0})
        p.cli("collide", ["collide", sched, state], partial(checker.check_collide, n, labels, r0))
    return p.ops


WORKLOADS = {"bitmask": bitmask, "basis": basis, "small-n": small_n}
# Workloads whose time goes mostly to numpy kernels over arrays larger than
# a core's cache (basis: `pauli.sign_transform` on 4**n entries); their host-speed
# samples also stream through such an array (see `perfbench.calibration`).
MEMORY_BOUND = {"basis"}
