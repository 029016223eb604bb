"""In-memory spans around pcekit's public functions, installed from outside.

`Tracer.install` replaces each traced function by a wrapper in every pcekit
module namespace that binds it (``pcekit``, ``pcekit.cli``, the defining
module, ...), so calls made through any import path are recorded, and
`Tracer.uninstall` puts the originals back.  Nothing under ``src/`` changes.

A span has a name, start, end, parent span and operation id.  Self time is a
span's duration minus the time its child spans cover, accumulated as spans
close.  Spans are kept in compact arrays, up to `SPAN_CAP` of them, and
written out when the run ends; the totals cover every span, kept or not.

The run is single-threaded, so no span waits on a queue and no wait time is
recorded.  Logic that still lives in ``pcekit.cli`` (the batched dense-oracle
eigen-solve in ``_dense_cp_flags``, ``eigvalsh`` in ``cmd_check`` and the
recompose fold in ``cmd_decompose``) is not wrapped, so its time counts in
``cli.self_s``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SPAN_CAP = 250_000

# (module, attribute, span name).  "Class.method" attributes are patched on
# the class.
TARGETS = [
    ("pcekit.cli", "main", "cli.main"),
    ("pcekit.maps", "PceMap.preserved_indices", "maps.preserved_indices"),
    ("pcekit.maps", "is_closed_subspace", "maps.is_closed_subspace"),
    ("pcekit.maps", "closure_witness", "maps.closure_witness"),
    ("pcekit.maps", "map_to_subspace", "maps.map_to_subspace"),
    ("pcekit.maps", "reflect", "maps.reflect"),
    ("pcekit.maps", "subspace_to_map", "maps.subspace_to_map"),
    ("pcekit.maps", "choi_spectrum", "maps.choi_spectrum"),
    ("pcekit.maps", "load_channel_document", "maps.load_channel_document"),
    ("pcekit.maps", "compose", "maps.compose"),
    ("pcekit.pauli", "sign_transform", "pauli.sign_transform"),
    ("pcekit.pauli", "symplectic_product_row", "pauli.symplectic_product_row"),
    ("pcekit.gf2", "rref", "gf2.rref"),
    ("pcekit.gf2", "nullspace", "gf2.nullspace"),
    ("pcekit.gf2", "intersect", "gf2.intersect"),
    ("pcekit.gf2", "span", "gf2.span"),
    ("pcekit.generators", "decompose", "generators.decompose"),
    ("pcekit.generators", "recompose", "generators.recompose"),
    ("pcekit.generators", "generator_map", "generators.generator_map"),
    ("pcekit.generators", "generator_subspace", "generators.generator_subspace"),
    ("pcekit.enumeration", "enumerate_subspaces", "enumeration.enumerate_subspaces"),
    ("pcekit.enumeration", "recount_by_enumeration", "enumeration.recount_by_enumeration"),
    ("pcekit.dense", "choi_basis_terms", "dense.choi_basis_terms"),
    ("pcekit.dense", "choi_dense", "dense.choi_dense"),
    ("pcekit.dense", "pauli_components", "dense.pauli_components"),
    ("pcekit.dense", "from_pauli_components", "dense.from_pauli_components"),
    ("pcekit.dynamics", "evolve_components", "dynamics.evolve_components"),
    ("pcekit.dynamics", "decay_rates", "dynamics.decay_rates"),
    ("pcekit.dynamics", "collide", "dynamics.collide"),
    ("pcekit.diagram", "render_ascii", "diagram.render_ascii"),
    ("pcekit.diagram", "render_svg", "diagram.render_svg"),
]

# Work counters kept at a span boundary: span name -> (counter, amount).
# maps.tau_bits sums 4**n over the two loops that walk the bitmask.
COUNTS = {
    "maps.preserved_indices": ("maps.tau_bits", lambda args: 4 ** args[0].n),
    "maps.reflect": ("maps.tau_bits", lambda args: 4 ** args[0].n),
    "pauli.sign_transform": ("pauli.sign_transform.elements", lambda args: np.size(args[0])),
}

# Spans opened by the benchmark itself, not by a pcekit function.
OP_SPAN = "bench.op"
ENUM_NEXT_SPAN = "enumeration.next"


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.op_id = -1
        self.enum_depth = 0
        self._stack: list[list] = []
        self._next_index = 0
        self._t0 = time.perf_counter()
        self._ints = {key: array("q") for key in ("index", "parent", "op", "name")}
        self._times = {key: array("d") for key in ("start", "end")}
        self._patches: list[tuple[object, str, object]] = []

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def enter(self, sid: int) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([sid, time.perf_counter(), 0.0, self._next_index, parent])
        self._next_index += 1

    def leave(self) -> None:
        end = time.perf_counter()
        sid, start, covered, index, parent = self._stack.pop()
        duration = end - start
        self.self_s[sid] += duration - covered
        self.calls[sid] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index < SPAN_CAP:
            for key, value in zip(("index", "parent", "op", "name"), (index, parent, self.op_id, sid)):
                self._ints[key].append(value)
            self._times["start"].append(start - self._t0)
            self._times["end"].append(end - self._t0)

    @property
    def spans(self) -> int:
        return self._next_index

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        sid = self.span_id(name)
        enter, leave, counters = self.enter, self.leave, self.counters

        if name == "gf2.rref":

            def traced(vectors, *args, **kwargs):
                vectors = list(vectors)
                counters["gf2.rref.vectors_in"] += len(vectors)
                if self.enum_depth:
                    counters["enumeration.rref"] += 1
                enter(sid)
                try:
                    return fn(vectors, *args, **kwargs)
                finally:
                    leave()

            return traced

        if name == "enumeration.enumerate_subspaces":
            next_sid = self.span_id(ENUM_NEXT_SPAN)

            def traced(*args, **kwargs):
                enter(sid)
                try:
                    stream = fn(*args, **kwargs)
                finally:
                    leave()
                return _TracedStream(self, stream, next_sid)

            return traced

        key, count = COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            if key is not None:
                counters[key] += count(args)
            enter(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pcekit"]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(original, span))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def total_self(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def total_calls(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric of `LAYER_METRICS`, by name, per traced pass
        (ratios as they are)."""
        return {name: how(self) if unit == "ratio" else how(self) / passes
                for name, unit, _, how in LAYER_METRICS}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            **{key: np.frombuffer(values, dtype=np.int64) for key, values in self._ints.items()},
            **{key: np.frombuffer(values, dtype=np.float64) for key, values in self._times.items()},
        )


class _TracedStream:
    """The enumeration stream with one span per yielded subspace."""

    def __init__(self, tracer: Tracer, stream, sid: int):
        self.tracer, self.stream, self.sid = tracer, stream, sid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.enter(self.sid)
        tracer.enum_depth += 1
        try:
            item = next(self.stream)
        finally:
            tracer.enum_depth -= 1
            tracer.leave()
        tracer.counters["enumeration.subspaces"] += 1
        return item


def _self(name):
    return lambda t: t.total_self(name)


def _calls(name):
    return lambda t: t.total_calls(name)


def _counter(name):
    return lambda t: t.counters[name]


def _enumeration_self(t: Tracer) -> float:
    return sum(t.total_self(n) for n in t.names if n.startswith("enumeration."))


def _rref_per_subspace(t: Tracer) -> float:
    made = t.counters["enumeration.subspaces"]
    return t.counters["enumeration.rref"] / made if made else 0.0


# (metric, unit, better, how).  ".s" is self time in seconds, and counts are
# totals, both summed over the traced passes and divided by their number.
LAYER_METRICS = [
    ("cli.calls", "count", "lower", _calls("cli.main")),
    ("cli.self_s", "s", "lower", _self("cli.main")),
    ("cli.stdout_bytes", "bytes", "lower", _counter("cli.stdout_bytes")),
    ("maps.preserved_indices.calls", "count", "lower", _calls("maps.preserved_indices")),
    ("maps.preserved_indices.s", "s", "lower", _self("maps.preserved_indices")),
    ("maps.is_closed_subspace.s", "s", "lower", _self("maps.is_closed_subspace")),
    ("maps.closure_witness.s", "s", "lower", _self("maps.closure_witness")),
    ("maps.map_to_subspace.s", "s", "lower", _self("maps.map_to_subspace")),
    ("maps.reflect.s", "s", "lower", _self("maps.reflect")),
    ("maps.tau_bits", "bits", "lower", _counter("maps.tau_bits")),
    ("maps.subspace_to_map.s", "s", "lower", _self("maps.subspace_to_map")),
    ("maps.choi_spectrum.s", "s", "lower", _self("maps.choi_spectrum")),
    ("maps.load_channel_document.s", "s", "lower", _self("maps.load_channel_document")),
    ("maps.compose.s", "s", "lower", _self("maps.compose")),
    ("pauli.sign_transform.calls", "count", "lower", _calls("pauli.sign_transform")),
    ("pauli.sign_transform.s", "s", "lower", _self("pauli.sign_transform")),
    ("pauli.sign_transform.elements", "count", "lower", _counter("pauli.sign_transform.elements")),
    ("pauli.symplectic_product_row.s", "s", "lower", _self("pauli.symplectic_product_row")),
    ("gf2.rref.calls", "count", "lower", _calls("gf2.rref")),
    ("gf2.rref.vectors_in", "count", "lower", _counter("gf2.rref.vectors_in")),
    ("gf2.rref.s", "s", "lower", _self("gf2.rref")),
    ("gf2.nullspace.s", "s", "lower", _self("gf2.nullspace")),
    ("gf2.intersect.s", "s", "lower", _self("gf2.intersect")),
    ("gf2.span.s", "s", "lower", _self("gf2.span")),
    ("generators.decompose.s", "s", "lower", _self("generators.decompose")),
    ("generators.recompose.s", "s", "lower", _self("generators.recompose")),
    ("generators.generator_map.calls", "count", "lower", _calls("generators.generator_map")),
    ("generators.generator_subspace.s", "s", "lower", _self("generators.generator_subspace")),
    ("enumeration.subspaces", "count", "higher", _counter("enumeration.subspaces")),
    ("enumeration.self_s", "s", "lower", _enumeration_self),
    ("enumeration.rref_per_subspace", "ratio", "lower", _rref_per_subspace),
    ("dense.choi_basis_terms.s", "s", "lower", _self("dense.choi_basis_terms")),
    ("dense.choi_dense.s", "s", "lower", _self("dense.choi_dense")),
    ("dense.pauli_components.s", "s", "lower", _self("dense.pauli_components")),
    ("dense.from_pauli_components.s", "s", "lower", _self("dense.from_pauli_components")),
    ("dynamics.evolve_components.s", "s", "lower", _self("dynamics.evolve_components")),
    ("dynamics.decay_rates.s", "s", "lower", _self("dynamics.decay_rates")),
    ("dynamics.collide.s", "s", "lower", _self("dynamics.collide")),
    ("diagram.render_ascii.s", "s", "lower", _self("diagram.render_ascii")),
    ("diagram.render_svg.s", "s", "lower", _self("diagram.render_svg")),
]
