"""Fuzzed documents through the CLI: every call returns 0, 1 or 2 and never raises.

Documents are arbitrary JSON values or near-valid ones, in which any part may
be swapped for an arbitrary JSON value.  A state document that is accepted
must describe a density matrix.  Derandomized, so every run feeds the same
documents.
"""

import contextlib
import functools
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcekit.cli import main

FUZZ = settings(deadline=None, derandomize=True, max_examples=100)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])  # beyond float range
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

TOL = 1e-9  # the CLI's default --tol
VALID_STATE = {"n": 1, "components": [1.0, 0.5, 0.0, 0.5]}


def near(valid):
    """Mostly ``valid``; one time in four an arbitrary JSON value instead."""
    return st.integers(0, 3).flatmap(lambda k: JSON_VALUES if k == 0 else valid)


def sized_lists(elements, size):
    return st.lists(near(elements), min_size=size, max_size=size)


def digits(n):
    return st.text("0123", min_size=n, max_size=n)


@st.composite
def channel_documents(draw):
    n = draw(st.integers(1, 3))
    bits = st.text("01", min_size=2 * n, max_size=2 * n)
    key, entry = draw(st.sampled_from([("preserved", digits(n)), ("basis", bits)]))
    doc = {"n": draw(near(st.just(n))), key: draw(near(st.lists(near(entry), max_size=6)))}
    other_key = st.sampled_from(["preserved", "basis"])
    doc.update(draw(st.dictionaries(other_key, JSON_VALUES, max_size=1)))
    return draw(near(st.just(doc)))


@st.composite
def state_documents(draw):
    """(n, document); the unit-trace components are scaled so that some are
    positive semidefinite and some are not."""
    n = draw(st.integers(1, 3))
    number = st.floats(-1, 1)
    kind = draw(st.sampled_from(["components", "rho", "unit trace"]))
    if kind == "components":
        body = {"components": draw(near(sized_lists(number, 4**n)))}
    elif kind == "rho":
        row = sized_lists(sized_lists(number, 2), 2**n)
        body = {"rho": draw(near(sized_lists(row, 2**n)))}
    else:
        scale = draw(st.sampled_from([1.0, 2.0**-n, 4.0**-n]))
        rest = draw(st.lists(number, min_size=4**n - 1, max_size=4**n - 1))
        body = {"components": [1.0] + [scale * x for x in rest]}
    return n, draw(near(st.just({"n": draw(near(st.just(n))), **body})))


@st.composite
def process_documents(draw):
    term = st.fixed_dictionaries(
        {"alpha": near(digits(1)), "gamma": near(st.floats(0.1, 2))}
    )
    doc = {"terms": draw(near(st.lists(near(term), max_size=3)))}
    doc.update(draw(st.dictionaries(st.just("n"), near(st.just(1)), max_size=1)))
    return draw(near(st.just(doc)))


@st.composite
def schedule_documents(draw):
    doc = {"labels": draw(near(st.lists(near(digits(1)), max_size=3)))}
    doc.update(draw(st.dictionaries(st.just("n"), near(st.just(1)), max_size=1)))
    return draw(near(st.just(doc)))


def run(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def write(directory, name, doc) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(doc=channel_documents(), fmt=st.sampled_from(["text", "json"]))
def test_channel_documents_end_in_an_exit_code(tmp_path_factory, doc, fmt):
    path = write(tmp_path_factory.getbasetemp(), "fuzz_channel.json", doc)
    for argv in (["check", path], ["decompose", path], ["diagram", path]):
        assert run(["--format", fmt, *argv]) in (0, 1, 2), (argv, doc)


@functools.cache
def pauli_string(n: int, flat: int) -> np.ndarray:
    """Kronecker product of single-qubit Paulis, qubit 1 leftmost."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    out = np.ones((1, 1))
    for k in range(n):
        out = np.kron(out, paulis[(flat >> (2 * k)) & 3])
    return out


def density_matrix(n: int, doc: dict) -> np.ndarray:
    if "components" in doc:
        r = doc["components"]
        return sum(r[f] * pauli_string(n, f) for f in range(4**n)) / 2**n
    pairs = np.array(doc["rho"])
    return pairs[..., 0] + 1j * pairs[..., 1]


@FUZZ
@given(case=state_documents())
def test_state_documents_end_in_an_exit_code(tmp_path_factory, case):
    n, doc = case
    directory = tmp_path_factory.getbasetemp()
    state = write(directory, "fuzz_state.json", doc)
    process = write(directory, "fuzz_process.json", {"terms": [{"alpha": "3" * n, "gamma": 1.0}]})
    schedule = write(directory, "fuzz_schedule.json", {"labels": ["3" * n]})
    accepted = []
    for argv in (["evolve", process, state, "1.0", "--steps", "2"], ["collide", schedule, state]):
        code = run(argv)
        assert code in (0, 1, 2), (argv, doc)
        accepted.append(code == 0)
    if any(accepted):
        rho = density_matrix(n, doc)
        assert abs(np.trace(rho) - 1) <= TOL, doc
        assert np.linalg.eigvalsh(rho).min() >= -TOL, doc


@FUZZ
@given(process_doc=process_documents(), schedule_doc=schedule_documents())
def test_process_and_schedule_documents_end_in_an_exit_code(
    tmp_path_factory, process_doc, schedule_doc
):
    directory = tmp_path_factory.getbasetemp()
    state = write(directory, "fuzz_state.json", VALID_STATE)
    process = write(directory, "fuzz_process.json", process_doc)
    schedule = write(directory, "fuzz_schedule.json", schedule_doc)
    assert run(["evolve", process, state, "1.0", "--steps", "2"]) in (0, 1, 2), process_doc
    assert run(["collide", schedule, state]) in (0, 1, 2), schedule_doc
