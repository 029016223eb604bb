"""Fuzzed documents through the CLI: every call returns 0, 1 or 2 and never raises.

Documents are arbitrary JSON values or near-valid ones, in which any part may
be swapped for an arbitrary JSON value.  Derandomized, so every run feeds the
same documents.
"""

import contextlib
import io
import json

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

VALID_PROCESS = {"terms": [{"alpha": "3", "gamma": 1.0}]}
VALID_SCHEDULE = {"labels": ["3"]}
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
    n = draw(st.integers(1, 2))
    number = st.floats(-1, 1)
    if draw(st.booleans()):
        body = {"components": draw(near(sized_lists(number, 4**n)))}
    else:
        row = sized_lists(sized_lists(number, 2), 2**n)
        body = {"rho": draw(near(sized_lists(row, 2**n)))}
    return draw(near(st.just({"n": draw(near(st.just(n))), **body})))


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


@FUZZ
@given(doc=state_documents())
def test_state_documents_end_in_an_exit_code(tmp_path_factory, doc):
    directory = tmp_path_factory.getbasetemp()
    state = write(directory, "fuzz_state.json", doc)
    process = write(directory, "fuzz_process.json", VALID_PROCESS)
    schedule = write(directory, "fuzz_schedule.json", VALID_SCHEDULE)
    assert run(["evolve", process, state, "1.0", "--steps", "2"]) in (0, 1, 2), doc
    assert run(["collide", schedule, state]) in (0, 1, 2), doc


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
