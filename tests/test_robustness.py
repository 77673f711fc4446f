"""Mutated documents and formula text: only ProbstructError escapes the
library, and the CLI exits with one of its documented codes 0-3."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probstruct import (
    GenParams,
    ProbstructError,
    coats_ds,
    coats_ic,
    format_formula,
    from_json,
    parse_formula,
    random_ic,
    random_total_ds,
    to_json,
)
from probstruct.cli import main

DOCS = [
    json.loads(to_json(build()))
    for build in (
        coats_ds,
        coats_ic,
        lambda: random_ic(GenParams(2, 3, 11)),
        lambda: random_total_ds(GenParams(3, 4, 12)),
    )
]

FIELDS = ["kind", "propositions", "worlds", "chi_basis", "measure", "psi_basis", "incidence"]
WORDS = ["ic", "ds", "g", "d", "s1", "w1", "0", "1", "1/2", "-1/2", "1/0", "~g & d", "true", ""]

LONG_WEIGHT = json.dumps({**DOCS[0], "measure": {"0": "1" * 5000, "1": "1/2"}})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS + WORDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(list(_containers(doc))))
        op = draw(st.sampled_from(["drop", "add", "replace"]))
        if isinstance(target, dict):
            keys = list(target)
            if op == "add" or not keys:
                target[draw(st.sampled_from(FIELDS + WORDS) | st.text(max_size=4))] = draw(json_values)
            elif op == "drop":
                del target[draw(st.sampled_from(keys))]
            else:
                target[draw(st.sampled_from(keys))] = draw(json_values)
        else:
            if op == "add" or not target:
                target.insert(draw(st.integers(0, len(target))), draw(json_values))
            elif op == "drop":
                del target[draw(st.integers(0, len(target) - 1))]
            else:
                target[draw(st.integers(0, len(target) - 1))] = draw(json_values)
    return json.dumps(doc, indent=2)


LANG = coats_ds().lang
FORMULAS = [format_formula(parse_formula(t, LANG)) for t in ("g", "~d", "g & d", "g | ~d", "true")]
TOKENS = ["~", "&", "|", "(", ")", " ", "g", "d", "x", "true", "false", "~~", "(("]


@st.composite
def mutated_formulas(draw):
    text = draw(st.sampled_from(FORMULAS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["drop", "add", "replace"]))
        piece = draw(st.sampled_from(TOKENS) | st.text(max_size=2))
        if op == "drop":
            text = text[:i] + text[i + 1:]
        elif op == "add":
            text = text[:i] + piece + text[i:]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


def run_cli(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as e:  # argparse rejecting the arguments
            return e.code


FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("robustness")
    (path / "coats.json").write_text(to_json(coats_ds()))
    return path


@FUZZ
@given(mutated_documents())
@example("[" * 100000)
@example(LONG_WEIGHT)
def test_mutated_documents(workdir, text):
    try:
        from_json(text)
    except ProbstructError:
        pass
    path = str(workdir / "mutated.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in (
        ["validate", path],
        ["interval", path, "g | ~d"],
        ["translate", path, "--to-ds"],
        ["translate", path, "--to-ic"],
        ["equiv", path, path],
    ):
        assert run_cli(argv) in (0, 1, 2, 3), argv


@FUZZ
@given(mutated_formulas())
def test_mutated_formulas(workdir, text):
    try:
        parse_formula(text, LANG)
    except ProbstructError:
        pass
    assert run_cli(["interval", str(workdir / "coats.json"), text]) in (0, 1, 2, 3)
    assert run_cli(["parse", "--props", "g,d", text]) in (0, 1, 2, 3)
