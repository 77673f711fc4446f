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
    DocumentError,
    Formula,
    GenParams,
    NotTotalError,
    ProbstructError,
    StructureKind,
    UndefinedIncidenceError,
    ValidationError,
    WrongKindError,
    bel,
    coats_ds,
    coats_ic,
    ds_to_ic,
    equivalent,
    format_formula,
    from_json,
    ic_to_ds,
    incidence,
    interval,
    is_total,
    load,
    lower_incidence,
    mobius_mass,
    parse_formula,
    plb,
    random_ic,
    random_total_ds,
    round_trip_check,
    save,
    to_json,
    upper_incidence,
    validate,
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


WEIGHTS = ["0", "1", "2", "1/2", "1/3", "1/4", "3/4", "-1/2"]


@st.composite
def remapped_documents(draw):
    """A document with weights replaced, and worlds moved, copied or dropped
    between its incidence lists: most load, and many are invalid."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    lists = list(doc["incidence"].values())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["weight", "move", "copy", "drop"]))
        source, target = draw(st.sampled_from(lists)), draw(st.sampled_from(lists))
        if op == "weight":
            doc["measure"][draw(st.sampled_from(sorted(doc["measure"])))] = draw(st.sampled_from(WEIGHTS))
        elif source:
            world = draw(st.sampled_from(source))
            if op != "copy":
                source.remove(world)
            if op != "drop" and world not in target:
                target.append(world)
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
@given(mutated_documents() | remapped_documents())
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


# Each reader of a structure, the kind it requires (None: either) and the
# errors other than validate's that it may raise on a valid structure.
READERS = {
    "interval": (None, lambda st: [interval(st, Formula(st.lang, m)) for m in (0, 1, st.lang.full_mask)], ()),
    "incidence": (None, lambda st: incidence(st, Formula(st.lang, 1)), (UndefinedIncidenceError,)),
    "lower_incidence": (StructureKind.IC, lambda st: lower_incidence(st, Formula(st.lang, 1)), ()),
    "upper_incidence": (StructureKind.IC, lambda st: upper_incidence(st, Formula(st.lang, 1)), ()),
    "bel": (StructureKind.DS, lambda st: bel(st, Formula(st.lang, 1)), ()),
    "plb": (StructureKind.DS, lambda st: plb(st, Formula(st.lang, 1)), ()),
    "mobius_mass": (StructureKind.DS, mobius_mass, ()),
    "is_total": (StructureKind.DS, is_total, ()),
    "ic_to_ds": (StructureKind.IC, ic_to_ds, ()),
    "ds_to_ic": (StructureKind.DS, ds_to_ic, (NotTotalError,)),
    "equivalent": (None, lambda st: equivalent(st, st), ()),
    "round_trip_check": (None, round_trip_check, (NotTotalError,)),
}
# the brute-force and world-per-atom caps refuse a valid structure's language
CAPS = {"mobius_mass": 3, "ic_to_ds": 6, "round_trip_check": 6}
WEIGHTED = json.dumps({**DOCS[0], "measure": {"0": "1/4", "1": "1/2"}})


@FUZZ
@given(mutated_documents() | remapped_documents())
@example(WEIGHTED)
def test_every_reader_refuses_exactly_what_validate_lists(text):
    try:
        st = from_json(text, check=False)
    except DocumentError:
        return
    problems = validate(st).problems
    refusal = "; ".join(problems)
    for name, (kind, read, allowed) in READERS.items():
        if kind is not None and st.kind is not kind:
            with pytest.raises(WrongKindError):
                read(st)
            continue
        try:
            read(st)
        except ValidationError as e:
            capped = not problems and len(st.lang.props) > CAPS.get(name, 16)
            assert capped or str(e) == refusal, (name, str(e), refusal)
        except allowed:
            assert not problems, name
        else:
            assert not problems, name
    if problems:
        with pytest.raises(DocumentError) as refused:
            to_json(st)
        assert str(refused.value) == "refusing to serialize an invalid structure: " + refusal
    else:
        assert from_json(to_json(st)) == st


STRUCTURE = "structure must be ProbabilityStructure, got int"
FORMULA = "formula must be Formula, got str"

# public calls with an argument of the wrong type: each once raised a bare
# TypeError or AttributeError
WRONG_TYPES = {
    "from_json(None)": (lambda: from_json(None), DocumentError, "document text must be str or bytes, got NoneType"),
    "from_json(5)": (lambda: from_json(5), DocumentError, "document text must be str or bytes, got int"),
    "load(None)": (lambda: load(None), DocumentError, "document path must be str or os.PathLike, got NoneType"),
    "save(coats_ds(), None)": (
        lambda: save(coats_ds(), None), DocumentError, "document path must be str or os.PathLike, got NoneType"
    ),
    "to_json(5)": (lambda: to_json(5), ValidationError, STRUCTURE),
    "validate(5)": (lambda: validate(5), ValidationError, STRUCTURE),
    "StructureKind(5)": (lambda: StructureKind(5), ValidationError, "structure kind must be 'ic' or 'ds', got 5"),
    "interval(5, 'g')": (lambda: interval(5, "g"), ValidationError, STRUCTURE),
    "interval(coats_ds(), 'g')": (lambda: interval(coats_ds(), "g"), ValidationError, FORMULA),
    "interval(coats_ic(), 'g')": (lambda: interval(coats_ic(), "g"), ValidationError, FORMULA),
    "incidence(5, 'g')": (lambda: incidence(5, "g"), ValidationError, STRUCTURE),
    "lower_incidence(5, 'g')": (lambda: lower_incidence(5, "g"), ValidationError, STRUCTURE),
    "upper_incidence(5, 'g')": (lambda: upper_incidence(5, "g"), ValidationError, STRUCTURE),
    "bel(5, 'g')": (lambda: bel(5, "g"), ValidationError, STRUCTURE),
    "plb(5, 'g')": (lambda: plb(5, "g"), ValidationError, STRUCTURE),
    "bel(coats_ds(), 'g')": (lambda: bel(coats_ds(), "g"), ValidationError, FORMULA),
    "plb(coats_ds(), 'g')": (lambda: plb(coats_ds(), "g"), ValidationError, FORMULA),
    "incidence(coats_ic(), 'g')": (lambda: incidence(coats_ic(), "g"), ValidationError, FORMULA),
    "lower_incidence(coats_ic(), 'g')": (lambda: lower_incidence(coats_ic(), "g"), ValidationError, FORMULA),
    "upper_incidence(coats_ic(), 'g')": (lambda: upper_incidence(coats_ic(), "g"), ValidationError, FORMULA),
    "is_total(5)": (lambda: is_total(5), ValidationError, STRUCTURE),
    "mobius_mass(5)": (lambda: mobius_mass(5), ValidationError, STRUCTURE),
    "ic_to_ds(5)": (lambda: ic_to_ds(5), ValidationError, STRUCTURE),
    "ds_to_ic(5)": (lambda: ds_to_ic(5), ValidationError, STRUCTURE),
    "equivalent(coats_ds(), 5)": (lambda: equivalent(coats_ds(), 5), ValidationError, STRUCTURE),
    "round_trip_check(5)": (lambda: round_trip_check(5), ValidationError, STRUCTURE),
    "format_formula(5)": (lambda: format_formula(5), ValidationError, "formula must be Formula, got int"),
    "formula & 5": (lambda: parse_formula("g", LANG) & 5, ValidationError, "formula must be Formula, got int"),
}


@pytest.mark.parametrize("call", list(WRONG_TYPES))
def test_wrong_argument_types_raise_probstruct_errors(call):
    run, error, message = WRONG_TYPES[call]
    with pytest.raises(Exception) as err:
        run()
    assert type(err.value) is error
    assert str(err.value) == message
