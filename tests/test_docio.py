"""Structure document serialization: canonical form, strict loading."""

import json

import pytest

from probstruct import (
    DocumentError,
    GenParams,
    Language,
    coats_ds,
    coats_ic,
    format_formula,
    from_json,
    load,
    parse_formula,
    random_ic,
    random_total_ds,
    save,
    to_json,
    validate,
)
import probstruct.docio as docio
from probstruct.cli import main


def test_fixture_documents_round_trip_byte_identically():
    for build in (coats_ds, coats_ic):
        text = to_json(build())
        assert to_json(from_json(text)) == text


def test_save_load_files(tmp_path):
    path = tmp_path / "coats.json"
    save(coats_ds(), path)
    assert load(path) == coats_ds()


def test_random_structures_survive_round_trip():
    for seed in range(50):
        ic = random_ic(GenParams(1 + seed % 3, 1 + seed % 8, 7000 + seed))
        assert from_json(to_json(ic)) == ic
        ds = random_total_ds(GenParams(1 + seed % 3, 1 + seed % 8, 7000 + seed))
        assert from_json(to_json(ds)) == ds


def test_canonical_field_order():
    ds_doc = json.loads(to_json(coats_ds()))
    assert list(ds_doc) == ["kind", "propositions", "worlds", "chi_basis", "measure", "incidence"]
    ic_doc = json.loads(to_json(coats_ic()))
    assert list(ic_doc) == ["kind", "propositions", "worlds", "measure", "psi_basis", "incidence"]
    # ds incidence keys follow atom index order
    assert list(ds_doc["incidence"]) == ["(~g & ~d)", "(g & ~d)", "(~g & d)", "(g & d)"]


def test_rationals_are_reduced_on_save():
    text = to_json(coats_ds()).replace('"1/2"', '"2/4"', 1)
    assert '"2/4"' in text
    assert to_json(from_json(text)) == to_json(coats_ds())


def edited(build, mutate) -> str:
    doc = json.loads(to_json(build()))
    mutate(doc)
    return json.dumps(doc)


def test_rejects_bad_weight_sum():
    text = edited(coats_ds, lambda d: d["measure"].update({"0": "1/4"}))
    with pytest.raises(DocumentError, match="sum to 3/4"):
        from_json(text)
    # but the unchecked form loads, for validation reporting
    st = from_json(text, check=False)
    assert not validate(st).ok


def test_rejects_redundant_basis_fields():
    text = edited(coats_ds, lambda d: d.update({"psi_basis": []}))
    with pytest.raises(DocumentError, match="redundant"):
        from_json(text)
    text = edited(coats_ic, lambda d: d.update({"chi_basis": []}))
    with pytest.raises(DocumentError, match="redundant"):
        from_json(text)


def test_rejects_unknown_and_missing_fields():
    with pytest.raises(DocumentError, match="unknown field"):
        from_json(edited(coats_ds, lambda d: d.update({"comment": "hi"})))
    with pytest.raises(DocumentError, match="missing field"):
        from_json(edited(coats_ds, lambda d: d.pop("measure")))


def test_rejects_bad_kind():
    with pytest.raises(DocumentError, match="kind"):
        from_json(edited(coats_ds, lambda d: d.update({"kind": "both"})))


def test_parse_error_carries_position():
    with pytest.raises(DocumentError, match=r"line 1, column 2"):
        from_json("{nope")


@pytest.mark.parametrize(
    "make_text",
    [
        pytest.param(lambda: "[" * 100000, id="deep-nesting"),
        pytest.param(
            lambda: edited(coats_ds, lambda d: d["measure"].update({"0": "1" * 5000})),
            id="5000-digit-weight",
        ),
    ],
)
def test_rejects_runaway_input(make_text, tmp_path, capsys):
    text = make_text()
    with pytest.raises(DocumentError):
        from_json(text)
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_rejects_duplicate_keys():
    with pytest.raises(DocumentError, match="duplicate key"):
        from_json('{"kind": "ic", "kind": "ds"}')


def test_rejects_bad_rational():
    with pytest.raises(DocumentError, match="rational"):
        from_json(edited(coats_ds, lambda d: d["measure"].update({"0": "0.5"})))


def test_rejects_bad_measure_keys():
    with pytest.raises(DocumentError, match="keys 0..1"):
        from_json(edited(coats_ds, lambda d: d["measure"].pop("1")))


def test_rejects_unknown_world_in_incidence():
    with pytest.raises(DocumentError, match="unknown world"):
        from_json(
            edited(coats_ds, lambda d: d["incidence"].update({"(~g & d)": ["s9"]}))
        )


def test_rejects_repeated_world_in_block():
    with pytest.raises(DocumentError, match="^chi_basis block 0 repeats a world name$"):
        from_json(
            edited(coats_ds, lambda d: d["chi_basis"].__setitem__(0, ["s1", "s1", "s2"]))
        )
    with pytest.raises(DocumentError, match="^chi_basis block 1 must be a list of strings$"):
        from_json(edited(coats_ds, lambda d: d["chi_basis"].__setitem__(1, "s1")))


def test_rejects_overlapping_psi_basis():
    def mutate(d):
        d["psi_basis"][2] = "(~g & d) | (~g & ~d)"
        d["incidence"]["(~g & d) | (~g & ~d)"] = d["incidence"].pop("(~g & d)")

    with pytest.raises(DocumentError, match="overlap"):
        from_json(edited(coats_ic, mutate))


def test_rejects_incidence_key_outside_basis():
    def mutate(d):
        d["incidence"]["(~g & d) | (g & d)"] = d["incidence"].pop("(~g & d)")

    with pytest.raises(DocumentError, match="not a psi_basis block"):
        from_json(edited(coats_ic, mutate))


def test_rejects_block_spelled_two_ways():
    def mutate(d):
        d["incidence"]["g"] = ["w1"]

    with pytest.raises(DocumentError, match="duplicate incidence"):
        from_json(edited(coats_ic, mutate))


def test_rejects_non_atomic_ds_incidence_key():
    def mutate(d):
        d["incidence"]["~g"] = d["incidence"].pop("(~g & d)")

    with pytest.raises(DocumentError, match="single atoms"):
        from_json(edited(coats_ds, mutate))


def test_rejects_missing_atom_incidence():
    with pytest.raises(DocumentError, match="cover all 4 atoms"):
        from_json(edited(coats_ds, lambda d: d["incidence"].pop("(~g & d)")))


def test_rejects_unparseable_incidence_key():
    def mutate(d):
        d["incidence"]["g &"] = d["incidence"].pop("(~g & d)")

    with pytest.raises(DocumentError):
        from_json(edited(coats_ds, mutate))


def test_rejects_non_object_document():
    with pytest.raises(DocumentError, match="JSON object"):
        from_json("[1, 2]")


def test_save_refuses_invalid_structure(tmp_path):
    st = from_json(
        edited(coats_ds, lambda d: d["measure"].update({"0": "1/4"})), check=False
    )
    with pytest.raises(DocumentError, match="refusing"):
        to_json(st)


def test_loading_formats_no_formula(monkeypatch):
    texts = [
        to_json(build(GenParams(3, 8, 7100 + seed)))
        for seed in range(3)
        for build in (random_ic, random_total_ds)
    ]
    calls = []

    def counted(f):
        calls.append(f)
        return format_formula(f)

    monkeypatch.setattr(docio, "format_formula", counted)
    for text in texts:
        from_json(text)
    assert calls == []


@pytest.mark.parametrize(
    "build, key, names, message",
    [
        (coats_ds, "(~g & d)", ["s1", "s1"], "incidence of '(~g & d)' repeats a world name"),
        (coats_ds, "d & ~g", ["s3", "s3"], "incidence of '(~g & d)' repeats a world name"),
        (coats_ic, "(~g & d)", ["w1", "w1"], "incidence of '(~g & d)' repeats a world name"),
        (coats_ic, "g", ["w2", "w2"], "incidence of '(g & ~d) | (g & d)' repeats a world name"),
        (coats_ds, "(~g & d)", "s1", "incidence of '(~g & d)' must be a list of strings"),
    ],
)
def test_incidence_list_errors_name_the_canonical_key(build, key, names, message):
    def mutate(d):
        canonical = str(parse_formula(key, Language(tuple(d["propositions"]))))
        del d["incidence"][canonical]
        d["incidence"][key] = names

    with pytest.raises(DocumentError) as err:
        from_json(edited(build, mutate))
    assert str(err.value) == message


def test_validate_lists_a_weight_sum_too_long_to_write(tmp_path, capsys):
    # each literal is within the digit limit; their sum is not
    weights = {str(i): f"1/{10**3000 + 2 * i + 1}" for i in range(4)}
    doc = {
        "kind": "ic",
        "propositions": ["a"],
        "worlds": ["w1", "w2", "w3", "w4"],
        "measure": weights,
        "psi_basis": ["~a", "a"],
        "incidence": {"~a": ["w1", "w2"], "a": ["w3", "w4"]},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "measure weights do not sum to 1 (the sum is too long to write out)\n"
    with pytest.raises(DocumentError, match="too long to write out"):
        load(path)
