"""Structure document serialization: canonical form, strict loading."""

import gc
import json
import math
import os
import pickle
import random
import sys
from fractions import Fraction

import pytest

from probstruct import (
    DocumentError,
    Formula,
    FormulaAlgebra,
    GenParams,
    Language,
    ProbabilityStructure,
    ProbstructError,
    SampleSpace,
    ValidationError,
    WorldSet,
    coats_ds,
    coats_ic,
    format_formula,
    from_json,
    interval,
    load,
    parse_formula,
    random_ic,
    random_total_ds,
    save,
    to_json,
    trivial_algebra,
    validate,
)
import probstruct.docio as docio
import probstruct.logic as logic
from probstruct.logic import full_algebra
from probstruct.measure import MeasureFn, ProbabilitySpace, SetAlgebra, discrete_algebra
from probstruct.structures import IncidenceMap
from probstruct.cli import main


def test_fixture_documents_round_trip_byte_identically():
    for build in (coats_ds, coats_ic):
        text = to_json(build())
        assert to_json(from_json(text)) == text


def json_module_layout(st) -> str:
    """The canonical document, built as a dict and laid out by ``json.dumps``.

    This is how ``to_json`` wrote documents before it wrote them directly;
    it is kept here as the oracle for the direct writer.
    """
    doc = {"kind": st.kind.value, "propositions": list(st.lang.props), "worlds": list(st.ps.space.worlds)}
    chi = st.ps.algebra.basis
    order = sorted(range(len(chi)), key=lambda j: chi[j].bits & -chi[j].bits)
    if st.kind.value == "ds":
        doc["chi_basis"] = [list(chi[j].names()) for j in order]
    doc["measure"] = {str(i): str(st.ps.mu.weights[j]) for i, j in enumerate(order)}
    psi = st.psi.basis
    order = sorted(range(len(psi)), key=lambda j: psi[j].atoms & -psi[j].atoms)
    if st.kind.value == "ic":
        doc["psi_basis"] = [format_formula(psi[j]) for j in order]
    doc["incidence"] = {format_formula(psi[j]): list(st.inc.images[j].names()) for j in order}
    return json.dumps(doc, indent=2) + "\n"


def bit_groups(rng, items, k: int) -> list[int]:
    """The items split at random into ``k`` nonempty groups, each as a bitmask."""
    items = list(items)
    rng.shuffle(items)
    masks = [1 << x for x in items[:k]]
    for x in items[k:]:
        masks[rng.randrange(k)] |= 1 << x
    return masks


def benchmark_shaped(rng, n: int, kind: str) -> ProbabilityStructure:
    """``n`` propositions and 64 worlds, shaped as the benchmark's documents.

    A ds has 48 atoms with worlds and 16 measurable blocks; an ic has half
    its atoms in 64 blocks with worlds and every other atom a block of its
    own with none.
    """
    lang = Language(tuple(f"p{j}" for j in range(n)))
    space = SampleSpace(tuple(f"w{i}" for i in range(64)))
    nums = [rng.randint(1, 9) for _ in range(64)]
    if kind == "ds":
        live = rng.sample(range(lang.n_atoms), 48)
        image = dict(zip(live, bit_groups(rng, range(64), 48)))
        chi = [sum(image[a] for a in live if m >> a & 1) for m in bit_groups(rng, live, 16)]
        weights = [Fraction(x, sum(nums[:16])) for x in nums[:16]]
        images = [image.get(k, 0) for k in range(lang.n_atoms)]
        return ProbabilityStructure.ds(
            space, [WorldSet(space, m) for m in chi], weights, lang, [WorldSet(space, m) for m in images]
        )
    live = rng.sample(range(lang.n_atoms), lang.n_atoms // 2)
    dead = sorted(set(range(lang.n_atoms)) - set(live))
    blocks = bit_groups(rng, live, 64) + [1 << a for a in dead]
    images = bit_groups(rng, range(64), 64) + [0] * len(dead)
    psi = FormulaAlgebra(lang, [Formula(lang, m) for m in blocks])
    weights = [Fraction(x, sum(nums)) for x in nums]
    return ProbabilityStructure.ic(space, weights, psi, [WorldSet(space, m) for m in images])


def writer_cases():
    rng = random.Random(11)
    cases = [pytest.param(coats_ds, id="coats-ds"), pytest.param(coats_ic, id="coats-ic")]
    for n in (1, 2):
        lang = Language(tuple(f"p{j}" for j in range(n)))
        space = SampleSpace(("w1", "w2"))
        cases.append(pytest.param(
            lambda lang=lang, space=space: ProbabilityStructure.ic(
                space, [Fraction(1, 3), Fraction(2, 3)], trivial_algebra(lang), [space.everything()]
            ),
            id=f"trivial-algebra-{n}",
        ))
    for seed in range(40):
        params = GenParams(1 + seed % 4, 1 + seed % 8, 7200 + seed)
        cases.append(pytest.param(lambda p=params: random_ic(p), id=f"random-ic-{seed}"))
        cases.append(pytest.param(lambda p=params: random_total_ds(p), id=f"random-ds-{seed}"))
    for n in (8, 12):
        for kind in ("ds", "ic"):
            cases.append(pytest.param(
                lambda n=n, kind=kind: benchmark_shaped(random.Random(n), n, kind), id=f"{kind}-{n}"
            ))
    # the writer's own branches: runs of empty images that start or end the incidence, blocks
    # that must be sorted, masks that are not the language's shared ones, lists of several worlds
    for case, atoms in (("first", [0b1111, 0, 0, 0]), ("last", [0, 0, 0, 0b1111]), ("mixed", [1, 0b110, 0b1000, 0])):
        cases.append(pytest.param(lambda atoms=atoms: small_ds(atoms), id=f"ds-{case}-atom-images"))
    for case, blocks in (("descending", [0b1000, 0b100, 0b10, 0b1]), ("unsorted", [0b1000, 0b101, 0b10])):
        cases.append(pytest.param(lambda blocks=blocks: small_ic(blocks), id=f"ic-{case}-blocks"))
    cases.append(pytest.param(pickled_ds, id="ds-8-pickled"))
    return cases


def pickled_ds() -> ProbabilityStructure:
    """A ds after a pickle round trip: its ψ masks are rebuilt, not the language's shared ones."""
    st = pickle.loads(pickle.dumps(benchmark_shaped(random.Random(8), 8, "ds")))
    assert st.psi.masks == st.lang._atoms.singles and st.psi.masks is not st.lang._atoms.singles
    return st


def small_ds(images: list[int]) -> ProbabilityStructure:
    """A ds of two propositions and four worlds whose atoms have the world sets ``images``."""
    lang, space = Language(("p", "q")), SampleSpace(("w1", "w2", "w3", "w4"))
    chi = [space.subset(["w1", "w2"]), space.subset(["w3", "w4"])]
    return ProbabilityStructure.ds(
        space, chi, [Fraction(1, 3), Fraction(2, 3)], lang, [WorldSet(space, m) for m in images]
    )


def small_ic(blocks: list[int]) -> ProbabilityStructure:
    """An ic of two propositions with the ψ blocks ``blocks``, in that order: the first
    holds worlds w1 and w2, the second w3, and any others none."""
    lang, space = Language(("p", "q")), SampleSpace(("w1", "w2", "w3"))
    psi = FormulaAlgebra(lang, [Formula(lang, m) for m in blocks])
    images = [0b11, 0b100] + [0] * (len(blocks) - 2)
    return ProbabilityStructure.ic(
        space, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], psi, [WorldSet(space, m) for m in images]
    )


@pytest.mark.parametrize("build", writer_cases())
def test_writer_matches_the_json_module_layout(build):
    st = build()
    text = to_json(st)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert text == json_module_layout(st)


def test_to_json_builds_no_fraction(monkeypatch):
    texts = [to_json(benchmark_shaped(random.Random(8), 8, kind)) for kind in ("ds", "ic")]
    loaded = [from_json(text) for text in texts]
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs: made.append(args) or new(cls, *args, **kwargs))
    assert [to_json(st) for st in loaded] == texts
    assert len(made) == 0


def test_a_weight_too_long_to_write_is_refused_and_saves_no_file(tmp_path):
    space, lang = SampleSpace(("w1", "w2")), Language(("p",))
    tiny = Fraction(1, 10**5000)
    st = ProbabilityStructure.ic(space, [tiny, 1 - tiny], trivial_algebra(lang), [space.everything()])
    assert validate(st).ok
    message = "rational too long to write out (past the digit limit)"
    with pytest.raises(ValidationError) as err:
        to_json(st)
    assert str(err.value) == message
    path = tmp_path / "long.json"
    with pytest.raises(ValidationError) as err:
        save(st, path)
    assert str(err.value) == message
    assert not path.exists()


def test_save_load_files(tmp_path):
    path = tmp_path / "coats.json"
    save(coats_ds(), path)
    assert load(path) == coats_ds()


@pytest.mark.parametrize("build", [coats_ds, coats_ic])
def test_save_writes_the_bytes_of_to_json(tmp_path, build):
    path = tmp_path / "doc.json"
    save(build(), path)
    assert path.read_bytes() == to_json(build()).encode()


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-32"])
def test_a_file_loads_as_from_json_reads_its_bytes(encoding, tmp_path, capsys):
    for build in (coats_ds, coats_ic):
        path = tmp_path / f"{build.__name__}.json"
        path.write_bytes(to_json(build()).encode(encoding))
        assert load(path) == from_json(path.read_bytes()) == build()
        assert main(["interval", str(path), "g"]) == 0
        assert capsys.readouterr() == ("[1/2, 1/2]\n", "")


def test_a_file_that_is_not_utf8_is_a_document_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    message = "document is not UTF-8 text: invalid start byte at byte 0"
    with pytest.raises(DocumentError) as err:
        load(path)
    assert str(err.value) == message
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff", "document is not UTF-8 text: invalid start byte at byte 0"),
        (b'{"kind": "\xe9"}', "document is not UTF-8 text: invalid continuation byte at byte 10"),
        # bytes read as UTF-16 or UTF-32 name the encoding they were read as
        ('{"kind": "ds"}'.encode("utf-16-le")[:5], "document is not UTF-16-LE text: truncated data at byte 4"),
        ('{"kind": "ds"}'.encode("utf-16-be")[:5], "document is not UTF-16-BE text: truncated data at byte 4"),
        ('{"kind": "ds"}'.encode("utf-16")[:5], "document is not UTF-16 text: truncated data at byte 4"),
        ('{"kind": "ds"}'.encode("utf-32-le")[:7], "document is not UTF-32-LE text: truncated data at byte 4"),
        ('{"kind": "ds"}'.encode("utf-32")[:9], "document is not UTF-32 text: truncated data at byte 8"),
    ],
)
def test_document_bytes_that_are_not_utf8_are_a_document_error(data, message):
    with pytest.raises(Exception) as err:
        from_json(data)
    assert type(err.value) is DocumentError
    assert str(err.value) == message


def test_utf8_bytes_after_a_byte_order_mark_are_named_utf8():
    with pytest.raises(DocumentError, match=r"^document is not UTF-8 text: invalid continuation byte at byte 13$"):
        from_json(b'\xef\xbb\xbf{"kind": "\xe9"}')


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-16-le", "utf-32"])
def test_document_bytes_load_in_any_json_encoding(encoding):
    for build in (coats_ds, coats_ic):
        assert from_json(to_json(build()).encode(encoding)) == build()


def test_file_system_errors_are_document_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    into_missing_dir = tmp_path / "no-such-dir" / "x.json"
    cases = [
        (lambda: load(missing), ["validate", str(missing)], f"[Errno 2] No such file or directory: {str(missing)!r}"),
        (lambda: load(tmp_path), ["interval", str(tmp_path), "g"], f"[Errno 21] Is a directory: {str(tmp_path)!r}"),
        (
            lambda: save(coats_ds(), into_missing_dir),
            ["example", "coats-ds", "-o", str(into_missing_dir)],
            f"[Errno 2] No such file or directory: {str(into_missing_dir)!r}",
        ),
    ]
    for call, argv, message in cases:
        with pytest.raises(DocumentError) as err:
            call()
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, OSError)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(DocumentError, match="^embedded null byte$"):
        load("nul\0.json")


def test_an_int_path_is_refused_before_anything_is_opened():
    # open() would take these as file descriptors, read them and close them
    for call, name in (
        (lambda: load(0), "int"),
        (lambda: load(True), "bool"),
        (lambda: save(coats_ds(), 1), "int"),
    ):
        with pytest.raises(DocumentError) as err:
            call()
        assert str(err.value) == f"document path must be str or os.PathLike, got {name}"
        os.fstat(0)
        os.fstat(1)


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


# the coats ds document's two weights as written, and what loading and saving gives:
# the weights saved back, or the refusal's text
DOCUMENT_WEIGHTS = {
    "surrounding whitespace": ((" 1/2", "1/2\n"), ("1/2", "1/2")),
    "leading zeros": (("0002/4", "01/2"), ("1/2", "1/2")),
    "minus zero": (("-0", "1"), ("0", "1")),
    "zero over five": (("0/5", "1"), ("0", "1")),
    "not in lowest terms": (("2/4", "3/6"), ("1/2", "1/2")),
    "a leading zero in a denominator": (("1/2", "1/02"), "invalid rational literal '1/02'"),
    "a number": ((0.5, "1/2"), "measure weight of block 0 must be a rational string"),
    "an integer": (("1/2", 1), "measure weight of block 1 must be a rational string"),
    "a 4,301-digit numerator": (("1" * 4301 + "/2", "1/2"), "rational literal too long (4303 characters)"),
    "a 4,301-digit denominator": (("1/2", "1/1" + "0" * 4300), "rational literal too long (4303 characters)"),
    "one over zero": (("1/0", "1"), "invalid rational literal '1/0'"),
}


@pytest.mark.parametrize("case", list(DOCUMENT_WEIGHTS))
def test_document_weights_load_as_before(case):
    (first, second), outcome = DOCUMENT_WEIGHTS[case]
    text = edited(coats_ds, lambda d: d.update(measure={"0": first, "1": second}))
    if isinstance(outcome, str):
        with pytest.raises(DocumentError) as err:
            from_json(text)
        assert str(err.value) == outcome
        return
    st = from_json(text)
    assert json.loads(to_json(st))["measure"] == dict(zip("01", outcome))
    want = MeasureFn(map(Fraction, outcome))
    assert st.ps.mu == want and (st.ps.mu.nums, st.ps.mu.den) == (want.nums, want.den)


def test_loaded_weights_are_in_normal_form():
    # 2/12 and 10/12 are 1/6 and 5/6: numerators 1 and 5 over 6
    text = edited(coats_ic, lambda d: d.update(measure={"0": "2/12", "1": "10/12"}))
    mu = from_json(text).ps.mu
    assert (mu.nums, mu.den) == ((1, 5), 6)
    assert mu == MeasureFn((Fraction(1, 6), Fraction(5, 6)))
    assert mu.weights == (Fraction(1, 6), Fraction(5, 6))
    assert hash(mu) == hash(MeasureFn((Fraction(1, 6), Fraction(5, 6))))


def test_loaded_weights_are_built_from_the_pairs_read(monkeypatch):
    """Each weight is built from the pair it was read as, in lowest terms, never
    reduced against the common denominator, which grows with the product of
    coprime denominators; the measure is the value built from ``Fraction``s."""
    space = SampleSpace(tuple(f"w{i}" for i in range(6)))
    dens = [10**20 + 39, 10**20 + 129, 10**20 + 151, 10**20 + 193, 10**20 + 207]  # pairwise coprime
    weights = [Fraction(1, 8 * d) for d in dens]
    weights.append(1 - sum(weights))
    st = ProbabilityStructure.ic(space, weights, trivial_algebra(Language(("p",))), (space.everything(),))
    text = to_json(st).replace(f'"1/{8 * dens[0]}"', f'"2/{16 * dens[0]}"')
    loaded = from_json(text)
    assert loaded.ps.mu.den == weights[-1].denominator == 8 * math.prod(dens)
    made = []
    module = sys.modules[MeasureFn.__module__]  # ``probstruct.measure`` names the function
    monkeypatch.setattr(module, "Fraction", lambda n, d: made.append((n, d)) or Fraction(n, d))
    assert loaded.ps.mu.weights == tuple(weights)
    assert made == [(1, 8 * d) for d in dens] + [(weights[-1].numerator, weights[-1].denominator)]
    monkeypatch.undo()
    assert to_json(loaded) == to_json(st)
    mu = MeasureFn(weights)
    assert loaded.ps.mu == mu and hash(loaded.ps.mu) == hash(mu) and repr(loaded.ps.mu) == repr(mu)
    assert pickle.dumps(loaded.ps.mu) == pickle.dumps(mu) and pickle.dumps(loaded) == pickle.dumps(st)


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
    # two keys repeat: the one met a second time first is named
    with pytest.raises(DocumentError, match="^duplicate key 'a'$"):
        from_json('{"b": 1, "a": 2, "a": 3, "b": 4}')


def test_rejects_bad_rational():
    with pytest.raises(DocumentError, match="rational"):
        from_json(edited(coats_ds, lambda d: d["measure"].update({"0": "0.5"})))


def test_rejects_weights_in_non_ascii_digits(tmp_path, capsys):
    # "1٠/2٠" would be 10/20 if its Arabic-Indic zeros were read as digits
    text = edited(coats_ic, lambda d: d["measure"].update({"0": "1\u0660/2\u0660"}))
    with pytest.raises(DocumentError, match="^invalid rational literal '1\u0660/2\u0660'$"):
        from_json(text)
    path = tmp_path / "weights.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "invalid rational literal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "build, mutate, message",
    [
        (coats_ds, lambda d: d.update(measure=["1/2", "1/2"]), 'field "measure" must be an object'),
        (coats_ic, lambda d: d["measure"].update({"1": 0.5}), "measure weight of block 1 must be a rational string"),
        (coats_ic, lambda d: d.update(incidence=[]), 'field "incidence" must be an object'),
        (coats_ds, lambda d: d.update(chi_basis={"0": ["s1", "s2"]}), 'field "chi_basis" must be a list'),
        # and a ds key of two atoms after it, whose fault comes second
        (
            coats_ds,
            lambda d: d.update(measure=[], incidence={**d["incidence"], "g": []}),
            'field "measure" must be an object',
        ),
    ],
)
def test_rejects_fields_of_the_wrong_json_type(build, mutate, message):
    with pytest.raises(DocumentError) as err:
        from_json(edited(build, mutate))
    assert str(err.value) == message


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
    def outside(d):
        d["incidence"]["(~g & d) | (g & d)"] = d["incidence"].pop("(~g & d)")

    def one_atom_of_a_block(d):  # the lowest atom of the block (g & ~d) | (g & d)
        d["incidence"]["(g & ~d)"] = d["incidence"].pop("(g & ~d) | (g & d)")

    for mutate in (outside, one_atom_of_a_block):
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


def random_document(rng, n: int, kind: str) -> str:
    """Canonical text of a valid structure of ``n`` propositions and 6 worlds."""
    lang = Language(tuple(f"p{j}" for j in range(n)))
    space = SampleSpace(tuple(f"w{i}" for i in range(6)))

    def grouped(labels, size=0):
        """The members of each label as a bitmask, then empty masks up to ``size``."""
        masks = {}
        for i, label in enumerate(labels):
            masks[label] = masks.get(label, 0) | 1 << i
        return [masks[label] for label in sorted(masks)] + [0] * (size - len(masks))

    def world_sets(masks):
        return [space.subset(w for i, w in enumerate(space.worlds) if m >> i & 1) for m in masks]

    def weights(count):
        nums = [rng.randint(1, 5) for _ in range(count)]
        return [Fraction(x, sum(nums)) for x in nums]

    if kind == "ds":
        images = grouped([rng.randrange(lang.n_atoms) for _ in range(6)], lang.n_atoms)
        rng.shuffle(images)  # the atoms with worlds anywhere among the atoms
        chi = world_sets(grouped([rng.randrange(3) for _ in range(6)]))
        st = ProbabilityStructure.ds(space, chi, weights(len(chi)), lang, world_sets(images))
    else:
        # blocks of atoms with two or more blocks, so that none is "true"
        labels = [rng.randrange(5) if rng.random() < 0.5 else k % 2 for k in range(lang.n_atoms)]
        psi = FormulaAlgebra(lang, [Formula(lang, m) for m in grouped(labels)])
        images = grouped([rng.randrange(len(psi.basis)) for _ in range(6)], len(psi.basis))
        st = ProbabilityStructure.ic(space, weights(6), psi, world_sets(images))
    return to_json(st)


def count_token_loop(monkeypatch) -> list:
    calls = []
    parse = logic._parse_tokens

    def counted(text, lang):
        calls.append(text)
        return parse(text, lang)

    monkeypatch.setattr(logic, "_parse_tokens", counted)
    return calls


def test_canonical_documents_skip_the_token_loop(monkeypatch):
    rng = random.Random(7)
    texts = [random_document(rng, n, kind) for n in range(3, 9) for kind in ("ds", "ic")]
    calls = count_token_loop(monkeypatch)
    for text in texts:
        assert to_json(from_json(text)) == text
    assert calls == []


# spellings the reader leaves to the parser, applied to every term
RESPELLINGS = {
    "extra spaces": lambda lits: "( " + "  &  ".join(lits) + " )",
    "double negation": lambda lits: "(" + " & ".join(["~~" + lits[0]] + lits[1:]) + ")",
    "double parentheses": lambda lits: "((" + " & ".join(lits) + "))",
    "true": lambda lits: "(" + " & ".join(lits + ["true"]) + ")",
    "repeated literal": lambda lits: "(" + " & ".join(lits + [lits[-1]]) + ")",
}


def respelled(text: str, respell) -> str:
    def formula(f: str) -> str:
        return " | ".join(respell(term[1:-1].split(" & ")) for term in f.split(" | "))

    doc = json.loads(text)
    if "psi_basis" in doc:
        doc["psi_basis"] = [formula(f) for f in doc["psi_basis"]]
    doc["incidence"] = {formula(f): names for f, names in doc["incidence"].items()}
    return json.dumps(doc)


@pytest.mark.parametrize("spelling", list(RESPELLINGS))
def test_other_spellings_load_through_the_parser(spelling, monkeypatch):
    rng = random.Random(8)
    texts = [random_document(rng, n, kind) for n in (3, 5) for kind in ("ds", "ic")]
    calls = count_token_loop(monkeypatch)
    for text in texts:
        calls.clear()
        loaded = from_json(respelled(text, RESPELLINGS[spelling]))
        assert len(calls) >= len(json.loads(text)["incidence"])
        assert loaded == from_json(text)
        assert to_json(loaded) == text


def trivial_ic(n: int) -> str:
    """An ic document of ``n`` propositions whose one block is ``true``."""
    lang = Language(tuple(f"p{j}" for j in range(n)))
    space = SampleSpace(("w1", "w2"))
    halves = [Fraction(1, 2)] * 2
    return to_json(ProbabilityStructure.ic(space, halves, trivial_algebra(lang), [space.everything()]))


def with_repeated_term(text: str) -> str:
    """``text`` with the last term of its last incidence key, and of the
    ``psi_basis`` block spelled alike, written twice."""
    doc = json.loads(text)
    key = list(doc["incidence"])[-1]
    longer = key + " | " + key.split(" | ")[-1]
    doc["incidence"] = {longer if k == key else k: names for k, names in doc["incidence"].items()}
    if "psi_basis" in doc:
        doc["psi_basis"] = [longer if b == key else b for b in doc["psi_basis"]]
    return json.dumps(doc, indent=2)


def reordered(text: str, rng) -> str:
    """``text`` with the terms of each formula, and the literals of each term,
    in a seeded order, and each term in parentheses or not: spellings that
    ``_read_atoms`` reads."""

    def formula(f: str) -> str:
        terms = f.split(" | ")
        rng.shuffle(terms)
        spelled = []
        for term in terms:
            literals = term.strip("()").split(" & ")
            rng.shuffle(literals)
            spelled.append(("({})" if rng.random() < 0.5 else "{}").format(" & ".join(literals)))
        return " | ".join(spelled)

    doc = json.loads(text)
    if "psi_basis" in doc:
        doc["psi_basis"] = [formula(f) for f in doc["psi_basis"]]
    doc["incidence"] = {formula(f): names for f, names in doc["incidence"].items()}
    return json.dumps(doc)


def reader_cases():
    rng = random.Random(9)
    cases = [
        pytest.param(lambda n=n, kind=kind: random_document(random.Random(n), n, kind), id=f"{kind}-{n}")
        for n in range(1, 9)
        for kind in ("ds", "ic")
    ]
    cases += [
        pytest.param(
            lambda n=n, kind=kind: reordered(random_document(random.Random(n), n, kind), random.Random(90 + n)),
            id=f"reordered-{kind}-{n}",
        )
        for n in range(1, 9)
        for kind in ("ds", "ic")
    ]
    cases += [pytest.param(lambda n=n: trivial_ic(n), id=f"trivial-ic-{n}") for n in (1, 3)]
    cases += [
        pytest.param(lambda b=b: with_repeated_term(to_json(b())), id=f"repeated-term-{b.__name__}")
        for b in (coats_ds, coats_ic)
    ]
    cases += [
        pytest.param(lambda kind=kind: to_json(benchmark_shaped(rng, 12, kind)), id=f"{kind}-12")
        for kind in ("ds", "ic")
    ]
    return cases


@pytest.mark.parametrize("make_text", reader_cases())
def test_formula_text_loads_as_parse_formula_reads_it(make_text):
    text = make_text()
    doc = json.loads(text)
    lang = Language(tuple(doc["propositions"]))
    atom = {text: k for k, text in enumerate(docio._atom_spelling(lang, doc["incidence"]))}
    for atom_text, k in atom.items():
        assert parse_formula(atom_text, lang).atoms == 1 << k
    for formula_text in [*doc["incidence"], *doc.get("psi_basis", [])]:
        mask = parse_formula(formula_text, lang).atoms
        assert docio._read_block(formula_text, lang, atom) == ((mask & -mask).bit_length() - 1, mask)
    st = from_json(text)
    image = dict(zip(st.psi.basis, st.inc.images))
    for key, names in doc["incidence"].items():
        assert list(image[parse_formula(key, lang)].names()) == names


def test_reordered_text_is_read_without_the_parser(monkeypatch):
    rng = random.Random(12)
    texts = [reordered(random_document(rng, n, kind), rng) for n in range(1, 9) for kind in ("ds", "ic")]
    calls = []
    monkeypatch.setattr(logic, "_parse_tokens", lambda text, lang: calls.append(text))
    for text in texts:
        from_json(text)
    assert calls == []


def test_a_key_the_table_cannot_read_is_read_once(monkeypatch):
    # _read_block hands a key it cannot read from the atom table to parse_formula's
    # reader: the literal reader runs once on it, then the parser only if that gives up
    rng = random.Random(13)
    texts = [reordered(random_document(rng, n, kind), rng) for n in range(1, 7) for kind in ("ds", "ic")]
    texts += [edited(coats_ic, lambda d: d.update(psi_basis=["~g & ~d", "g", "~g & d"],
                                                   incidence={"g": ["w2"], "~(g | d)": ["w1"], "d & ~g": []}))]
    read, unread = [], []
    read_atoms, read_block = logic._read_atoms, docio._read_block

    def block(text, lang, atom):
        if text not in atom and any(term not in atom for term in text.split(" | ")):
            unread.append(text)
        return read_block(text, lang, atom)

    monkeypatch.setattr(logic, "_read_atoms", lambda text, lang: read.append(text) or read_atoms(text, lang))
    monkeypatch.setattr(docio, "_read_block", block)
    for text in texts:
        from_json(text)
    assert read == unread
    assert len(unread) > len(texts) and {"g", "~(g | d)"} <= set(unread)


# each replaces the key "(~g & ~d)": literals repeated, missing or unknown
MALFORMED_KEYS = [
    "(~g & ~g)", "(~d & ~g & ~d)", "(~g & ~d & ~g & ~d)", "(g & ~g)", "(~g & )", "(& ~d)",
    "(~g)", "(~g & ~d &)", "(~g & x)", "(~g & ~d & x)", "(~g & ~D)", "(~g & ~d",
]


@pytest.mark.parametrize("build", [coats_ds, coats_ic])
@pytest.mark.parametrize("key", MALFORMED_KEYS)
def test_malformed_literals_load_as_the_parser_reads_them(build, key):
    def with_key(text):
        def mutate(d):
            d["incidence"] = {text if k == "(~g & ~d)" else k: v for k, v in d["incidence"].items()}

        return edited(build, mutate)

    try:
        canonical = format_formula(parse_formula(key, build().lang))
    except ProbstructError as e:
        want = str(e)
    else:  # the key loads as its canonical text does
        want = load_outcome(with_key(canonical))
    assert load_outcome(with_key(key)) == want


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_a_ds_with_its_atoms_in_any_order_writes_the_same_bytes(n):
    rng = random.Random(1500 + n)
    text = to_json(benchmark_shaped(rng, n, "ds")) if n > 8 else random_document(rng, n, "ds")
    st = from_json(text)
    order = list(range(st.lang.n_atoms))
    rng.shuffle(order)
    psi = FormulaAlgebra(st.lang, [st.psi.basis[j] for j in order])
    inc = IncidenceMap(st.ps.space, [st.inc.images[j] for j in order])
    shuffled = ProbabilityStructure(st.ps, st.lang, psi, inc, "ds")
    assert shuffled.psi != st.psi
    assert to_json(shuffled) == text


def count_atom_texts(monkeypatch) -> list:
    calls = []
    atom_texts = docio._atom_texts

    def counted(lang):
        calls.append(lang)
        return atom_texts(lang)

    monkeypatch.setattr(docio, "_atom_texts", counted)
    return calls


SHORT_KEYS = json.dumps({
    "kind": "ic",
    "propositions": ["a", "b", "c"],
    "worlds": ["w1", "w2"],
    "measure": {"0": "1/3", "1": "2/3"},
    "psi_basis": ["~a", "a & b", "a & ~b"],
    "incidence": {"~a": ["w1"], "a & b": [], "a & ~b": ["w2"]},
})


@pytest.mark.parametrize("n", range(1, 13))
def test_the_atom_keys_are_the_atom_texts_as_to_json_writes_them(n):
    lang = Language(tuple(f"p{j}" for j in range(n)))
    spelled = "({})" if n > 1 else "{}"
    expected = [spelled.format(logic._atom_text(lang, k)).encode() for k in range(lang.n_atoms)]
    assert [key.encode() for key in docio._atom_texts(lang)] == expected
    assert logic._atom_texts(lang) == docio._atom_texts(lang)


def test_the_atom_table_is_built_once_and_only_for_canonical_spelling(monkeypatch):
    rng = random.Random(10)
    canonical = [random_document(rng, n, kind) for n in (2, 5, 8) for kind in ("ds", "ic")]
    reversed_literals = lambda lits: "(" + " & ".join(reversed(lits)) + ")"
    other = [respelled(text, reversed_literals) for text in canonical]
    short = [SHORT_KEYS, trivial_ic(3), trivial_ic(16)]
    calls = count_atom_texts(monkeypatch)
    for text in short + other:
        from_json(text)
    assert calls == []
    for text, respelled_text in zip(canonical, other):
        assert from_json(text) == from_json(respelled_text)
        assert len(calls) == 1
        calls.clear()


# two faults in different keys: the text and world-list checks run over all
# keys before the atom and block checks, and each pass goes in key order
TWO_FAULTS = {
    "non-atom, then a world list that is no list": (
        coats_ds,
        {"(~g & ~d)": ["s1", "s2"], "g": ["s3"], "(~g & d)": [], "(g & d)": "s4"},
        "incidence of '(g & d)' must be a list of strings",
    ),
    "two non-atoms": (
        coats_ds,
        {"(~g & ~d)": ["s1", "s2"], "g": ["s3"], "d": ["s4"]},
        "ds incidence keys must be single atoms, got '(g & ~d) | (g & d)'",
    ),
    "an atom twice, then an unknown world": (
        coats_ds,
        {"(~g & ~d)": ["s1", "s2"], "(g & ~d)": ["s3"], "(~g & ~d) | (~g & ~d)": [], "(g & d)": ["s9"]},
        "duplicate incidence for atom '(~g & ~d)'",
    ),
    "an unknown world, then the same atom with good worlds": (
        coats_ds,
        {"(~g & ~d)": ["s9"], "(g & ~d)": ["s3"], "(~g & d)": [], "(g & d)": ["s4"], "(~d & ~g)": ["s1", "s2"]},
        "unknown world name 's9'",
    ),
    "a repeated world, then a non-atom": (
        coats_ds,
        {"(~g & ~d)": ["s1", "s1"], "g": ["s3"]},
        "incidence of '(~g & ~d)' repeats a world name",
    ),
    "a key outside the basis, then a syntax error": (
        coats_ic,
        {"(~g & ~d)": ["w1"], "~g": ["w2"], "(~g & d) |": []},
        "unexpected end of input (at position 10)",
    ),
}


@pytest.mark.parametrize("case", list(TWO_FAULTS))
def test_two_faults_report_the_first_check_that_fails(case):
    build, incidence, message = TWO_FAULTS[case]
    with pytest.raises(DocumentError) as err:
        from_json(edited(build, lambda d: d.update({"incidence": incidence})))
    assert str(err.value) == message


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


# --- the two-pass reader, kept as the oracle of the one-pass reader -----------


def reference_name_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what} must be a list of strings")
    return value


def reference_world_set(space, names: list[str], what: str) -> WorldSet:
    if len(set(names)) != len(names):
        raise DocumentError(f"{what} repeats a world name")
    return space.subset(names)


def reference_build(kind: str, raw: dict) -> ProbabilityStructure:
    """``docio._build`` as it was before it read the incidence in one pass.

    The first pass parses every incidence key and checks that its value is a
    list of strings; the second, after the other fields, matches the keys to
    atoms or blocks and makes their world sets.  Keys are read with
    ``parse_formula``, which the reader's table must agree with.
    """
    lang = Language(tuple(reference_name_list(raw["propositions"], '"propositions"')))
    space = SampleSpace(tuple(reference_name_list(raw["worlds"], '"worlds"')))
    if not isinstance(raw["incidence"], dict):
        raise DocumentError('field "incidence" must be an object')
    items = {
        key: (parse_formula(key, lang).atoms, reference_name_list(names, f"incidence of {key!r}"))
        for key, names in raw["incidence"].items()
    }
    formula_text = lambda mask: format_formula(Formula(lang, mask))

    if kind == "ds":
        if not isinstance(raw["chi_basis"], list):
            raise DocumentError('field "chi_basis" must be a list')
        chi_blocks = []
        for j, names in enumerate(raw["chi_basis"]):
            what = f"chi_basis block {j}"
            chi_blocks.append(reference_world_set(space, reference_name_list(names, what), what))
        chi = SetAlgebra(space, chi_blocks)
        mu = docio._measure_weights(raw["measure"], len(chi.basis))
        images = [None] * lang.n_atoms
        for mask, names in items.values():
            if mask.bit_count() != 1:
                raise DocumentError(f"ds incidence keys must be single atoms, got {formula_text(mask)!r}")
            k = mask.bit_length() - 1
            if images[k] is not None:
                raise DocumentError(f"duplicate incidence for atom {formula_text(mask)!r}")
            images[k] = reference_world_set(space, names, f"incidence of {formula_text(mask)!r}")
        if len(items) != lang.n_atoms:
            raise DocumentError(f"ds incidence must cover all {lang.n_atoms} atoms, got {len(items)}")
        ps = ProbabilitySpace(space, chi, mu)
        return ProbabilityStructure(ps, lang, full_algebra(lang), IncidenceMap(space, images), "ds")

    blocks = [
        items[text][0] if text in items else parse_formula(text, lang).atoms
        for text in reference_name_list(raw["psi_basis"], '"psi_basis"')
    ]
    psi = FormulaAlgebra(lang, [Formula(lang, mask) for mask in blocks])
    mu = docio._measure_weights(raw["measure"], space.size)
    index_of_block = {mask: j for j, mask in enumerate(blocks)}
    image_of_block = {}
    for mask, names in items.values():
        j = index_of_block.get(mask)
        if j is None:
            raise DocumentError(f"incidence key {formula_text(mask)!r} is not a psi_basis block")
        if j in image_of_block:
            raise DocumentError(f"duplicate incidence for block {formula_text(mask)!r}")
        image_of_block[j] = reference_world_set(space, names, f"incidence of {formula_text(mask)!r}")
    if len(image_of_block) != len(blocks):
        raise DocumentError(
            f"incidence must cover all {len(blocks)} psi_basis blocks, got {len(image_of_block)}"
        )
    images = [image_of_block[j] for j in range(len(blocks))]
    ps = ProbabilitySpace(space, discrete_algebra(space), mu)
    return ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), "ic")


def inject_fault(doc: dict, rng, fault: str) -> None:
    """Put one fault of the kind ``fault`` into a random incidence entry."""
    items = list(doc["incidence"].items())
    i = rng.randrange(len(items))
    key, names = items[i]
    names = names if isinstance(names, list) else []  # a second fault in the same entry
    if fault == "key of two blocks":  # no atom of a ds, no block of an ic
        items[i] = (key + " | " + items[i - 1][0], names)
    elif fault == "a block twice":
        items.insert(rng.randrange(len(items) + 1), (key + " | " + key, []))
    elif fault == "syntax error":
        items[i] = (key + " |", names)
    elif fault == "world list no list":
        items[i] = (key, "w0")
    elif fault == "empty world value no list":  # empty, as [] is, but not a list
        items[i] = (key, rng.choice(["", 0, None, {}]))
    elif fault == "key left out":
        del items[i]
    elif fault == "world list not of strings":
        items[i] = (key, names + [0])
    elif fault == "repeated world":
        items[i] = (key, names + ["w0", "w0"])
    else:  # "unknown world"
        items[i] = (key, names + ["w9"])
    doc["incidence"] = dict(items)


FAULT_KINDS = (
    "key of two blocks", "a block twice", "syntax error", "world list no list",
    "world list not of strings", "repeated world", "unknown world",
    "empty world value no list", "key left out",
)


def load_outcome(text: str):
    """The structure ``from_json`` loads from ``text``, or its error message."""
    try:
        return from_json(text)
    except DocumentError as e:
        return str(e)


@pytest.mark.parametrize("kind", ["ds", "ic"])
@pytest.mark.parametrize("n", range(1, 13))
def test_the_one_pass_reader_agrees_with_the_two_pass_reference(n, kind, monkeypatch):
    rng = random.Random(1300 + 2 * n + (kind == "ic"))
    canonical = random_document(rng, n, kind)
    doc = json.loads(canonical)
    keys = list(doc["incidence"].items())
    rng.shuffle(keys)
    doc["incidence"] = dict(keys)
    texts = [canonical, json.dumps(doc)]  # canonical, and with its keys reordered
    if n > 1:
        texts.append(respelled(canonical, RESPELLINGS[rng.choice(sorted(RESPELLINGS))]))
    if n > 1 and kind == "ic":  # keys that repeat their psi_basis texts, spelled otherwise
        texts.append(repeating(canonical, rng))
    for text in list(texts):
        for count in (1, 1, 2, 2, 2):
            doc = json.loads(text)
            for fault in rng.sample(FAULT_KINDS, count):
                inject_fault(doc, rng, fault)
            texts.append(json.dumps(doc))
    for text in texts:
        got = load_outcome(text)
        with monkeypatch.context() as patched:
            patched.setattr(docio, "_build", reference_build)
            want = load_outcome(text)
        assert got == want
        if text == canonical:
            assert to_json(got) == canonical


def shuffled_spelling(f: str, rng) -> str:
    """Formula text ``f`` with its terms, and the literals of each term,
    shuffled: a spelling that the literal reader reads."""
    terms = [term.strip("()").split(" & ") for term in f.split(" | ")]
    for literals in terms:
        rng.shuffle(literals)
    rng.shuffle(terms)
    return " | ".join("(" + " & ".join(literals) + ")" for literals in terms)


def scrambled(text: str, rng) -> str:
    """``text``'s document with its incidence keys, and an ic's ``psi_basis``
    blocks, in random order, and each formula spelled by ``shuffled_spelling``."""
    doc = json.loads(text)
    if "psi_basis" in doc:
        doc["psi_basis"] = [shuffled_spelling(f, rng) for f in doc["psi_basis"]]
        rng.shuffle(doc["psi_basis"])
    keys = [(shuffled_spelling(f, rng), names) for f, names in doc["incidence"].items()]
    rng.shuffle(keys)
    doc["incidence"] = dict(keys)
    return json.dumps(doc)


def repeating(text: str, rng) -> str:
    """``text``'s canonical ic document with each ``psi_basis`` block spelled by
    ``shuffled_spelling``, each incidence key the same text as its block, and the
    keys in random order."""
    doc = json.loads(text)
    spelling = {f: shuffled_spelling(f, rng) for f in doc["psi_basis"]}
    doc["psi_basis"] = [spelling[f] for f in doc["psi_basis"]]
    keys = [(spelling[f], names) for f, names in doc["incidence"].items()]
    rng.shuffle(keys)
    doc["incidence"] = dict(keys)
    return json.dumps(doc)


class Recorded(dict):
    """A dict that records each key looked up with ``[]``."""

    def __init__(self, items, seen: list):
        super().__init__(items)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("kind", ["ds", "ic"])
@pytest.mark.parametrize("n", [8, 12])
def test_valid_documents_in_any_order_are_read_in_one_pass(n, kind, monkeypatch):
    # the key-by-key loop looks up its kind's fault messages before its first
    # key, so a canonical document, read by the list comparison, looks up none;
    # any other valid document formats no fault, and a key of one atom is read
    # straight to its block, never to a mask by _read_block
    rng = random.Random(2600 + n + (kind == "ic"))
    canonical = to_json(benchmark_shaped(rng, n, kind))
    doc = json.loads(canonical)
    keys = list(doc["incidence"].items())
    rng.shuffle(keys)
    doc["incidence"] = dict(keys)
    key_by_key, read, faults = [], [], []
    read_block = docio._read_block
    monkeypatch.setattr(docio, "_KEY_FAULTS", Recorded(docio._KEY_FAULTS, key_by_key))
    monkeypatch.setattr(docio, "_read_block", lambda text, *args: read.append(text) or read_block(text, *args))
    monkeypatch.setattr(docio, "format_formula", lambda f: faults.append(f) or format_formula(f))
    for text in (canonical, json.dumps(doc), scrambled(canonical, rng)):
        key_by_key.clear()
        read.clear()
        assert to_json(from_json(text)) == canonical
        assert key_by_key == ([] if text == canonical else [kind])
        loaded = json.loads(text)
        # an ic's psi_basis blocks, then, off the canonical path, the keys of more than one
        # atom that do not repeat a psi_basis text
        psi_basis = loaded.get("psi_basis", [])
        blocks = [key for key in loaded["incidence"] if " | " in key and key not in psi_basis]
        assert read == psi_basis + (blocks if text != canonical else [])
    parsed = respelled(json.dumps(doc), RESPELLINGS["double parentheses"])  # keys only the parser reads
    assert to_json(from_json(parsed)) == canonical
    assert faults == []
    faulted = json.loads(parsed)
    faulted["incidence"][rng.choice(list(faulted["incidence"]))] = ["nowhere"]
    with pytest.raises(DocumentError, match="nowhere"):
        from_json(json.dumps(faulted))
    assert len(faults) == 1


def test_keys_that_repeat_their_psi_basis_texts_are_not_read_again(monkeypatch):
    # each psi_basis text is read once, to its block, term by term; a key that repeats
    # one is placed on that block unread: neither _read_block nor term_atom sees it
    rng = random.Random(2700)
    canonical = to_json(benchmark_shaped(rng, 12, "ic"))
    text = repeating(canonical, rng)
    doc = json.loads(text)
    lang = Language(tuple(doc["propositions"]))
    read, terms = [], []
    read_block, term_atom = docio._read_block, lang._atoms.term_atom
    monkeypatch.setattr(docio, "_read_block", lambda text, *args: read.append(text) or read_block(text, *args))
    monkeypatch.setitem(vars(lang._atoms), "term_atom", lambda term: terms.append(term) or term_atom(term))
    assert to_json(from_json(text)) == canonical
    assert read == doc["psi_basis"]
    probe = next(iter(doc["incidence"])).partition(" | ")[0]  # is the first key spelled as to_json spells?
    assert terms == [probe] + [term for f in doc["psi_basis"] for term in f.split(" | ")]


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


def fields(build, drop=(), before=None, after=None) -> str:
    """``build()``'s document without the fields ``drop``, with the fields of
    ``before`` put first and those of ``after`` last."""
    doc = json.loads(to_json(build()))
    for field in drop:
        del doc[field]
    return json.dumps({**(before or {}), **doc, **(after or {})})


# the first unknown field in document order, else the first missing field in
# the format's order: kind, propositions, worlds, chi_basis, measure,
# psi_basis, incidence
SEVERAL_FIELD_FAULTS = {
    "ds with only a kind": ('{"kind": "ds"}', "missing field 'propositions'"),
    "ic with only a kind": ('{"kind": "ic"}', "missing field 'propositions'"),
    "ds without worlds and measure": (
        fields(coats_ds, drop=("measure", "worlds")),
        "missing field 'worlds'",
    ),
    "ds without incidence, measure and chi_basis": (
        fields(coats_ds, drop=("incidence", "measure", "chi_basis")),
        "missing field 'chi_basis'",
    ),
    "ic without incidence, psi_basis and measure": (
        fields(coats_ic, drop=("incidence", "psi_basis", "measure")),
        "missing field 'measure'",
    ),
    "ic without incidence and psi_basis": (
        fields(coats_ic, drop=("incidence", "psi_basis")),
        "missing field 'psi_basis'",
    ),
    "two unknown fields": (fields(coats_ds, after={"zeta": 1, "alpha": 2}), "unknown field 'zeta'"),
    "an unknown field first in the document": (
        fields(coats_ic, before={"zz": 1}, after={"aa": 2}),
        "unknown field 'zz'",
    ),
    "an unknown field, then a redundant one": (
        fields(coats_ds, after={"note": 1, "psi_basis": []}),
        "unknown field 'note'",
    ),
    "a redundant field, then an unknown one": (
        fields(coats_ds, after={"psi_basis": [], "note": 1}),
        'redundant field "psi_basis": every formula of a ds structure has an incidence',
    ),
    "an unknown field and a missing one": (
        fields(coats_ic, drop=("measure",), after={"comment": "x"}),
        "unknown field 'comment'",
    ),
}


@pytest.mark.parametrize("case", list(SEVERAL_FIELD_FAULTS))
def test_several_field_faults_report_a_fixed_one(case):
    text, message = SEVERAL_FIELD_FAULTS[case]
    with pytest.raises(DocumentError) as err:
        from_json(text)
    assert str(err.value) == message


def test_an_integer_past_the_digit_limit_is_a_document_error(tmp_path, capsys):
    # json.loads raises a bare ValueError for an integer of more digits than
    # the interpreter converts (4,300 by default), wherever it stands
    message = "parse error: an integer has more than 4300 digits"
    text = to_json(coats_ds())[:-2] + ', "x": ' + "9" * 5000 + "}\n"
    for data in (text, text.encode("utf-16"), '{"kind": "ds", "measure": {"0": [-' + "1" * 4301 + "]}}"):
        with pytest.raises(Exception) as err:
            from_json(data)
        assert type(err.value) is DocumentError
        assert str(err.value) == message
    path = tmp_path / "long.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(DocumentError, match="^unknown field 'x'$"):  # 4,300 digits decode
        from_json(text.replace("9" * 5000, "9" * 4300))


def faulted_canonical(kind: str, n: int, fault: str) -> str:
    """The canonical text of a seeded document, laid out as ``to_json`` lays
    it out, with one fault: in the last incidence key or in a weight."""
    doc = json.loads(random_document(random.Random(2200 + n), n, kind))
    key = list(doc["incidence"])[-1]
    names = doc["incidence"][key]
    if fault == "unknown world":
        doc["incidence"][key] = names + ["w9"]
    elif fault == "repeated world":
        doc["incidence"][key] = names + ["w0", "w0"]
    elif fault == "world list no list":
        doc["incidence"][key] = "w0"
    elif fault == "missing key":
        del doc["incidence"][key]
    else:  # "bad weight": held until the keys are read
        doc["measure"]["0"] = "1/x"
    return json.dumps(doc, indent=2) + "\n"


# the text each fault gave before canonical documents were read as a whole;
# {key} is the last incidence key, the block's canonical text
CANONICAL_FAULTS = {
    "unknown world": {n: "unknown world name 'w9'" for n in (3, 8)},
    "repeated world": {n: "incidence of {key!r} repeats a world name" for n in (3, 8)},
    "world list no list": {n: "incidence of {key!r} must be a list of strings" for n in (3, 8)},
    "missing key": {
        ("ds", 3): "ds incidence must cover all 8 atoms, got 7",
        ("ds", 8): "ds incidence must cover all 256 atoms, got 255",
        ("ic", 3): "incidence must cover all 3 psi_basis blocks, got 2",
        ("ic", 8): "incidence must cover all 5 psi_basis blocks, got 4",
    },
    "bad weight": {n: "invalid rational literal '1/x'" for n in (3, 8)},
}


@pytest.mark.parametrize("fault", list(CANONICAL_FAULTS))
@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("kind", ["ds", "ic"])
def test_faults_in_canonical_documents_keep_their_messages(kind, n, fault):
    key = list(json.loads(random_document(random.Random(2200 + n), n, kind))["incidence"])[-1]
    pins = CANONICAL_FAULTS[fault]
    message = pins.get((kind, n)) or pins[n]
    with pytest.raises(DocumentError) as err:
        from_json(faulted_canonical(kind, n, fault))
    assert str(err.value) == message.format(key=key)


def image_faults(names: list, worlds: list) -> dict:
    """A world list with each fault, and the text its fault gives, ``{what}`` for
    the list's name in the document."""
    return {
        "not a list": ("w0", "{what} must be a list of strings"),
        "not strings": (names + [5], "{what} must be a list of strings"),
        "unknown world": (names + ["w9"], "unknown world name 'w9'"),
        "repeated world": (names + [worlds[0], worlds[0]], "{what} repeats a world name"),
    }


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("kind", ["ds", "ic"])
def test_a_bad_image_anywhere_in_a_canonical_document_keeps_its_message(kind, n):
    text = random_document(random.Random(2400 + n), n, kind)
    doc = json.loads(text)
    keys = list(doc["incidence"])
    live = [key for key in keys if doc["incidence"][key]]
    for key in {keys[0], live[0], live[len(live) // 2], live[-1]}:
        for names, message in image_faults(doc["incidence"][key], doc["worlds"]).values():
            faulted = json.loads(text)
            faulted["incidence"][key] = names
            with pytest.raises(DocumentError) as err:
                from_json(json.dumps(faulted, indent=2) + "\n")
            assert str(err.value) == message.format(what=f"incidence of {key!r}")


@pytest.mark.parametrize("n", [2, 8])
def test_a_bad_chi_basis_block_in_a_canonical_document_keeps_its_message(n):
    text = random_document(random.Random(2500 + n), n, "ds")
    doc = json.loads(text)
    for j, block in enumerate(doc["chi_basis"]):
        for names, message in image_faults(block, doc["worlds"]).values():
            faulted = json.loads(text)
            faulted["chi_basis"][j] = names
            with pytest.raises(DocumentError) as err:
                from_json(json.dumps(faulted, indent=2) + "\n")
            assert str(err.value) == message.format(what=f"chi_basis block {j}")


def test_hashing_a_loaded_ds_builds_no_value_per_block(monkeypatch):
    # a hash goes by the normal form, the masks and the integer weights, so
    # hashing a 12-proposition ds builds none of its 4,096 blocks and images
    # as values, and no weight as a Fraction
    text = to_json(benchmark_shaped(random.Random(23), 12, "ds"))
    st, twin = from_json(text), from_json(text)
    made = []
    for cls in (Formula, WorldSet):
        counted = lambda self, *args, init=cls.__init__: made.append(args) or init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    assert hash(st) == hash(twin) and hash(st.psi) == hash(full_algebra(st.lang))
    assert made == []
    assert not any(hasattr(v, "_values") for v in (st.psi, st.ps.algebra, st.inc))
    assert not hasattr(st.ps.mu, "_weights")


def test_a_ds_loads_and_answers_without_a_formula_per_block(monkeypatch):
    # Formula objects made through __init__, and those made around it and
    # still alive, while a 12-proposition ds loads and answers ten queries:
    # its 4,096 blocks are masks, and no reader builds them as formulas
    text = to_json(benchmark_shaped(random.Random(22), 12, "ds"))
    made = []
    init = Formula.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Formula, "__init__", counted)
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) is Formula]  # kept alive, so their ids stay theirs
    known = set(map(id, before))
    st = from_json(text)
    for j in range(10):
        interval(st, parse_formula(f"p{j} | ~p{j + 1} & p{j + 2}", st.lang))
    alive = [o for o in gc.get_objects() if type(o) is Formula and id(o) not in known]
    assert len(made) + len(alive) < 100
