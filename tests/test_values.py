"""Value semantics of the public value types: equality, hash, immutability,
repr, pickling and copying."""

import copy
import hashlib
import itertools
import keyword
import pickle
import random
import re
from fractions import Fraction

import pytest

from probstruct import (
    EquivalenceReport,
    Formula,
    FormulaAlgebra,
    GenParams,
    IncidenceMap,
    Interval,
    Language,
    MeasureFn,
    ProbabilitySpace,
    ProbabilityStructure,
    SampleSpace,
    SetAlgebra,
    ValidationError,
    ValidationReport,
    WorldSet,
    basis_of,
    coats_ds,
    coats_ic,
    discrete_algebra,
    ds_to_ic,
    equivalent,
    format_formula,
    format_rational,
    from_json,
    full_algebra,
    generate_algebra,
    ic_to_ds,
    inner_measure,
    interval,
    parse_formula,
    random_ic,
    random_total_ds,
    to_json,
    trivial_algebra,
    true_formula,
)
from probstruct.errors import LanguageMismatchError
from probstruct.measure import measure
from probstruct.value import check_names, partition_faults, safe_repr

HALF = Fraction(1, 2)


def _space():
    return SampleSpace(("w1", "w2"))


# each builder makes a new, equal value on every call; then its fields
VALUES = {
    Language: (lambda: Language(("a", "b")), ("props",)),
    Formula: (lambda: Formula(Language(("a",)), 2), ("lang", "atoms")),
    FormulaAlgebra: (lambda: full_algebra(Language(("a", "b"))), ("lang", "basis")),
    SampleSpace: (_space, ("worlds",)),
    WorldSet: (lambda: WorldSet(_space(), 2), ("space", "bits")),
    SetAlgebra: (lambda: discrete_algebra(_space()), ("space", "basis")),
    MeasureFn: (lambda: MeasureFn((HALF, HALF)), ("weights",)),
    ProbabilitySpace: (
        lambda: ProbabilitySpace(_space(), discrete_algebra(_space()), MeasureFn((HALF, HALF))),
        ("space", "algebra", "mu"),
    ),
    IncidenceMap: (lambda: coats_ds().inc, ("space", "images")),
    Interval: (lambda: Interval(Fraction(1, 4), HALF), ("lo", "hi")),
    ProbabilityStructure: (coats_ic, ("ps", "lang", "psi", "inc", "kind")),
    ValidationReport: (lambda: ValidationReport(("a problem",)), ("problems",)),
    EquivalenceReport: (
        lambda: equivalent(coats_ic(), ds_to_ic(coats_ds())),
        ("equivalent", "checked_count", "witness"),
    ),
    GenParams: (lambda: GenParams(2, 4, 7), ("n_props", "n_worlds", "seed")),
}
TYPES = list(VALUES)


def test_every_public_value_type_is_covered():
    assert len(TYPES) == 14
    for cls, (build, fields) in VALUES.items():
        assert type(build()) is cls


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_equal_fields_compare_and_hash_equal(cls):
    build, fields = VALUES[cls]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def test_different_fields_compare_unequal():
    lang = Language(("a", "b"))
    assert Formula(lang, 1) != Formula(lang, 2)
    assert Formula(lang, 1) != Formula(Language(("a", "c")), 1)
    assert Language(("a", "b")) != Language(("b", "a"))
    assert SampleSpace(("w1", "w2")) != SampleSpace(("w1",))
    assert WorldSet(_space(), 1) != WorldSet(_space(), 2)
    assert Interval(0, HALF) != Interval(0, 1)
    assert GenParams(2, 4, 7) != GenParams(2, 4, 8)
    assert coats_ic() != coats_ds()


def test_different_classes_never_compare_equal():
    values = {cls: build() for cls, (build, _) in VALUES.items()}
    for x, y in itertools.permutations(values.values(), 2):
        assert x != y and not x == y
    for cls, (build, fields) in VALUES.items():
        value = build()
        as_tuple = tuple(getattr(value, f) for f in fields)
        assert value != as_tuple and as_tuple != value
        if len(fields) == 1:
            assert value != as_tuple[0]


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    build, fields = VALUES[cls]
    value = build()
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert value == build()


def test_language_sizes_are_fixed():
    lang = Language(("a", "b", "c"))
    assert (lang.n_atoms, lang.full_mask) == (8, 255)
    for name in ("n_atoms", "full_mask"):
        with pytest.raises(AttributeError):
            setattr(lang, name, 1)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_repr_lists_the_fields(cls):
    build, fields = VALUES[cls]
    value = build()
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


def test_repr_examples():
    assert repr(Formula(Language(("a",)), 2)) == "Formula(lang=Language(props=('a',)), atoms=2)"
    assert repr(Interval(0, HALF)) == "Interval(lo=Fraction(0, 1), hi=Fraction(1, 2))"
    assert repr(GenParams(2, 4, 7)) == "GenParams(n_props=2, n_worlds=4, seed=7)"
    assert repr(WorldSet(_space(), 2)) == "WorldSet(space=SampleSpace(worlds=('w1', 'w2')), bits=2)"
    assert repr(ValidationReport(())) == "ValidationReport(problems=())"


def test_repr_of_integers_past_the_digit_limit():
    # 2**65536 formulas at 16 propositions: too many digits for str, so a
    # power of two reads 2^k and any other integer is written in hex
    assert safe_repr(1 << 65536) == "2^65536"
    assert safe_repr((1 << 65536) + 1) == hex((1 << 65536) + 1)
    assert safe_repr(1 << 64) == str(1 << 64) and safe_repr("a") == "'a'"
    lang = Language(tuple(f"p{i}" for i in range(16)))
    f = Formula(lang, 1 << 65535)
    report = EquivalenceReport(False, f.atoms + 1, (f, Interval(0, 1), Interval(0, HALF)))
    text = repr(report)
    assert text.startswith("EquivalenceReport(equivalent=False, checked_count=0x8000")
    assert "atoms=2^65535), Interval(" in text
    assert "checked_count=2^65536," in repr(EquivalenceReport(True, 1 << 65536, None))


def test_repr_of_fractions_past_the_digit_limit():
    # such a numerator or denominator is written as a long integer is
    tiny, big = Fraction(1, 10**5000), Fraction(1, 1 << 20000)
    long_den = hex(10**5000)
    assert repr(Interval(tiny, 1)) == f"Interval(lo=Fraction(1, {long_den}), hi=Fraction(1, 1))"
    assert repr(Interval(big, HALF)) == "Interval(lo=Fraction(1, 2^20000), hi=Fraction(1, 2))"
    weights = repr(MeasureFn((tiny, 1 - tiny)))
    assert weights == (
        f"MeasureFn(weights=(Fraction(1, {long_den}), Fraction({hex(10**5000 - 1)}, {long_den})))"
    )
    assert repr(MeasureFn((big,))) == "MeasureFn(weights=(Fraction(1, 2^20000),))"
    f = Formula(Language(("a",)), 1)
    report = EquivalenceReport(False, 2, (f, Interval(0, 1), Interval(tiny, 1)))
    assert repr(report).endswith(f"Interval(lo=Fraction(1, {long_den}), hi=Fraction(1, 1))))")
    assert repr(report).startswith("EquivalenceReport(equivalent=False, checked_count=2, witness=(")


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    build, _ = VALUES[cls]
    value = build()
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol=proto))
        assert back == value and type(back) is cls
    assert copy.deepcopy(value) == value
    assert copy.copy(value) == value


def test_unpickled_structure_answers_queries():
    for st in (coats_ds(), coats_ic()):
        back = pickle.loads(pickle.dumps(st))
        not_d = parse_formula("~d", back.lang)
        assert interval(back, not_d) == interval(st, parse_formula("~d", st.lang))
        assert str(interval(back, not_d)) == "[1/2, 1]"


def _digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()[:16]


def _loaded(kind: str) -> ProbabilityStructure:
    params = GenParams(3, 6, 2203)
    return from_json(to_json(random_total_ds(params) if kind == "ds" else random_ic(params)))


_AB = Language(("a", "b"))
_W3 = SampleSpace(("w1", "w2", "w3"))

# Each algebra's repr and its pickles at protocols 0 to 5, as digests, recorded
# when the algebras still kept their blocks as Formula and WorldSet values.
# The blocks are masks now, built as values when ``basis`` is read; none of
# these bytes changed.
ALGEBRA_PINS = {
    "full": (
        lambda: full_algebra(_AB),
        "9380e8bb45ab11df",
        [
            "2dd41d1c18c16fcd", "c2aa87bd488e58e1", "db6699de6bdd70d2",
            "fd876725c6587417", "a43f31cc3ceca163", "450a9b9ccdcebdba",
        ],
    ),
    "generated": (
        lambda: generate_algebra([parse_formula("a", _AB)], _AB),
        "27ad02acb3c5709b",
        [
            "4e5c166452b2d42e", "8427514ec067a474", "fac34c1d03c011a9",
            "eab60e0b133cc1c4", "11dadfd14268c1dc", "7f3ec818e570b089",
        ],
    ),
    "trivial": (
        lambda: trivial_algebra(_AB),
        "4dff24441ac8c387",
        [
            "1326448853f88ad8", "65bc13efe67d688a", "0355c5368408ea9d",
            "12c9d65b9d522dba", "16712f0b752b2c59", "426a7e00507be03e",
        ],
    ),
    "discrete": (
        lambda: discrete_algebra(_W3),
        "6beab8253fc8325a",
        [
            "ccb9102c79064fd9", "a4b155239de3346f", "1db3b8c7bfada45a",
            "b5759d68440613bb", "c7a8496778229098", "703514b3cbd183a6",
        ],
    ),
    "halves": (
        lambda: SetAlgebra(_W3, [_W3.subset(["w2"]), _W3.subset(["w1", "w3"])]),
        "73aa0b40e3b80b42",
        [
            "f4d6f44f53e25cfe", "6cbc38aa042456b6", "bac063f2885bf5b7",
            "ee87d633fb6d3571", "1c524656de202ae4", "bfaaccc77a04f567",
        ],
    ),
    "loaded ds psi": (
        lambda: _loaded("ds").psi,
        "af25beb66b5b1baa",
        [
            "2bbfbc2e19f847b9", "fae521d304689420", "a5aa598dd2ba06f4",
            "34c3e20f76c00a15", "921b38641521c9c7", "bf083d34a287e7dc",
        ],
    ),
    "loaded ds chi": (
        lambda: _loaded("ds").ps.algebra,
        "637171417196fc43",
        [
            "73aaa9596b11d8b4", "6ecc04761a83dd1e", "d21dc172c773be74",
            "7dfceddd387d2e41", "fb2d895c848d125a", "6b1a5efde5969813",
        ],
    ),
    "loaded ic psi": (
        lambda: _loaded("ic").psi,
        "a8060e955e6566f3",
        [
            "d13d6cdfb210f8f5", "a37bd0523378c736", "14f2624dc8a1a8c9",
            "81f5b52300f75d48", "3c01edec6dacaa26", "9b1d1b5dff1887fb",
        ],
    ),
    "loaded ic chi": (
        lambda: _loaded("ic").ps.algebra,
        "03a192976ef7a468",
        [
            "b9d15d8c2c0c94a2", "fb449c4f7144d12a", "11aa2fa2d871c850",
            "1a2e069c4f137798", "df59331c08bb2764", "8033149c64289003",
        ],
    ),
}


@pytest.mark.parametrize("name", list(ALGEBRA_PINS))
def test_algebras_keep_their_repr_hash_pickles_and_copies(name):
    build, repr_digest, pickle_digests = ALGEBRA_PINS[name]
    algebra = build()
    owner_name = "lang" if isinstance(algebra, FormulaAlgebra) else "space"
    owner = getattr(algebra, owner_name)
    assert _digest(repr(algebra)) == repr_digest
    assert [_digest(pickle.dumps(algebra, protocol=p)) for p in range(6)] == pickle_digests
    assert algebra.__reduce__() == (type(algebra), (owner, algebra.basis))
    assert hash(algebra) == hash(type(algebra)(owner, algebra.basis))  # equal values hash equal
    assert algebra == type(algebra)(owner, algebra.basis) == build()
    assert type(algebra)(**{owner_name: owner, "basis": algebra.basis}) == algebra  # the argument names
    if len(algebra.basis) > 1:  # blocks in another order make another value
        assert algebra != type(algebra)(owner, algebra.basis[::-1])
    for twin in (copy.copy(algebra), copy.deepcopy(algebra), pickle.loads(pickle.dumps(algebra))):
        assert type(twin) is type(algebra) and twin == algebra and hash(twin) == hash(algebra)


# Each loaded structure's repr as a digest, recorded as ALGEBRA_PINS was.
STRUCTURE_PINS = {"ds": "177478227fc8586d", "ic": "a137ae7513dd2a23"}


@pytest.mark.parametrize("kind", list(STRUCTURE_PINS))
def test_a_loaded_structure_keeps_its_repr_hash_pickles_and_copies(kind):
    st = _loaded(kind)
    fields = (st.ps, st.lang, st.psi, st.inc, st.kind)
    assert _digest(repr(st)) == STRUCTURE_PINS[kind]
    assert st.__reduce__() == (ProbabilityStructure, fields)
    assert hash(st) == hash(fields)
    assert st == _loaded(kind) and st != _loaded("ic" if kind == "ds" else "ds")
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(st, protocol=proto))
        assert back == st and hash(back) == hash(st) and to_json(back) == to_json(st)
    assert copy.copy(st) == st and copy.deepcopy(st) == st


def _lang():
    return Language(("a", "b"))


# arguments of the wrong type: each call once raised a bare TypeError or
# AttributeError
WRONG_TYPES = {
    "Language(5)": (lambda: Language(5), "propositions must be iterable, got int"),
    "SampleSpace(None)": (lambda: SampleSpace(None), "worlds must be iterable, got NoneType"),
    "MeasureFn(5)": (lambda: MeasureFn(5), "measure weights must be iterable, got int"),
    "GenParams('2', 4, 1)": (lambda: GenParams("2", 4, 1), "n_props must be int, got str"),
    "Formula('x', 1)": (
        lambda: Formula("x", 1),
        "formula language must be Language, got str",
    ),
    "WorldSet(None, 0)": (
        lambda: WorldSet(None, 0),
        "world set space must be SampleSpace, got NoneType",
    ),
    "FormulaAlgebra(lang, [1])": (
        lambda: FormulaAlgebra(_lang(), [1]),
        "basis block must be Formula, got int",
    ),
    "SetAlgebra(space, [1])": (
        lambda: SetAlgebra(_space(), [1]),
        "basis block must be WorldSet, got int",
    ),
    "IncidenceMap(space, [1])": (
        lambda: IncidenceMap(_space(), [1]),
        "incidence image must be WorldSet, got int",
    ),
    "parse_formula(5, lang)": (
        lambda: parse_formula(5, _lang()),
        "formula text must be str, got int",
    ),
    "parse_formula('a', 5)": (
        lambda: parse_formula("a", 5),
        "formula language must be Language, got int",
    ),
    "ProbabilitySpace(space, 5, mu)": (
        lambda: ProbabilitySpace(_space(), 5, MeasureFn((HALF, HALF))),
        "probability space algebra must be SetAlgebra, got int",
    ),
    "ProbabilityStructure(5, ...)": (
        lambda: ProbabilityStructure(5, _lang(), full_algebra(_lang()), coats_ds().inc, "ds"),
        "structure probability space must be ProbabilitySpace, got int",
    ),
    "generate_algebra([5], lang)": (
        lambda: generate_algebra([5], _lang()),
        "generator must be Formula, got int",
    ),
    "generate_algebra([], 5)": (
        lambda: generate_algebra([], 5),
        "algebra language must be Language, got int",
    ),
    "generate_algebra(5, lang)": (
        lambda: generate_algebra(5, _lang()),
        "generators must be iterable, got int",
    ),
    "basis_of([5])": (lambda: basis_of([5]), "member must be Formula, got int"),
    "basis_of(5)": (lambda: basis_of(5), "members must be iterable, got int"),
    "trivial_algebra(5)": (lambda: trivial_algebra(5), "formula language must be Language, got int"),
    "true_formula(5)": (lambda: true_formula(5), "formula language must be Language, got int"),
    "SetAlgebra.member(5)": (
        lambda: discrete_algebra(_space()).member(5),
        "world set must be WorldSet, got int",
    ),
    "WorldSet.issubset(5)": (
        lambda: _space().everything().issubset(5),
        "world set must be WorldSet, got int",
    ),
    "ws & 5": (lambda: _space().everything() & 5, "world set must be WorldSet, got int"),
    "ws | 5": (lambda: _space().everything() | 5, "world set must be WorldSet, got int"),
    "measure(ps, 5)": (lambda: measure(coats_ds().ps, 5), "world set must be WorldSet, got int"),
    "inner_measure(ps, 5)": (
        lambda: inner_measure(coats_ds().ps, 5),
        "world set must be WorldSet, got int",
    ),
    "discrete_algebra(5)": (
        lambda: discrete_algebra(5),
        "algebra space must be SampleSpace, got int",
    ),
    "measure(5, ws)": (
        lambda: measure(5, _space().everything()),
        "probability space must be ProbabilitySpace, got int",
    ),
    "SampleSpace.subset(5)": (lambda: _space().subset(5), "worlds must be iterable, got int"),
    "ProbabilityStructure.ic(5, ...)": (
        lambda: ProbabilityStructure.ic(5, (1,), coats_ic().psi, ()),
        "algebra space must be SampleSpace, got int",
    ),
    "ProbabilityStructure.ic(space, w, 5, ...)": (
        lambda: ProbabilityStructure.ic(_space(), (HALF, HALF), 5, ()),
        "structure formula algebra must be FormulaAlgebra, got int",
    ),
    "random_ic(5)": (lambda: random_ic(5), "generator parameters must be GenParams, got int"),
    "random_total_ds(5)": (
        lambda: random_total_ds(5),
        "generator parameters must be GenParams, got int",
    ),
    "ValidationReport(5)": (lambda: ValidationReport(5), "problems must be iterable, got int"),
    "format_rational('x')": (lambda: format_rational("x"), "not a rational number: 'x'"),
}


@pytest.mark.parametrize("call", list(WRONG_TYPES))
def test_wrong_argument_types_raise_validation_error(call):
    build, message = WRONG_TYPES[call]
    with pytest.raises(Exception) as err:
        build()
    assert type(err.value) is ValidationError
    assert str(err.value) == message


# --- what the logic and measure twins share --------------------------------

NAME_ERRORS = {
    "no propositions": (lambda: Language(()), "a language needs between 1 and 16 propositions, got 0"),
    "17 propositions": (
        lambda: Language(f"p{i}" for i in range(17)),
        "a language needs between 1 and 16 propositions, got 17",
    ),
    "a proposition no identifier": (lambda: Language(("a", "1b")), "invalid proposition name '1b'"),
    "a proposition with a newline": (lambda: Language(("a\n",)), "invalid proposition name 'a\\n'"),
    "a proposition no string": (lambda: Language(("a", 5)), "invalid proposition name 5"),
    "true": (lambda: Language(("a", "true")), "proposition name 'true' is reserved"),
    "false": (lambda: Language(("false",)), "proposition name 'false' is reserved"),
    "a repeated proposition": (lambda: Language(("a", "b", "a")), "duplicate proposition name 'a'"),
    "a repeat before a bad name": (lambda: Language(("a", "a", "b c")), "duplicate proposition name 'a'"),
    "no worlds": (lambda: SampleSpace([]), "a sample space needs between 1 and 64 worlds, got 0"),
    "65 worlds": (
        lambda: SampleSpace(f"w{i}" for i in range(65)),
        "a sample space needs between 1 and 64 worlds, got 65",
    ),
    "a world no identifier": (lambda: SampleSpace(("w1", "w 2")), "invalid world name 'w 2'"),
    "a world no string": (lambda: SampleSpace(("w1", None)), "invalid world name None"),
    "a repeated world": (lambda: SampleSpace(("w1", "w2", "w2")), "duplicate world name 'w2'"),
    "a bad name before a repeat": (lambda: SampleSpace(("w-1", "w1", "w1")), "invalid world name 'w-1'"),
}


@pytest.mark.parametrize("case", list(NAME_ERRORS))
def test_name_check_messages(case):
    build, message = NAME_ERRORS[case]
    with pytest.raises(Exception) as err:
        build()
    assert type(err.value) is ValidationError
    assert str(err.value) == message


def test_names_at_the_size_limits_and_world_names_reserve_nothing():
    assert len(Language(f"p{i}" for i in range(16)).props) == 16
    assert len(SampleSpace(f"w{i}" for i in range(64)).worlds) == 64
    assert SampleSpace(("true", "false", "_x9")).worlds == ("true", "false", "_x9")


def _scan(mask: int, width: int) -> list[int]:
    """The set bits of ``mask`` below ``width``, by testing each position."""
    return [i for i in range(width) if mask >> i & 1]


def _masks(width: int, seed: int) -> list[int]:
    """Empty, every single bit, full, and a few seeded masks of ``width`` bits."""
    rng = random.Random(seed)
    full = (1 << width) - 1
    singles = [1 << i for i in range(width)] if width <= 64 else [1, 1 << width // 2, 1 << width - 1]
    return [0, full, full ^ 1, full >> 1, *singles, *(rng.getrandbits(width) for _ in range(8))]


@pytest.mark.parametrize("n_props", [1, 2, 3, 6, 12])
def test_atom_indices_match_a_range_scan(n_props):
    lang = Language(f"p{i}" for i in range(n_props))
    for mask in _masks(lang.n_atoms, n_props):
        assert Formula(lang, mask).atom_indices() == _scan(mask, lang.n_atoms)


@pytest.mark.parametrize("n_worlds", [1, 2, 7, 64])
def test_world_names_match_a_range_scan(n_worlds):
    space = SampleSpace(f"w{i}" for i in range(n_worlds))
    for mask in _masks(n_worlds, n_worlds):
        want = tuple(space.worlds[i] for i in _scan(mask, n_worlds))
        assert WorldSet(space, mask).names() == want


def test_twin_values_compare_by_fields():
    for a, b, c in (
        (Language(("a", "b")), Language(["a", "b"]), Language(("b", "a"))),
        (SampleSpace(("w1", "w2")), SampleSpace(["w1", "w2"]), SampleSpace(("w2", "w1"))),
        (Formula(Language(("a",)), 1), Formula(Language(("a",)), 1), Formula(Language(("b",)), 1)),
        (WorldSet(_space(), 1), WorldSet(_space(), 1), WorldSet(SampleSpace(("w1", "w3")), 1)),
    ):
        assert a == a and not a != a
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != c and not a == c
        assert a != a.__reduce__()[1] and a != None  # noqa: E711


# --- one partition walk ------------------------------------------------------
# The loops FormulaAlgebra, SetAlgebra and IncidenceMap.partition_problems each
# ran before they shared value.partition_faults, kept as the reference.


def reference_formula_algebra(lang, basis):
    covered = 0
    for block in basis:
        if not isinstance(block, Formula):
            raise ValidationError(f"basis block must be Formula, got {type(block).__name__}")
        if block.lang != lang:
            raise LanguageMismatchError("basis block belongs to a different language")
        if block.is_false:
            raise ValidationError("basis blocks must be nonempty")
        if covered & block.atoms:
            raise ValidationError(
                f"basis blocks overlap: {format_formula(block)} is not disjoint from earlier blocks"
            )
        covered |= block.atoms
    if covered != lang.full_mask:
        raise ValidationError("basis blocks do not cover every atom")


def reference_set_algebra(space, basis):
    covered = 0
    for block in basis:
        if not isinstance(block, WorldSet):
            raise ValidationError(f"basis block must be WorldSet, got {type(block).__name__}")
        if block.space != space:
            raise ValidationError("basis block belongs to a different sample space")
        if block.is_empty:
            raise ValidationError("basis blocks must be nonempty")
        if covered & block.bits:
            raise ValidationError(f"basis blocks overlap: {block} intersects earlier blocks")
        covered |= block.bits
    if covered != space.full_bits:
        raise ValidationError("basis blocks do not cover every world")


def reference_partition_problems(inc):
    problems = []
    seen = 0
    for image in inc.images:
        overlap = seen & image.bits
        if overlap:
            problems.append(
                f"incidence images overlap on {WorldSet(inc.space, overlap)}: "
                f"images of distinct blocks must be disjoint"
            )
        seen |= image.bits
    if seen != inc.space.full_bits:
        missing = WorldSet(inc.space, inc.space.full_bits ^ seen)
        problems.append(f"incidence images do not cover worlds {missing}")
    return problems


def _refusal(call):
    """The type and message of what ``call`` raises; None if it returns."""
    try:
        call()
    except Exception as e:
        return type(e), str(e)
    return None


def _seeded_masks(rng, width: int) -> list[int]:
    """0 to 6 masks of ``width`` bits: random ones, or a random partition with
    up to three faults (a block dropped, an empty block, bits added to a
    block, a random block put in)."""
    full = (1 << width) - 1
    if rng.random() < 0.3:
        return [rng.getrandbits(width) for _ in range(rng.randrange(7))]
    k = rng.randrange(1, 7)
    owner = [rng.randrange(k) for _ in range(width)]
    masks = [sum(1 << b for b in range(width) if owner[b] == j) for j in range(k)]
    for _ in range(rng.randrange(4)):
        fault = rng.randrange(4)
        if fault == 0 and masks:
            masks.pop(rng.randrange(len(masks)))
        elif fault == 1:
            masks.insert(rng.randrange(len(masks) + 1), 0)
        elif fault == 2 and masks:
            masks[rng.randrange(len(masks))] |= rng.getrandbits(width) & full
        else:
            masks.insert(rng.randrange(len(masks) + 1), rng.getrandbits(width))
    return masks[:6]


def test_the_partition_walk_names_what_the_three_loops_named():
    outcomes = set()
    for seed in range(6000):
        rng = random.Random(seed)
        lang = Language(f"p{i}" for i in range(rng.randrange(1, 4)))
        space = SampleSpace(f"w{i}" for i in range(rng.randrange(1, 7)))
        blocks = [Formula(lang, m) for m in _seeded_masks(rng, lang.n_atoms)]
        want = _refusal(lambda: reference_formula_algebra(lang, blocks))
        assert _refusal(lambda: FormulaAlgebra(lang, blocks)) == want, seed
        outcomes.add(want and " ".join(want[1].split()[:3]))
        chi = [WorldSet(space, m) for m in _seeded_masks(rng, space.size)]
        want = _refusal(lambda: reference_set_algebra(space, chi))
        assert _refusal(lambda: SetAlgebra(space, chi)) == want, seed
        outcomes.add(want and " ".join(want[1].split()[:3]))
        inc = IncidenceMap(space, [WorldSet(space, m) for m in _seeded_masks(rng, space.size)])
        want = reference_partition_problems(inc)
        assert inc.partition_problems() == want, seed
        outcomes.update(" ".join(problem.split()[:3]) for problem in want)
    assert outcomes == {
        None,
        "basis blocks must",
        "basis blocks overlap:",
        "basis blocks do",
        "incidence images overlap",
        "incidence images do",
    }


def test_partition_faults_in_order():
    assert list(partition_faults([1, 6], 7)) == []
    assert list(partition_faults([1, 0, 3, 2], 15)) == [(1, 0), (2, 1), (3, 2), (None, 12)]
    assert list(partition_faults([], 1)) == [(None, 1)]
    assert list(partition_faults([0], 1)) == [(0, 0), (None, 1)]
    # the sum alone would pass these masks, the OR alone ones with an empty mask
    assert list(partition_faults([1, 3, 3], 7)) == [(1, 1), (2, 3), (None, 4)]
    assert list(partition_faults([3, 0], 3)) == [(1, 0)]


def test_element_types_are_checked_before_the_partition():
    # the three loops named the first fault block by block, so an overlap or an
    # empty block before a block of the wrong type or universe was named first
    lang, space = _lang(), _space()
    a, ab = Formula(lang, 1), Formula(lang, 3)
    for build, error, message in (
        (lambda: FormulaAlgebra(lang, (a, ab, 5)), ValidationError, "basis block must be Formula, got int"),
        (
            lambda: FormulaAlgebra(lang, (a, ab, Formula(Language(("a", "c")), 12))),
            LanguageMismatchError,
            "basis block belongs to a different language",
        ),
        (
            lambda: SetAlgebra(space, (space.nothing(), 5)),
            ValidationError,
            "basis block must be WorldSet, got int",
        ),
        (
            lambda: SetAlgebra(space, (space.everything(), WorldSet(SampleSpace(("x",)), 1))),
            ValidationError,
            "basis block belongs to a different sample space",
        ),
        # a block over an equal but distinct space passes to the walk
        (
            lambda: SetAlgebra(space, (space.everything(), WorldSet(_space(), 1))),
            ValidationError,
            "basis blocks overlap: {w1} intersects earlier blocks",
        ),
    ):
        assert _refusal(build) == (error, message)


# Each incidence map's repr and its pickles at protocols 0 to 5, as digests,
# recorded when the maps still kept their images as WorldSet values.  The
# images are masks now, built as values when ``images`` is read.
INCIDENCE_PINS = {
    "built": (
        lambda: IncidenceMap(_W3, [_W3.subset(["w2"]), _W3.nothing(), _W3.subset(["w1", "w3"])]),
        "3d8e2e25ddf14284",
        [
            "ec57d1b769f15043", "26c57de7418cdb30", "fec7e7bff9ed364d",
            "6d8004a906a5baf7", "461dbc6ab94c2bff", "ff3dc43a54957bd3",
        ],
    ),
    "coats ds": (
        lambda: coats_ds().inc,
        "00ceffaac4507992",
        [
            "ecdc819160dc2a65", "cb33570877026040", "70a8eb3311a20c8b",
            "bca59ad702b12662", "1db91d004e0d8343", "6872706394cf6085",
        ],
    ),
    "coats ic": (
        lambda: coats_ic().inc,
        "a16c42df8fbb7850",
        [
            "c6cdae97094b6a28", "17422fb137afa983", "d42b29dc26726c38",
            "99ec6835b3a092bc", "c848be68a54352c3", "c18fe93f303a0f7a",
        ],
    ),
    "loaded ds": (
        lambda: _loaded("ds").inc,
        "bd494b211d1aa2a6",
        [
            "113fa62770d46712", "c86e5c7fc9f1cff4", "6f1376cd04b7eacf",
            "75423c546d9653fe", "87f11500ab04346a", "0efceb7f85b10e1a",
        ],
    ),
    "loaded ic": (
        lambda: _loaded("ic").inc,
        "5e2ed91ccdc19983",
        [
            "21f947012e963373", "b6070d30b03bdfb1", "cd1ddc2410e33285",
            "ff3a1781191a8802", "63585d989c7ccfbd", "c93c1fdb9847cd58",
        ],
    ),
    "lifted": (
        lambda: ic_to_ds(coats_ic()).inc,
        "0089ab3c52bbb482",
        [
            "9ff708775db6df48", "d9564cb1d2dfce10", "a8f097803b69577a",
            "5ddce616d07b12f5", "75f39003b97805cc", "c59727a398d64cee",
        ],
    ),
    "collapsed": (  # the coats ic, by another road
        lambda: ds_to_ic(coats_ds()).inc,
        "a16c42df8fbb7850",
        [
            "c6cdae97094b6a28", "17422fb137afa983", "d42b29dc26726c38",
            "99ec6835b3a092bc", "c848be68a54352c3", "c18fe93f303a0f7a",
        ],
    ),
}


@pytest.mark.parametrize("name", list(INCIDENCE_PINS))
def test_incidence_maps_keep_their_repr_hash_pickles_and_copies(name):
    build, repr_digest, pickle_digests = INCIDENCE_PINS[name]
    inc = build()
    assert _digest(repr(inc)) == repr_digest
    assert [_digest(pickle.dumps(inc, protocol=p)) for p in range(6)] == pickle_digests
    assert inc.__reduce__() == (IncidenceMap, (inc.space, inc.images))
    assert hash(inc) == hash(IncidenceMap(inc.space, inc.images))  # equal values hash equal
    assert inc == IncidenceMap(inc.space, inc.images) == IncidenceMap(space=inc.space, images=inc.images) == build()
    assert inc.masks == tuple(image.bits for image in inc.images)
    if len(set(inc.masks)) > 1:  # images in another order make another value
        assert inc != IncidenceMap(inc.space, inc.images[::-1])
    for twin in (copy.copy(inc), copy.deepcopy(inc), pickle.loads(pickle.dumps(inc))):
        assert type(twin) is IncidenceMap and twin == inc and hash(twin) == hash(inc)
        assert twin.masks == inc.masks and twin.images == inc.images


# Each loaded structure's pickles at protocols 0 to 5, recorded as INCIDENCE_PINS was.
STRUCTURE_PICKLE_PINS = {
    "ds": [
        "11f4773335268dd1", "d9209e7a5a2ada2f", "a1156485494fcfe1",
        "b973c259df727b69", "07ca8b143cb71c71", "8568e59cde011458",
    ],
    "ic": [
        "53770e12ca0a053c", "28f1c0652c444aea", "a6603432ad5c1a31",
        "4ac22e9fbf807eed", "37e5e71d98d1c568", "e0d07b5ebffe69b1",
    ],
}


@pytest.mark.parametrize("kind", list(STRUCTURE_PICKLE_PINS))
def test_a_loaded_structure_keeps_its_pickles(kind):
    st = _loaded(kind)
    assert [_digest(pickle.dumps(st, protocol=p)) for p in range(6)] == STRUCTURE_PICKLE_PINS[kind]


NAME_CORPUS = (
    ["a", "_", "_x9", "Z_1", "x" * 64, "true", "false", "", "a\n", "\n", "a b", "a-b", "a.b", "1a", "9"]
    + ["é", "aé", "ß", "\uff41", "a\u200b", "\u01c5", "\u2168", "_\u00b7", "\u0131", "K\u212a"]
    + keyword.kwlist
    + [chr(c) for c in range(0x100)]
    + ["a" + chr(c) for c in range(0x100)]
    + [chr(c) + "1" for c in range(0x100, 0x3000, 11)]
)


def test_names_are_checked_as_the_identifier_pattern_checks_them():
    pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")  # the check's earlier spelling, as the oracle
    for name in NAME_CORPUS:
        try:
            accepted = check_names([name], 1, "a test", "world") == (name,)
        except ValidationError as e:
            assert str(e) == f"invalid world name {name!r}"
            accepted = False
        assert accepted == bool(pattern.match(name)), name
