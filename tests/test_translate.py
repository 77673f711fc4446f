"""Translations, equivalence checking, random generators, round trips."""

import random
from fractions import Fraction

import pytest

from probstruct import (
    Formula,
    GenParams,
    IncidenceMap,
    Interval,
    Language,
    LanguageMismatchError,
    NotTotalError,
    ProbabilityStructure,
    ProbstructError,
    SampleSpace,
    StructureKind,
    ValidationError,
    WorldSet,
    WrongKindError,
    coats_ds,
    coats_ic,
    ds_to_ic,
    equivalent,
    format_formula,
    ic_to_ds,
    interval,
    is_total,
    measure,
    parse_formula,
    random_ic,
    random_total_ds,
    round_trip_check,
    trivial_algebra,
    validate,
)
from probstruct.structures import _focal_weights

HALF = Fraction(1, 2)


def _lower_table(st):
    """Lower probability of every formula, indexed by atom bitmask, summed
    by brute force from the structure's mass function."""
    pairs = _focal_weights(st)
    return [
        sum((w for mask, w in pairs if mask & ~m == 0), Fraction(0))
        for m in range(st.lang.full_mask + 1)
    ]


def _scan_report(a, b):
    """equivalent's report, found by querying interval on every formula."""
    full = a.lang.full_mask
    for m in range(full + 1):
        f = Formula(a.lang, m)
        in_a, in_b = interval(a, f), interval(b, f)
        if in_a != in_b:
            return False, m + 1, (f, in_a, in_b)
    return True, full + 1, None


def _blocks_are_image_unions(ds):
    """is_total's definition: every measurable block is a union of images."""
    for block in ds.ps.algebra.basis:
        union = 0
        for image in ds.inc.images:
            if image.bits and image.bits & ~block.bits == 0:
                union |= image.bits
        if union != block.bits:
            return False
    return True


def _random_ds(rng, n_props, n_worlds):
    """A well-formed ds whose measurable blocks and atom images are drawn
    independently, so it is total only by chance."""
    lang = Language(tuple(f"p{i + 1}" for i in range(n_props)))
    space = SampleSpace(tuple(f"w{i + 1}" for i in range(n_worlds)))
    image_bits = [0] * lang.n_atoms
    for i in range(n_worlds):
        image_bits[rng.randrange(lang.n_atoms)] |= 1 << i
    groups = {}
    for i in range(n_worlds):
        urn = rng.randrange(n_worlds)
        groups[urn] = groups.get(urn, 0) | 1 << i
    chi_basis = tuple(WorldSet(space, bits) for bits in groups.values())
    weights = tuple(Fraction(1, len(chi_basis)) for _ in chi_basis)
    images = tuple(WorldSet(space, bits) for bits in image_bits)
    return ProbabilityStructure.ds(space, chi_basis, weights, lang, images)


def uncovered_ds():
    """World w2 lies in no atom image, built past the checking constructor."""
    lang = Language(("a",))
    space = SampleSpace(("w1", "w2"))
    chi_basis = (space.subset(["w1"]), space.subset(["w2"]))
    st = ProbabilityStructure.ds(
        space, chi_basis, (HALF, HALF), lang, (space.subset(["w1"]), space.subset(["w2"]))
    )
    images = IncidenceMap(space, (space.subset(["w1"]), space.subset([])))
    return ProbabilityStructure(st.ps, lang, st.psi, images, StructureKind.DS)


# --- lifting ic to ds --------------------------------------------------------


def test_ic_to_ds_on_coats():
    ds = ic_to_ds(coats_ic())
    assert ds.kind is StructureKind.DS
    assert ds.ps.space.worlds == ("notg_notd", "g_notd", "notg_d", "g_d")
    # measurable blocks mirror the formula algebra, weights carry the
    # incidence measures (the dead atom's block weighs nothing)
    blocks = {block.names(): w for block, w in zip(ds.ps.algebra.basis, ds.ps.mu.weights)}
    assert blocks == {
        ("notg_notd",): HALF,
        ("g_notd", "g_d"): HALF,
        ("notg_d",): Fraction(0),
    }
    assert validate(ds).ok
    assert is_total(ds)
    assert str(interval(ds, parse_formula("~d", ds.lang))) == "[1/2, 1]"


def test_ic_to_ds_equivalent_and_total():
    ic = coats_ic()
    report = equivalent(ic, ic_to_ds(ic))
    assert report.equivalent
    assert report.checked_count == 16


def test_ic_to_ds_vacuous():
    lang = Language(("g", "d"))
    space = SampleSpace(("w1", "w2"))
    ic = ProbabilityStructure.ic(
        space, (HALF, HALF), trivial_algebra(lang), (space.everything(),)
    )
    ds = ic_to_ds(ic)
    assert len(ds.ps.algebra.basis) == 1
    assert ds.ps.mu.weights == (Fraction(1),)
    assert str(interval(ds, parse_formula("g", ds.lang))) == "[0, 1]"
    assert equivalent(ic, ds).equivalent


def test_ic_to_ds_requires_ic():
    with pytest.raises(WrongKindError):
        ic_to_ds(coats_ds())


def test_ic_to_ds_atom_count_cap():
    lang = Language(tuple(f"p{i}" for i in range(7)))  # 128 atoms > 64 worlds
    space = SampleSpace(("w1",))
    ic = ProbabilityStructure.ic(
        space, (Fraction(1),), trivial_algebra(lang), (space.everything(),)
    )
    with pytest.raises(ValidationError):
        ic_to_ds(ic)


# --- collapsing ds to ic -----------------------------------------------------


def test_ds_to_ic_on_coats():
    ic = ds_to_ic(coats_ds())
    assert ic.kind is StructureKind.IC
    assert ic.ps.space.worlds == ("w1", "w2")
    assert measure(ic.ps, ic.ps.space.subset(["w1"])) == HALF
    assert measure(ic.ps, ic.ps.space.subset(["w2"])) == HALF
    assert [format_formula(b) for b in ic.psi.basis] == [
        "(~g & ~d)",
        "(g & ~d) | (g & d)",
        "(~g & d)",
    ]
    images = {format_formula(b): img.names() for b, img in zip(ic.psi.basis, ic.inc.images)}
    assert images == {
        "(~g & ~d)": ("w1",),
        "(g & ~d) | (g & d)": ("w2",),
        "(~g & d)": (),
    }
    assert validate(ic).ok
    assert equivalent(coats_ds(), ic).equivalent


def test_ds_to_ic_member_set():
    # formulas with defined incidence after collapsing: exactly those whose
    # incidence was measurable before
    ic = ds_to_ic(coats_ds())
    member_texts = {
        "false",
        "~g & d",
        "~g & ~d",
        "(g & ~d) | (g & d)",
        "(~g & ~d) | (~g & d)",
        "(~g & d) | (g & ~d) | (g & d)",
        "(~g & ~d) | (g & ~d) | (g & d)",
        "true",
    }
    expected = {parse_formula(t, ic.lang) for t in member_texts}
    assert set(ic.psi.members()) == expected


def test_ds_to_ic_vacuous():
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2"))
    ds = ProbabilityStructure.ds(
        space,
        (space.everything(),),
        (Fraction(1),),
        lang,
        (space.subset(["s1"]), space.subset(["s2"]), space.nothing(), space.nothing()),
    )
    ic = ds_to_ic(ds)
    assert ic.ps.space.worlds == ("w1",)
    assert equivalent(ds, ic).equivalent


def test_ds_to_ic_requires_total():
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    ds = ProbabilityStructure.ds(
        space,
        (space.subset(["s1"]), space.subset(["s2", "s3", "s4"])),
        (HALF, HALF),
        lang,
        (
            space.subset(["s1", "s2"]),
            space.subset(["s3"]),
            space.nothing(),
            space.subset(["s4"]),
        ),
    )
    with pytest.raises(NotTotalError):
        ds_to_ic(ds)


def test_ds_to_ic_requires_ds():
    with pytest.raises(WrongKindError):
        ds_to_ic(coats_ic())


# --- equivalence -------------------------------------------------------------


def test_fixtures_are_equivalent():
    report = equivalent(coats_ds(), coats_ic())
    assert report.equivalent
    assert report.checked_count == 16
    assert report.witness is None


def test_equivalence_is_reflexive():
    for st in (coats_ds(), coats_ic()):
        assert equivalent(st, st).equivalent


def test_perturbed_weights_yield_witness():
    ds = coats_ds()
    space = ds.ps.space
    skewed = ProbabilityStructure.ds(
        space,
        ds.ps.algebra.basis,
        (Fraction(1, 4), Fraction(3, 4)),
        ds.lang,
        ds.inc.images,
    )
    report = equivalent(ds, skewed)
    assert not report.equivalent
    f, in_a, in_b = report.witness
    # first disagreement in atom-bitmask order, worked out by hand
    assert format_formula(f) == "(~g & ~d)"
    assert in_a == Interval(HALF, HALF)
    assert in_b == Interval(Fraction(1, 4), Fraction(1, 4))
    assert report.checked_count == 2


def test_equivalent_requires_shared_language():
    lang = Language(("d", "g"))  # same names, different bit order
    space = SampleSpace(("w1",))
    other = ProbabilityStructure.ic(
        space, (Fraction(1),), trivial_algebra(lang), (space.everything(),)
    )
    with pytest.raises(LanguageMismatchError):
        equivalent(coats_ic(), other)


def test_equivalent_language_cap():
    lang = Language(("a", "b", "c", "e", "f"))
    space = SampleSpace(("w1",))
    st = ProbabilityStructure.ic(
        space, (Fraction(1),), trivial_algebra(lang), (space.everything(),)
    )
    with pytest.raises(ValidationError, match="too large"):
        equivalent(st, st)


def test_lower_table_matches_interval():
    # the checker's precomputed table must agree with the public query path
    for seed in range(10):
        for st in (
            random_ic(GenParams(2, 4, 2200 + seed)),
            random_total_ds(GenParams(2, 4, 2200 + seed)),
            coats_ds(),
            coats_ic(),
        ):
            table = _lower_table(st)
            full = st.lang.full_mask
            for mask in range(full + 1):
                got = interval(st, Formula(st.lang, mask))
                assert got.lo == table[mask]
                assert got.hi == 1 - table[full ^ mask]


def test_equivalent_matches_interval_scan():
    # half the pairs are translations of each other, half are unrelated
    # structures of the same language
    for seed in range(500):
        params = GenParams(1 + seed % 3, 1 + seed // 3 % 8, 4000 + seed)
        other = GenParams(params.n_props, 1 + seed // 7 % 8, 9000 + seed)
        if seed % 2:
            st, there, unrelated = random_ic(params), ic_to_ds, random_total_ds(other)
        else:
            st, there, unrelated = random_total_ds(params), ds_to_ic, random_ic(other)
        for a, b in ((st, there(st)), (st, unrelated)):
            report = equivalent(a, b)
            assert (report.equivalent, report.checked_count, report.witness) == _scan_report(a, b)


def test_is_total_matches_block_union_definition():
    rng = random.Random(5150)
    seen = set()
    for seed in range(300):
        n_props, n_worlds = 1 + seed % 3, 1 + seed % 8
        if seed % 2:
            ds = random_total_ds(GenParams(n_props, n_worlds, 5000 + seed))
        else:
            ds = _random_ds(rng, n_props, n_worlds)
        expected = _blocks_are_image_unions(ds)
        assert is_total(ds) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_uncovered_world_is_refused():
    st = uncovered_ds()
    assert validate(st).problems == ("incidence images do not cover worlds {w2}",)
    for check in (is_total, ds_to_ic, lambda s: equivalent(s, s)):
        with pytest.raises(ProbstructError, match="do not cover worlds"):
            check(st)


# --- generators --------------------------------------------------------------


def test_generators_are_deterministic():
    params = GenParams(3, 6, 12345)
    assert random_ic(params) == random_ic(params)
    assert random_total_ds(params) == random_total_ds(params)
    assert random_ic(params) != random_ic(GenParams(3, 6, 12346))


def test_generated_structures_are_valid():
    for seed in range(50):
        ic = random_ic(GenParams(1 + seed % 3, 1 + seed % 8, seed))
        assert ic.kind is StructureKind.IC
        assert validate(ic).ok
        ds = random_total_ds(GenParams(1 + seed % 3, 1 + seed % 8, seed))
        assert ds.kind is StructureKind.DS
        assert validate(ds).ok
        assert is_total(ds)


def test_gen_params_bounds():
    with pytest.raises(ValidationError):
        GenParams(0, 4, 1)
    with pytest.raises(ValidationError):
        GenParams(5, 4, 1)
    with pytest.raises(ValidationError):
        GenParams(2, 0, 1)
    with pytest.raises(ValidationError):
        GenParams(2, 9, 1)
    with pytest.raises(ValidationError):
        GenParams(2, 4, -1)
    with pytest.raises(ValidationError):
        GenParams(2, 4, 1 << 64)


# --- round trips -------------------------------------------------------------


def test_round_trip_both_directions():
    assert round_trip_check(coats_ic()).equivalent
    assert round_trip_check(coats_ds()).equivalent
    for seed in range(25):
        assert round_trip_check(random_ic(GenParams(2, 5, 3000 + seed))).equivalent
        assert round_trip_check(random_total_ds(GenParams(2, 5, 3100 + seed))).equivalent
