"""Incidence, belief/plausibility, intervals, validation, totality."""

import itertools
from fractions import Fraction

import pytest

from probstruct import (
    Formula,
    GenParams,
    IncidenceMap,
    Interval,
    Language,
    ProbabilityStructure,
    SampleSpace,
    StructureKind,
    UndefinedIncidenceError,
    ValidationError,
    WrongKindError,
    bel,
    coats_ds,
    coats_ic,
    false_formula,
    format_formula,
    incidence,
    interval,
    is_total,
    lower_incidence,
    mobius_mass,
    parse_formula,
    plb,
    random_ic,
    random_total_ds,
    true_formula,
    upper_incidence,
    validate,
)

HALF = Fraction(1, 2)


# --- incidence ---------------------------------------------------------------


def test_incidence_on_algebra_members():
    ic = coats_ic()
    assert incidence(ic, parse_formula("~g & ~d", ic.lang)).names() == ("w1",)
    assert incidence(ic, parse_formula("(g & ~d) | (g & d)", ic.lang)).names() == ("w2",)
    assert incidence(ic, parse_formula("~g & d", ic.lang)).is_empty
    assert incidence(ic, true_formula(ic.lang)).names() == ("w1", "w2")
    assert incidence(ic, false_formula(ic.lang)).is_empty


def test_incidence_undefined_outside_algebra():
    ic = coats_ic()
    with pytest.raises(UndefinedIncidenceError):
        incidence(ic, parse_formula("~d", ic.lang))
    # the same formula still gets interval bounds
    assert str(interval(ic, parse_formula("~d", ic.lang))) == "[1/2, 1]"


def test_incidence_is_homomorphic_on_fixtures():
    for st in (coats_ic(), coats_ds()):
        members = list(st.psi.members())
        everything = st.ps.space.everything()
        for phi in members:
            assert incidence(st, ~phi) == ~incidence(st, phi)
        for phi, psi_f in itertools.product(members, members):
            assert incidence(st, phi & psi_f) == incidence(st, phi) & incidence(st, psi_f)
            assert incidence(st, phi | psi_f) == incidence(st, phi) | incidence(st, psi_f)
        assert incidence(st, true_formula(st.lang)) == everything


# --- lower and upper incidence -----------------------------------------------


def test_lower_upper_incidence_on_coats():
    ic = coats_ic()
    not_d = parse_formula("~d", ic.lang)
    assert lower_incidence(ic, not_d).names() == ("w1",)
    assert upper_incidence(ic, not_d) == ic.ps.space.everything()
    # on members both collapse to the incidence itself
    member = parse_formula("~g & ~d", ic.lang)
    assert lower_incidence(ic, member) == incidence(ic, member)
    assert upper_incidence(ic, member) == incidence(ic, member)


def test_lower_upper_duality_random():
    for seed in range(30):
        ic = random_ic(GenParams(2, 4, 500 + seed))
        for mask in range(16):
            xi = Formula(ic.lang, mask)
            assert upper_incidence(ic, xi) == ~lower_incidence(ic, ~xi)
            assert lower_incidence(ic, xi).issubset(upper_incidence(ic, xi))


def test_lower_upper_require_ic():
    ds = coats_ds()
    with pytest.raises(WrongKindError):
        lower_incidence(ds, true_formula(ds.lang))
    with pytest.raises(WrongKindError):
        upper_incidence(ds, true_formula(ds.lang))


# --- belief and plausibility -------------------------------------------------


def test_bel_plb_values_on_coats():
    ds = coats_ds()
    not_d = parse_formula("~d", ds.lang)
    assert bel(ds, not_d) == HALF
    assert plb(ds, not_d) == 1
    assert bel(ds, ~not_d) == 0
    assert plb(ds, ~not_d) == HALF


def test_bel_plb_extremes():
    ds = coats_ds()
    assert bel(ds, false_formula(ds.lang)) == 0
    assert bel(ds, true_formula(ds.lang)) == 1
    assert plb(ds, false_formula(ds.lang)) == 0
    assert plb(ds, true_formula(ds.lang)) == 1


def test_bel_plb_require_ds():
    ic = coats_ic()
    with pytest.raises(WrongKindError):
        bel(ic, true_formula(ic.lang))
    with pytest.raises(WrongKindError):
        plb(ic, true_formula(ic.lang))


def test_bel_monotone_and_dual_random():
    for seed in range(30):
        ds = random_total_ds(GenParams(2, 4, 900 + seed))
        one = Fraction(1)
        for mask in range(16):
            xi = Formula(ds.lang, mask)
            assert plb(ds, xi) == one - bel(ds, ~xi)
            assert bel(ds, xi) <= plb(ds, xi)
            for wider in range(16):
                if mask & ~wider == 0:
                    assert bel(ds, xi) <= bel(ds, Formula(ds.lang, wider))


# --- intervals ---------------------------------------------------------------


def test_interval_on_both_fixtures():
    not_d_text = "~d"
    for st in (coats_ds(), coats_ic()):
        got = interval(st, parse_formula(not_d_text, st.lang))
        assert (got.lo, got.hi) == (HALF, Fraction(1))
        assert str(got) == "[1/2, 1]"


def test_interval_extremes():
    for st in (coats_ds(), coats_ic()):
        assert str(interval(st, true_formula(st.lang))) == "[1, 1]"
        assert str(interval(st, false_formula(st.lang))) == "[0, 0]"


def test_interval_is_a_point_on_members():
    ic = coats_ic()
    for phi in ic.psi.members():
        got = interval(ic, phi)
        assert got.lo == got.hi


def test_interval_duality_random():
    for seed in range(20):
        for st in (random_ic(GenParams(2, 5, seed)), random_total_ds(GenParams(2, 5, seed))):
            for mask in range(16):
                xi = Formula(st.lang, mask)
                assert interval(st, xi).lo == 1 - interval(st, ~xi).hi


def test_interval_class_validates():
    with pytest.raises(ValidationError):
        Interval(Fraction(2, 3), Fraction(1, 3))
    with pytest.raises(ValidationError):
        Interval(Fraction(-1, 3), Fraction(1, 3))
    with pytest.raises(ValidationError):
        Interval(Fraction(1, 2), Fraction(3, 2))


# --- totality ----------------------------------------------------------------


def non_total_ds() -> ProbabilityStructure:
    """Measurable block {s1} is not a union of incidences."""
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    chi_basis = (space.subset(["s1"]), space.subset(["s2", "s3", "s4"]))
    atom_images = (
        space.subset(["s1", "s2"]),
        space.subset(["s3"]),
        space.subset([]),
        space.subset(["s4"]),
    )
    return ProbabilityStructure.ds(space, chi_basis, (HALF, HALF), lang, atom_images)


def test_is_total():
    assert is_total(coats_ds())
    assert not is_total(non_total_ds())
    with pytest.raises(WrongKindError):
        is_total(coats_ic())


# --- validation --------------------------------------------------------------


def test_fixtures_validate_cleanly():
    assert validate(coats_ds()).ok
    assert validate(coats_ic()).ok
    assert validate(non_total_ds()).ok  # not total, but well formed


def test_validate_reports_bad_weight_sum():
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    st = ProbabilityStructure.ds(
        space,
        (space.subset(["s1", "s2"]), space.subset(["s3", "s4"])),
        (Fraction(1, 4), HALF),
        lang,
        coats_ds().inc.images,
    )
    report = validate(st)
    assert not report.ok
    assert any("sum to 3/4" in p for p in report.problems)


def test_validate_reports_negative_weight():
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    st = ProbabilityStructure.ds(
        space,
        (space.subset(["s1", "s2"]), space.subset(["s3", "s4"])),
        (Fraction(-1, 2), Fraction(3, 2)),
        lang,
        coats_ds().inc.images,
    )
    assert any("negative" in p for p in validate(st).problems)


def test_validate_reports_overlapping_images():
    base = coats_ic()
    space = base.ps.space
    images = (space.subset(["w1"]), space.subset(["w1", "w2"]), space.subset([]))
    st = ProbabilityStructure(base.ps, base.lang, base.psi, IncidenceMap(space, images), "ic")
    report = validate(st)
    assert any("overlap" in p for p in report.problems)


def test_validate_reports_uncovered_worlds():
    base = coats_ic()
    space = base.ps.space
    images = (space.subset(["w1"]), space.subset([]), space.subset([]))
    st = ProbabilityStructure(base.ps, base.lang, base.psi, IncidenceMap(space, images), "ic")
    assert any("cover" in p for p in validate(st).problems)


def test_named_constructors_require_partitioning_images():
    base = coats_ic()
    space = base.ps.space
    overlapping = (space.subset(["w1"]), space.subset(["w1", "w2"]), space.subset([]))
    with pytest.raises(ValidationError, match="incidence images overlap on {w1}"):
        ProbabilityStructure.ic(space, (HALF, HALF), base.psi, overlapping)

    # a world no atom image covers: its mass would belong to no formula
    lang = Language(("a",))
    space = SampleSpace(("w1", "w2"))
    chi_basis = (space.subset(["w1"]), space.subset(["w2"]))
    atom_images = (space.subset(["w1"]), space.subset([]))
    with pytest.raises(ValidationError, match="incidence images do not cover worlds {w2}"):
        ProbabilityStructure.ds(space, chi_basis, (HALF, HALF), lang, atom_images)


def test_validate_reports_kind_violations():
    # ic whose measurable algebra is coarser than the full power set
    ds = coats_ds()
    not_really_ic = ProbabilityStructure(ds.ps, ds.lang, ds.psi, ds.inc, StructureKind.IC)
    assert any("singleton" in p for p in validate(not_really_ic).problems)

    # ds whose formula algebra is coarser than the full algebra
    ic = coats_ic()
    not_really_ds = ProbabilityStructure(ic.ps, ic.lang, ic.psi, ic.inc, StructureKind.DS)
    assert any("single atom" in p for p in validate(not_really_ds).problems)


def test_structure_shape_errors():
    ic = coats_ic()
    with pytest.raises(ValidationError):
        ProbabilityStructure(ic.ps, ic.lang, ic.psi, IncidenceMap(ic.ps.space, ic.inc.images[:2]), "ic")
    with pytest.raises(ValidationError):
        ProbabilityStructure(ic.ps, Language(("x",)), ic.psi, ic.inc, "ic")
    with pytest.raises(ValueError):
        ProbabilityStructure(ic.ps, ic.lang, ic.psi, ic.inc, "nope")


# --- mass recovery -----------------------------------------------------------


def test_mobius_mass_on_coats():
    ds = coats_ds()
    masses = mobius_mass(ds)
    nonzero = {format_formula(f): m for f, m in masses.items() if m}
    assert nonzero == {"(~g & ~d)": HALF, "(g & ~d) | (g & d)": HALF}
    assert sum(masses.values()) == 1
    assert len(masses) == 16


def test_mobius_mass_vacuous_structure():
    # one block touched by every atom image: all mass lands on "true"
    lang = Language(("g", "d"))
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    st = ProbabilityStructure.ds(
        space,
        (space.everything(),),
        (Fraction(1),),
        lang,
        tuple(space.subset([f"s{k + 1}"]) for k in range(4)),
    )
    assert bel(st, true_formula(lang)) == 1
    assert bel(st, parse_formula("g | d", lang)) == 0
    masses = mobius_mass(st)
    assert masses[true_formula(lang)] == 1
    assert sum(1 for m in masses.values() if m) == 1


def test_mobius_inverts_back_to_bel():
    for seed in range(20):
        ds = random_total_ds(GenParams(2, 5, 1300 + seed))
        masses = mobius_mass(ds)
        for mask in range(16):
            xi = Formula(ds.lang, mask)
            total = sum(
                (m for f, m in masses.items() if f.atoms & ~mask == 0),
                Fraction(0),
            )
            assert total == bel(ds, xi)


def test_mobius_mass_guards():
    with pytest.raises(WrongKindError):
        mobius_mass(coats_ic())
    lang = Language(("a", "b", "c", "e"))
    space = SampleSpace(("s1",))
    images = [space.nothing()] * lang.n_atoms
    images[0] = space.everything()
    st = ProbabilityStructure.ds(
        space, (space.everything(),), (Fraction(1),), lang, tuple(images)
    )
    with pytest.raises(ValidationError, match="too large"):
        mobius_mass(st)
