"""Translations, equivalence checking, random generators, round trips."""

import math
import pickle
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
    MeasureFn,
    NotTotalError,
    ProbabilitySpace,
    ProbabilityStructure,
    ProbstructError,
    SampleSpace,
    SetAlgebra,
    StructureKind,
    ValidationError,
    WorldSet,
    WrongKindError,
    coats_ds,
    coats_ic,
    ds_to_ic,
    equivalent,
    format_formula,
    from_json,
    ic_to_ds,
    interval,
    is_total,
    measure,
    parse_formula,
    random_ic,
    random_total_ds,
    round_trip_check,
    to_json,
    trivial_algebra,
    validate,
)
from probstruct.logic import FormulaAlgebra, _sorted_blocks
import probstruct.logic as logic
import probstruct.translate as translate
from probstruct.structures import _masses
from probstruct.translate import _net, _witness_mask

HALF = Fraction(1, 2)


def _focal_weights(st):
    """The mass function as (atom mask, weight) pairs in ``Fraction``
    arithmetic, for a valid structure: the reference for the cached integer
    ``_masses``.  A ds measurable block's mask holds every atom whose image
    meets the block."""
    if st.kind is StructureKind.IC:
        return [
            (block.atoms, measure(st.ps, image))
            for block, image in zip(st.psi.basis, st.inc.images)
        ]
    masks = [0] * len(st.ps.algebra.basis)
    for block, image in zip(st.psi.basis, st.inc.images):
        if image.bits:
            for j, chi_block in enumerate(st.ps.algebra.basis):
                if image.bits & chi_block.bits:
                    masks[j] |= block.atoms
    return list(zip(masks, st.ps.mu.weights))


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


def test_ic_to_ds_keeps_the_measure_in_normal_form():
    # the blocks' sums, 2/4 and 2/4, share a factor with the ic's denominator
    space = SampleSpace(("w1", "w2", "w3"))
    lang = Language(("g",))
    psi = FormulaAlgebra(lang, (parse_formula("g", lang), parse_formula("~g", lang)))
    weights = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    ic = ProbabilityStructure.ic(space, weights, psi, (space.subset(["w1", "w2"]), space.subset(["w3"])))
    mu = ic_to_ds(ic).ps.mu
    assert (mu.nums, mu.den) == ((1, 1), 2)
    assert mu == MeasureFn((HALF, HALF)) and hash(mu) == hash(MeasureFn((HALF, HALF)))
    assert round_trip_check(ic).equivalent
    # sums 2/12, 4/12 and 6/12, each reduced by its own gcd, give one gcd's normal form
    space = SampleSpace(("w1", "w2", "w3", "w4"))
    lang = Language(("g", "d"))
    psi = FormulaAlgebra(lang, tuple(parse_formula(text, lang) for text in ("g & d", "g & ~d", "~g")))
    weights = (Fraction(1, 12), Fraction(1, 12), Fraction(1, 3), HALF)
    images = (space.subset(["w1", "w2"]), space.subset(["w3"]), space.subset(["w4"]))
    mu = ic_to_ds(ProbabilityStructure.ic(space, weights, psi, images)).ps.mu
    assert (mu.nums, mu.den) == ((1, 2, 3), 6)
    want = MeasureFn((Fraction(1, 6), Fraction(1, 3), HALF))
    assert mu == want and hash(mu) == hash(want) and repr(mu) == repr(want)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(mu, protocol) == pickle.dumps(want, protocol)


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


def test_ic_to_ds_atom_count_cap(monkeypatch):
    named = property(lambda tables: pytest.fail("ic_to_ds named the atom worlds"))
    monkeypatch.setattr(logic._AtomTables, "space", named)  # refused before any world is named
    space = SampleSpace(("w1",))
    for n_props in (7, 16):  # 2**n atoms > 64 worlds
        lang = Language(tuple(f"p{i}" for i in range(n_props)))
        ic = ProbabilityStructure.ic(
            space, (Fraction(1),), trivial_algebra(lang), (space.everything(),)
        )
        message = f"a sample space needs between 1 and 64 worlds, got {1 << n_props}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
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


def reference_ds_to_ic(ds):
    """``ds_to_ic`` as it was before it keyed blocks by their lowest atom:
    a dict keyed by full-width atom masks, and one shift per atom."""
    masks, weights = zip(*_focal_weights(ds))
    space = SampleSpace(tuple(f"w{j + 1}" for j in range(len(masks))))
    blocks = {mask: 1 << j for j, mask in enumerate(masks)}
    dead = ds.lang.full_mask & ~sum(masks)
    blocks.update({1 << k: 0 for k in range(ds.lang.n_atoms) if (dead >> k) & 1})
    basis = _sorted_blocks(blocks.keys(), ds.lang)
    psi = FormulaAlgebra(ds.lang, basis)
    images = tuple(WorldSet(space, blocks[block.atoms]) for block in basis)
    return ProbabilityStructure.ic(space, weights, psi, images)


def test_ds_to_ic_matches_the_full_width_reference():
    for seed in range(120):
        ds = random_total_ds(GenParams(1 + seed % 4, 1 + seed % 8, 9100 + seed))
        assert ds_to_ic(ds) == reference_ds_to_ic(ds)
    # 12 propositions: 64 worlds among 48 atoms, measured in up to 16 groups
    # of whole images, so that the structure is total
    rng = random.Random(12)
    lang = Language(tuple(f"p{i}" for i in range(12)))
    space = SampleSpace(tuple(f"w{i}" for i in range(64)))
    live = rng.sample(range(lang.n_atoms), 48)
    image_bits = [0] * lang.n_atoms
    for i in range(64):
        image_bits[rng.choice(live)] |= 1 << i
    groups = {}
    for bits in filter(None, image_bits):
        urn = rng.randrange(16)
        groups[urn] = groups.get(urn, 0) | bits
    chi_basis = [WorldSet(space, bits) for bits in groups.values()]
    weights = [Fraction(1, len(chi_basis))] * len(chi_basis)
    ds = ProbabilityStructure.ds(space, chi_basis, weights, lang, [WorldSet(space, b) for b in image_bits])
    assert ds_to_ic(ds) == reference_ds_to_ic(ds)


def test_ds_to_ic_shares_the_single_atom_masks_of_its_dead_atoms():
    # each atom outside every focal mask is an ic block of its own, with the
    # mask the language shares: the ds's blocks are those masks, so its ic adds
    # no second set of them (masks of bit 9 and up are not cached small ints)
    ds = from_json(to_json(random_total_ds(GenParams(6, 4, 9400))))
    ic = ds_to_ic(ds)
    singles = ds.lang._atoms.singles
    dead = [mask for mask, image in zip(ic.psi.masks, ic.inc.masks) if not image]
    assert sum(mask.bit_length() > 9 for mask in dead) > 40
    assert all(mask is singles[mask.bit_length() - 1] for mask in dead)
    assert ic == reference_ds_to_ic(ds)


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
    with pytest.raises(NotTotalError) as e:
        ds_to_ic(ds)
    assert str(e.value) == (
        "ds_to_ic requires a total structure, but the focal masks of measurable blocks "
        "{s1} and {s2, s3, s4} share the atoms (~g & ~d)"
    )


def test_ds_to_ic_names_the_first_two_overlapping_blocks():
    """The message names blocks j < i, i the first block whose focal mask meets
    an earlier one and j the first of those, and the atoms the two share."""
    rng = random.Random(4150)
    refused = 0
    for _ in range(400):
        ds = _random_ds(rng, rng.randint(1, 4), rng.randint(2, 12))
        masks = [mask for mask, _ in _focal_weights(ds)]
        overlaps = [(i, j) for i in range(len(masks)) for j in range(i) if masks[i] & masks[j]]
        if not overlaps:
            assert ds_to_ic(ds).kind is StructureKind.IC
            continue
        i, j = overlaps[0]
        blocks = ds.ps.algebra.basis
        shared = format_formula(Formula(ds.lang, masks[i] & masks[j]))
        with pytest.raises(NotTotalError) as e:
            ds_to_ic(ds)
        assert str(e.value) == (
            "ds_to_ic requires a total structure, but the focal masks of measurable blocks "
            f"{blocks[j]} and {blocks[i]} share the atoms {shared}"
        )
        refused += 1
    assert 100 < refused < 400


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


def test_equivalent_answers_past_four_propositions():
    # no formula scan, so no cap below the language's own 16 propositions
    for n_props in (5, 12):
        lang = Language(tuple(f"p{i}" for i in range(n_props)))
        space = SampleSpace(("w1", "w2"))
        p0 = parse_formula("p0", lang)
        vacuous = ProbabilityStructure.ic(space, (HALF, HALF), trivial_algebra(lang), (space.everything(),))
        split = ProbabilityStructure.ic(
            space, (HALF, HALF), FormulaAlgebra(lang, (~p0, p0)), (space.subset(["w1"]), space.subset(["w2"]))
        )
        report = equivalent(vacuous, vacuous)
        assert (report.equivalent, report.checked_count, report.witness) == (True, 1 << lang.n_atoms, None)
        report = equivalent(vacuous, split)
        # the first atom is the first formula: its upper bound drops to 1/2,
        # since the block of p0 lies inside its negation
        f, in_a, in_b = report.witness
        assert f.atoms == 1 and report.checked_count == 2
        assert (in_a, in_b) == (Interval(0, 1), Interval(0, HALF))


def _scan_witness(diff, full):
    """How ``equivalent`` once named its witness: scan the formulas in
    atom-bitmask order for the first x whose lower bound, or that of ~x,
    sees a nonzero sum of the mass differences ``diff``."""
    for m in range(full + 1):
        if any(sum(d for mask, d in diff.items() if mask & ~x == 0) for x in (m, full ^ m)):
            return m


def test_witness_matches_the_formula_scan():
    rng = random.Random(1616)
    kinds = set()
    for _ in range(20000):
        full = (1 << rng.randint(1, 8)) - 1
        masks = rng.sample(range(1, full + 1), rng.randint(1, min(8, full)))
        diff = {m: rng.choice((-3, -2, -1, 1, 2, 3)) for m in masks}
        if rng.randrange(4):  # differences of two distributions sum to 0
            diff[masks[-1]] -= sum(diff.values())
        diff = {m: d for m, d in diff.items() if d} or {masks[0]: 1}
        got = _witness_mask(diff)
        assert got == _scan_witness(diff, full), (diff, full)
        kinds.add((sum(diff.values()) == 0, got < min(diff)))
    # a sum other than 0 puts the witness at 0; otherwise either side can decide it
    assert kinds == {(False, True), (True, False), (True, True)}


class _Unhashable(int):
    """A mask that fails the test when a dict hashes it."""

    def __hash__(self):
        raise AssertionError(f"mask {int(self)} was hashed")


def test_net_never_hashes_a_zero_amount():
    # at 16 propositions a mask is 8 KB, and all but a few mass pairs weigh 0
    pairs = [(_Unhashable(6), 0), (3, 2), (_Unhashable(3), 0), (5, 1), (3, -2)]
    assert _net(pairs) == {5: 1}


def _bad_weights(st, weights):
    """``st`` with other weights on its measurable blocks, built past the checks."""
    ps = ProbabilitySpace(st.ps.space, st.ps.algebra, MeasureFn(weights))
    return ProbabilityStructure(ps, st.lang, st.psi, st.inc, st.kind)


def test_equivalent_checks_the_weights_of_both_sides():
    bad = _bad_weights(coats_ds(), (1, 1))
    assert validate(bad).problems == ("measure weights sum to 2, expected 1",)
    with pytest.raises(ValidationError) as queried:
        interval(bad, parse_formula("g", bad.lang))
    for a, b in ((bad, bad), (bad, coats_ds()), (coats_ds(), bad), (coats_ic(), bad)):
        for _ in range(2):  # and again once the masses are cached
            with pytest.raises(ValidationError) as compared:
                equivalent(a, b)
            assert str(compared.value) == str(queried.value)
    # all that validate lists of the first side, then of the second
    space = bad.ps.space
    lost = IncidenceMap(space, (space.nothing(), *bad.inc.images[1:]))
    both = ProbabilityStructure(bad.ps, bad.lang, bad.psi, lost, bad.kind)
    assert validate(both).problems == (
        "measure weights sum to 2, expected 1",
        "incidence images do not cover worlds {s1, s2}",
    )
    for a, b, refused in ((both, bad, both), (bad, both, bad), (coats_ds(), both, both)):
        for _ in range(2):
            with pytest.raises(ValidationError) as compared:
                equivalent(a, b)
            assert str(compared.value) == "; ".join(validate(refused).problems)
    # and before the languages are compared
    space = SampleSpace(("w1",))
    other = ProbabilityStructure.ic(space, (1,), trivial_algebra(Language(("x",))), [space.everything()])
    with pytest.raises(ValidationError, match="^measure weights sum to 2, expected 1$"):
        equivalent(other, bad)


def test_translations_keep_their_refusals_and_their_order():
    ds, ic = coats_ds(), coats_ic()
    for _ in range(2):  # the second time the source's masses are cached
        with pytest.raises(ValidationError, match="^measure weights sum to 2, expected 1$"):
            ds_to_ic(_bad_weights(ds, (1, 1)))
        # ic_to_ds checks the weights it gives the new structure
        with pytest.raises(ValidationError, match="^measure weight -1/2 of block 1 is negative$"):
            ic_to_ds(_bad_weights(ic, (Fraction(3, 2), Fraction(-1, 2))))
    not_total = ProbabilityStructure.ds(
        SampleSpace(("s1", "s2")),
        (SampleSpace(("s1", "s2")).everything(),),
        (Fraction(1),),
        Language(("a",)),
        (SampleSpace(("s1", "s2")).subset(["s1", "s2"]), SampleSpace(("s1", "s2")).nothing()),
    )
    assert is_total(not_total)
    split = ProbabilityStructure.ds(
        not_total.ps.space,
        (not_total.ps.space.subset(["s1"]), not_total.ps.space.subset(["s2"])),
        (HALF, HALF),
        not_total.lang,
        not_total.inc.images,
    )
    assert not is_total(split)
    with pytest.raises(NotTotalError):
        ds_to_ic(split)
    # what validate lists comes before NotTotalError
    with pytest.raises(ValidationError, match="^measure weights sum to 2, expected 1$"):
        ds_to_ic(_bad_weights(split, (1, 1)))


def _invalid_variants(st, rng):
    """``st`` with its weights, or one world of its images, disturbed."""
    n = len(st.ps.mu.weights)
    yield _bad_weights(st, [Fraction(rng.randint(-3, 5), rng.randint(1, 6)) for _ in range(n)])
    space = st.ps.space
    images = [image.bits for image in st.inc.images]
    j, world = rng.randrange(len(images)), 1 << rng.randrange(space.size)
    images[j] ^= world  # a world lost from, or shared by, the images
    inc = IncidenceMap(space, [WorldSet(space, bits) for bits in images])
    yield ProbabilityStructure(st.ps, st.lang, st.psi, inc, st.kind)


def test_masses_match_the_fraction_reference():
    rng = random.Random(2024)
    structures = [coats_ds(), coats_ic(), uncovered_ds()]
    for seed in range(150):
        params = GenParams(1 + seed % 4, 1 + seed % 8, 7000 + seed)
        for st in (random_ic(params), random_total_ds(params), _random_ds(rng, params.n_props, params.n_worlds)):
            structures += [st, *_invalid_variants(st, rng)]
    # an ic whose world sets are not all measurable
    ic = coats_ic()
    coarse = ProbabilitySpace(ic.ps.space, SetAlgebra(ic.ps.space, (ic.ps.space.everything(),)), MeasureFn((1,)))
    structures.append(ProbabilityStructure(coarse, ic.lang, ic.psi, ic.inc, ic.kind))
    outcomes = set()
    for st in structures:
        problems = validate(st).problems
        if problems:
            for _ in range(2):  # refused on every call, and never cached
                with pytest.raises(ValidationError) as refused:
                    _masses(st)
                assert str(refused.value) == "; ".join(problems)
                assert not hasattr(st, "_masses")
            outcomes.update(problem.split()[0] for problem in problems)
            continue
        pairs, den = _masses(st)
        assert [(mask, Fraction(num, den)) for mask, num in pairs] == _focal_weights(st)
        assert den == math.lcm(*(w.denominator for w in st.ps.mu.weights))
        assert _masses(st) is st._masses
        outcomes.add("valid")
    # refused for its weights, its images and, the coarse ic, its kind's shape
    assert outcomes == {"valid", "measure", "incidence", "ic"}


def test_cached_masses_leave_equality_hashing_and_pickling_alone():
    for build in (coats_ds, coats_ic):
        st = build()
        before = hash(st)
        _masses(st)
        assert hasattr(st, "_masses")
        assert st == build() and hash(st) == before == hash(build())
        assert repr(st) == repr(build())
        back = pickle.loads(pickle.dumps(st))
        assert back == st and not hasattr(back, "_masses")
        with pytest.raises(AttributeError):
            st._masses = None


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
    # as many propositions as ic_to_ds gives a world per atom, and 64 worlds
    assert GenParams(6, 64, 1).n_props == 6
    with pytest.raises(ValidationError):
        GenParams(0, 4, 1)
    with pytest.raises(ValidationError, match="^n_props must be 1..6, got 7$"):
        GenParams(7, 4, 1)
    with pytest.raises(ValidationError):
        GenParams(2, 0, 1)
    with pytest.raises(ValidationError, match="^n_worlds must be 1..64, got 65$"):
        GenParams(2, 65, 1)
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


@pytest.mark.parametrize("n_props", [5, 6])
@pytest.mark.parametrize("n_worlds", [1, 8, 64])
def test_translations_keep_every_interval_up_to_the_generators_bounds(n_props, n_worlds):
    # the paper's theorem at the generators' largest languages: each
    # translation, and each round trip, gives every formula the same interval
    for seed in range(20):
        params = GenParams(n_props, n_worlds, 15_000 + 100 * n_worlds + seed)
        for st, there in ((random_ic(params), ic_to_ds), (random_total_ds(params), ds_to_ic)):
            assert equivalent(st, there(st)).equivalent
            report = round_trip_check(st)
            assert (report.equivalent, report.checked_count) == (True, st.lang.full_mask + 1)


def test_translations_and_loads_make_no_world_set_per_block(monkeypatch):
    """The translations and ``from_json`` build their incidence maps from masks:
    an ic_to_ds of 6 propositions made at least one WorldSet per atom (64) when
    the images were kept as values, and now makes none."""
    ic, ds = random_ic(GenParams(6, 64, 11)), random_total_ds(GenParams(6, 64, 12))
    texts = [to_json(ic), to_json(ds)]
    made = []
    init = WorldSet.__init__

    def counted(self, space, bits):
        made.append(bits)
        init(self, space, bits)

    monkeypatch.setattr(WorldSet, "__init__", counted)
    lifted = ic_to_ds(ic)
    assert len(made) < 10
    collapsed = ds_to_ic(ds)
    loaded = [from_json(text) for text in texts]
    assert made == []
    assert equivalent(lifted, ic).equivalent and equivalent(collapsed, ds).equivalent
    assert [to_json(st) for st in loaded] == texts and made == []


# --- shared sample spaces ----------------------------------------------------


def test_translations_share_their_sample_spaces():
    # ic_to_ds names the atom worlds once per proposition list, and ds_to_ic
    # the worlds w1..wk, with their discrete algebra, once per size k
    a, b = random_ic(GenParams(3, 8, 1)), random_ic(GenParams(3, 8, 2))
    assert a.lang is not b.lang
    assert ic_to_ds(a).ps.space is ic_to_ds(b).ps.space is a.lang._atoms.space
    first = {}
    for seed in range(20):
        ds = random_total_ds(GenParams(3, 8, seed))
        ic = ds_to_ic(ds)
        kept = first.setdefault(len(ds.ps.algebra.masks), ic)
        assert ic.ps.space is kept.ps.space and ic.ps.algebra is kept.ps.algebra
    assert len(first) < 20  # some size was met again


def test_one_propositions_positive_atom_world_is_the_languages_own_name():
    # over one proposition, the atom world of the positive literal is the very
    # string the language holds, so a pickle refers back to it, whichever of
    # two languages over equal names built the shared tables
    ics = [random_ic(GenParams(1, 3, 7)) for _ in range(2)]
    assert ics[0].lang is not ics[1].lang
    for ic in ics:
        ds = ic_to_ds(ic)
        assert ds.ps.space.worlds[1] is ic.lang.props[0]
    assert pickle.dumps(ic_to_ds(ics[0])) == pickle.dumps(ic_to_ds(ics[1]))


def test_the_numbered_spaces_are_the_worlds_w1_to_wk():
    for k in range(1, 65):
        space, chi = translate._numbered(k)
        assert space == SampleSpace(tuple(f"w{j + 1}" for j in range(k)))
        assert chi == SetAlgebra(space, [space.subset([w]) for w in space.worlds])
        assert translate._numbered(k)[0] is space
    for k in (0, 65):
        with pytest.raises(ValidationError):
            translate._numbered(k)


def test_an_ic_with_its_singletons_out_of_world_order_has_the_same_masses():
    # the plain constructor takes the measurable singletons in any order; the
    # mass of a block sums the weights of its image's worlds, wherever they are listed
    space = SampleSpace(("w1", "w2", "w3", "w4"))
    lang = Language(("a", "b"))
    psi = FormulaAlgebra(lang, [parse_formula(t, lang) for t in ("~a", "a & ~b", "a & b")])
    images = [space.subset(names) for names in (["w1", "w3"], ["w4"], ["w2"])]
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 12), Fraction(1, 12)]
    in_order = ProbabilityStructure.ic(space, weights, psi, images)
    order = [2, 0, 3, 1]
    chi = SetAlgebra(space, [space.subset([space.worlds[i]]) for i in order])
    ps = ProbabilitySpace(space, chi, MeasureFn([weights[i] for i in order]))
    shuffled = ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), StructureKind.IC)
    assert validate(shuffled).ok and shuffled != in_order
    assert _masses(shuffled) == _masses(in_order)
    lifted = ic_to_ds(shuffled)
    assert lifted == ic_to_ds(in_order)
    for mask in range(1 << lang.n_atoms):
        f = Formula(lang, mask)
        assert interval(lifted, f) == interval(shuffled, f) == interval(in_order, f)
    assert equivalent(shuffled, in_order).equivalent
