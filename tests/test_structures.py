"""Incidence, belief/plausibility, intervals, validation, totality."""

import itertools
import pickle
import random
from fractions import Fraction

import pytest

from probstruct import (
    DocumentError,
    Formula,
    FormulaAlgebra,
    GenParams,
    IncidenceMap,
    Interval,
    Language,
    MeasureFn,
    NotMeasurableError,
    ProbabilitySpace,
    ProbabilityStructure,
    ProbstructError,
    SampleSpace,
    SetAlgebra,
    StructureKind,
    UndefinedIncidenceError,
    ValidationError,
    WorldSet,
    WrongKindError,
    bel,
    coats_ds,
    coats_ic,
    ds_to_ic,
    equivalent,
    false_formula,
    format_formula,
    from_json,
    ic_to_ds,
    incidence,
    inner_measure,
    interval,
    is_total,
    lower_incidence,
    measure,
    mobius_mass,
    parse_formula,
    plb,
    random_ic,
    random_total_ds,
    round_trip_check,
    to_json,
    true_formula,
    upper_incidence,
    validate,
)
from probstruct import structures

HALF = Fraction(1, 2)


# --- incidence ---------------------------------------------------------------


def test_images_and_blocks_over_an_equal_space_are_accepted():
    space, equal = SampleSpace(("s1", "s2")), SampleSpace(("s1", "s2"))
    assert equal is not space
    halves = (WorldSet(equal, 1), WorldSet(equal, 2))
    assert IncidenceMap(space, halves).images == halves
    assert SetAlgebra(space, halves).basis == halves
    other = SampleSpace(("s1", "s3"))
    with pytest.raises(ValidationError) as err:
        IncidenceMap(space, (WorldSet(space, 1), WorldSet(other, 2)))
    assert str(err.value) == "incidence image is over a different sample space"
    with pytest.raises(ValidationError) as err:
        SetAlgebra(space, (WorldSet(space, 1), WorldSet(other, 2)))
    assert str(err.value) == "basis block belongs to a different sample space"


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


# --- the queries against the two-walk oracle ---------------------------------
# The queries split the basis blocks by the formula in one pass.  The oracle is
# the query that pass replaced: one walk per formula, over the blocks inside
# it, then ``measure`` or ``inner_measure``.


def _contained_image_union(st, f):
    """(covered atom mask, union of image bits) over basis blocks inside f."""
    covered = bits = 0
    for block, image in zip(st.psi.basis, st.inc.images):
        if block.atoms & ~f.atoms == 0:
            covered |= block.atoms
            bits |= image.bits
    return covered, bits


def oracle_incidence(st, phi):
    covered, bits = _contained_image_union(st, phi)
    if covered != phi.atoms:
        raise UndefinedIncidenceError(
            f"incidence is undefined on {format_formula(phi)}: not a member of the formula algebra"
        )
    return WorldSet(st.ps.space, bits)


def oracle_lower(st, xi):
    return WorldSet(st.ps.space, _contained_image_union(st, xi)[1])


def oracle_bel(st, xi):
    return inner_measure(st.ps, oracle_incidence(st, xi))


def oracle_interval(st, xi):
    if st.kind is StructureKind.IC:
        return Interval(measure(st.ps, oracle_lower(st, xi)), measure(st.ps, ~oracle_lower(st, ~xi)))
    return Interval(oracle_bel(st, xi), 1 - oracle_bel(st, ~xi))


# per kind: each query and its oracle
ORACLES = {
    StructureKind.IC: {
        interval: oracle_interval,
        incidence: oracle_incidence,
        lower_incidence: oracle_lower,
        upper_incidence: lambda st, xi: ~oracle_lower(st, ~xi),
    },
    StructureKind.DS: {
        interval: oracle_interval,
        incidence: oracle_incidence,
        bel: oracle_bel,
        plb: lambda st, xi: 1 - oracle_bel(st, ~xi),
    },
}


def outcome(query, st, xi):
    """The answer, or the type and message of the error raised."""
    try:
        return query(st, xi)
    except ProbstructError as err:
        return type(err), str(err)


def assert_matches_oracle(st, masks):
    for mask in masks:
        xi = Formula(st.lang, mask)
        for query, oracle in ORACLES[st.kind].items():
            assert outcome(query, st, xi) == outcome(oracle, st, xi), (query.__name__, format_formula(xi))


def assert_refused(st, masks):
    """Every query of ``st``'s kind refuses it with what ``validate`` lists."""
    problems = validate(st).problems
    assert problems
    for mask in masks:
        for query in ORACLES[st.kind]:
            assert outcome(query, st, Formula(st.lang, mask)) == (ValidationError, "; ".join(problems))


def regrouped(st, groups, kind=None) -> ProbabilityStructure:
    """``st`` with its atoms grouped into the blocks ``groups`` (atom index
    lists), each block's image the union of its atoms' images, through the
    direct constructor: a ds whose formula algebra is not the full one, which
    ``validate`` refuses.  With ``kind`` ic, the ic of those blocks and images,
    each measurable block's weight spread evenly over its worlds."""
    psi = FormulaAlgebra(st.lang, [Formula(st.lang, sum(1 << k for k in g)) for g in groups])
    images = [WorldSet(st.ps.space, sum(st.inc.images[k].bits for k in g)) for g in groups]
    if kind == "ic":
        chi = list(zip(st.ps.algebra.basis, st.ps.mu.weights))
        weights = [next(w / b.bits.bit_count() for b, w in chi if b.bits >> i & 1) for i in range(st.ps.space.size)]
        return ProbabilityStructure.ic(st.ps.space, weights, psi, images)
    return ProbabilityStructure(st.ps, st.lang, psi, IncidenceMap(st.ps.space, images), st.kind)


def random_groups(rng, n_atoms, n_groups):
    """The atoms split at random into at most ``n_groups`` nonempty groups."""
    groups = [[] for _ in range(n_groups)]
    for k in range(n_atoms):
        groups[rng.randrange(n_groups)].append(k)
    return [g for g in groups if g]


# every formula up to 3 propositions; at 4, every 7th of the 65,536 (all of
# them would add 13 s to the suite)
@pytest.mark.parametrize("n_props, seeds, step", [(1, range(10), 1), (2, range(10), 1), (3, range(4), 1), (4, range(1), 7)])
def test_queries_match_the_oracle_on_seeded_structures(n_props, seeds, step):
    for seed in seeds:
        for build in (random_ic, random_total_ds):
            st = build(GenParams(n_props, 1 + seed % 8, 4100 + seed))
            assert_matches_oracle(st, range(0, 1 << (1 << n_props), step))


@pytest.mark.parametrize("n_props", [1, 2, 3])
def test_queries_match_the_oracle_where_a_block_meets_both_sides(n_props):
    # only an ic may have such blocks: the regrouped ds is refused
    rng = random.Random(4200 + n_props)
    for seed in range(6):
        base = random_total_ds(GenParams(n_props, 2 + seed, 4300 + seed))
        groups = random_groups(rng, base.lang.n_atoms, max(1, base.lang.n_atoms // 2))
        st = regrouped(base, groups)
        assert len(st.psi.basis) < st.lang.n_atoms
        assert_refused(st, range(0, 1 << (1 << n_props), 17))
        assert_matches_oracle(regrouped(base, groups, "ic"), range(1 << (1 << n_props)))


def twelve_props(seed, n_worlds, n_blocks):
    """A 12-proposition ic and ds with their atoms spread over ``n_blocks``
    ψ blocks and ``n_worlds`` worlds, and the ds regrouped into those blocks,
    which ``validate`` refuses."""
    rng = random.Random(seed)
    lang = Language(tuple(f"p{i}" for i in range(12)))
    space = SampleSpace(tuple(f"w{i}" for i in range(n_worlds)))
    groups = random_groups(rng, lang.n_atoms, n_blocks)
    psi = FormulaAlgebra(lang, [Formula(lang, sum(1 << k for k in g)) for g in groups])
    block_images = [0] * len(groups)
    atom_images = [0] * lang.n_atoms
    for w in range(n_worlds):
        block_images[rng.randrange(len(groups))] |= 1 << w
        atom_images[rng.randrange(lang.n_atoms)] |= 1 << w
    weights = [Fraction(rng.randrange(1, 5)) for _ in range(n_worlds)]
    weights = [w / sum(weights) for w in weights]
    ic = ProbabilityStructure.ic(space, weights, psi, [WorldSet(space, b) for b in block_images])
    halves = (space.subset(space.worlds[: n_worlds // 2]), space.subset(space.worlds[n_worlds // 2 :]))
    ds = ProbabilityStructure.ds(space, halves, (Fraction(1, 3), Fraction(2, 3)), lang,
                                 [WorldSet(space, b) for b in atom_images])
    return rng, ic, ds, regrouped(ds, groups)


@pytest.mark.parametrize("seed, n_worlds, n_blocks", [(1, 6, 5), (2, 12, 9), (3, 64, 40)])
def test_queries_match_the_oracle_at_twelve_propositions(seed, n_worlds, n_blocks):
    rng, *structures, grouped = twelve_props(seed, n_worlds, n_blocks)
    for st in structures:
        blocks = [block.atoms for block in st.psi.basis]
        members = [sum(b for b in blocks if rng.random() < 0.5) for _ in range(3)]
        masks = [0, st.lang.full_mask, *members, *(rng.getrandbits(st.lang.n_atoms) for _ in range(3))]
        assert_matches_oracle(st, masks)
    assert_refused(grouped, [0, grouped.lang.full_mask, rng.getrandbits(grouped.lang.n_atoms)])


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


def reweighed(st: ProbabilityStructure, weights) -> ProbabilityStructure:
    """``st`` with other block weights, through the direct constructor, which
    leaves the weights to ``validate``."""
    ps = ProbabilitySpace(st.ps.space, st.ps.algebra, MeasureFn(weights))
    return ProbabilityStructure(ps, st.lang, st.psi, st.inc, st.kind)


def test_validate_reports_bad_weight_sum():
    st = reweighed(coats_ds(), (Fraction(1, 4), HALF))
    report = validate(st)
    assert not report.ok
    assert any("sum to 3/4" in p for p in report.problems)


def test_validate_reports_negative_weight():
    st = reweighed(coats_ds(), (Fraction(-1, 2), Fraction(3, 2)))
    assert any("negative" in p for p in validate(st).problems)


@pytest.mark.parametrize(
    "groups, named",
    [
        ([[0], [1], [2], [3]], []),
        ([[0], [1, 3], [2]], ["(g & ~d) | (g & d)"]),
        ([[0, 2], [1, 3]], ["(~g & ~d) | (~g & d)", "(g & ~d) | (g & d)"]),
        ([[0, 1, 2, 3]], ["true"]),
    ],
)
def test_validate_names_every_ds_block_that_is_not_one_atom(groups, named):
    # the coats ds with its atoms grouped into blocks, each block's image the
    # union of its atoms' images
    st = coats_ds()
    psi = FormulaAlgebra(st.lang, [Formula(st.lang, sum(1 << k for k in g)) for g in groups])
    images = [WorldSet(st.ps.space, sum(st.inc.images[k].bits for k in g)) for g in groups]
    grouped = ProbabilityStructure(st.ps, st.lang, psi, IncidenceMap(st.ps.space, images), "ds")
    assert validate(grouped).problems == tuple(
        f"ds structure requires an incidence for every formula, but formula basis "
        f"block {text} is not a single atom"
        for text in named
    )


@pytest.mark.parametrize(
    "base, weights, message",
    [
        (coats_ds, (Fraction(1, 4), Fraction(1, 4)), "measure weights sum to 1/2, expected 1"),
        (coats_ic, (Fraction(3, 4), Fraction(3, 4)), "measure weights sum to 3/2, expected 1"),
        (coats_ds, (Fraction(-1, 2), Fraction(3, 2)), "measure weight -1/2 of block 0 is negative"),
        (coats_ic, (Fraction(3, 2), Fraction(-1, 4)),
         "measure weight -1/4 of block 1 is negative; measure weights sum to 5/4, expected 1"),
    ],
)
def test_named_constructors_require_a_distribution(base, weights, message):
    st = base()
    # the direct constructor accepts the weights, so validate can list them
    assert validate(reweighed(st, weights)).problems == tuple(message.split("; "))
    with pytest.raises(ValidationError) as caught:
        if st.kind is StructureKind.IC:
            ProbabilityStructure.ic(st.ps.space, weights, st.psi, st.inc.images)
        else:
            ProbabilityStructure.ds(st.ps.space, st.ps.algebra.basis, weights, st.lang, st.inc.images)
    assert str(caught.value) == message


BAD_WEIGHTS = [
    (coats_ds, (Fraction(1, 4), Fraction(1, 4)), "measure weights sum to 1/2, expected 1"),
    (coats_ds, (Fraction(-1, 2), Fraction(3, 2)), "measure weight -1/2 of block 0 is negative"),
    (coats_ic, (Fraction(3, 4), Fraction(3, 4)), "measure weights sum to 3/2, expected 1"),
    (coats_ic, (Fraction(3, 2), Fraction(-1, 4)),
     "measure weight -1/4 of block 1 is negative; measure weights sum to 5/4, expected 1"),
]
QUERIES = {
    "interval": lambda st: interval(st, true_formula(st.lang)),
    "interval-g": lambda st: interval(st, parse_formula("g", st.lang)),
    "bel": lambda st: bel(st, parse_formula("g", st.lang)),
    "plb": lambda st: plb(st, parse_formula("g", st.lang)),
    "mobius_mass": mobius_mass,
}


@pytest.mark.parametrize("base, weights, message", BAD_WEIGHTS)
@pytest.mark.parametrize("query", list(QUERIES))
def test_queries_refuse_weights_that_are_no_distribution(query, base, weights, message):
    st = reweighed(base(), weights)
    if st.kind is StructureKind.IC and not query.startswith("interval"):
        with pytest.raises(WrongKindError):
            QUERIES[query](st)
        return
    with pytest.raises(ValidationError) as caught:
        QUERIES[query](st)
    assert str(caught.value) == message


@pytest.mark.parametrize("query", list(QUERIES))
def test_queries_check_the_weights_once_per_call(query, monkeypatch):
    # once per structure, in fact: the named constructor's check is the one kept
    calls = []
    check = MeasureFn.weight_problems

    def counted(mu):
        calls.append(mu)
        return check(mu)

    monkeypatch.setattr(MeasureFn, "weight_problems", counted)
    for build in (coats_ds, coats_ic):
        calls.clear()
        st = build()
        if st.kind is StructureKind.IC and not query.startswith("interval"):
            continue
        for _ in range(3):
            QUERIES[query](st)
        assert len(calls) == 1, (query, st.kind)


@pytest.mark.parametrize("query", [bel, plb, interval], ids=lambda q: q.__name__)
def test_queries_check_the_weights_before_the_formula(query):
    text = to_json(coats_ds()).replace('"1/2"', '"1/4"', 1)
    unchecked = from_json(text, check=False)  # its weights sum to 3/4
    with pytest.raises(ValidationError) as caught:
        query(unchecked, "g")
    assert str(caught.value) == "measure weights sum to 3/4, expected 1"
    with pytest.raises(ValidationError) as caught:
        query(coats_ds(), "g")
    assert str(caught.value) == "formula must be Formula, got str"


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


def overlapping_coats_ds() -> ProbabilityStructure:
    """The coats ds with the image of ``~g & ~d`` widened to {s1, s2, s3}."""
    st = coats_ds()
    images = (st.ps.space.subset(["s1", "s2", "s3"]), *st.inc.images[1:])
    return ProbabilityStructure(st.ps, st.lang, st.psi, IncidenceMap(st.ps.space, images), "ds")


def uncovering_coats_ic() -> ProbabilityStructure:
    """The coats ic with no block's image holding w2."""
    st = coats_ic()
    images = (st.ps.space.subset(["w1"]), st.ps.space.nothing(), st.ps.space.nothing())
    return ProbabilityStructure(st.ps, st.lang, st.psi, IncidenceMap(st.ps.space, images), "ic")


OVERLAP = "incidence images overlap on {s3}: images of distinct blocks must be disjoint"
UNCOVERED = "incidence images do not cover worlds {w2}"


@pytest.mark.parametrize(
    "build, queries, message",
    [
        (overlapping_coats_ds, (interval, bel, plb, incidence), OVERLAP),
        (uncovering_coats_ic, (interval, lower_incidence, upper_incidence, incidence), UNCOVERED),
    ],
)
def test_queries_refuse_images_that_do_not_partition_the_worlds(build, queries, message):
    st = build()
    assert validate(st).problems == (message,)
    for query in queries:
        for text in ("g", "~g", "~d", "true"):
            with pytest.raises(ValidationError) as caught:
                query(st, parse_formula(text, st.lang))
            assert str(caught.value) == message, (query.__name__, text)
    if st.kind is StructureKind.DS:
        with pytest.raises(ValidationError, match=OVERLAP):
            mobius_mass(st)


def test_queries_report_bad_weights_before_bad_images():
    st = reweighed(overlapping_coats_ds(), (Fraction(1, 4), Fraction(1, 4)))
    for query in (interval, bel, plb, incidence):
        with pytest.raises(ValidationError) as caught:
            query(st, parse_formula("g", st.lang))
        assert str(caught.value) == "measure weights sum to 1/2, expected 1; " + OVERLAP, query.__name__


def rebuilt(st: ProbabilityStructure) -> ProbabilityStructure:
    """``st`` built directly, on a new incidence map that has not been walked."""
    inc = IncidenceMap(st.ps.space, st.inc.images)
    return ProbabilityStructure(st.ps, st.lang, st.psi, inc, st.kind)


@pytest.mark.parametrize(
    "build, message",
    [(coats_ds, None), (coats_ic, None), (overlapping_coats_ds, OVERLAP), (uncovering_coats_ic, UNCOVERED)],
)
def test_each_incidence_map_is_walked_once(build, message, monkeypatch):
    walks = []
    walk = structures.partition_faults

    def counted(masks, full):
        walks.append(masks)
        return walk(masks, full)

    monkeypatch.setattr(structures, "partition_faults", counted)
    st = rebuilt(build())  # the named constructors walk their own maps
    walks.clear()
    query = interval if st.kind is StructureKind.IC else bel
    for text in ("g", "~g", "d", "~d", "g & d", "g | d", "true", "false", "~g & ~d", "g & ~d"):
        if message is None:
            query(st, parse_formula(text, st.lang))
            continue
        with pytest.raises(ValidationError) as caught:  # on the first call and every later one
            query(st, parse_formula(text, st.lang))
        assert str(caught.value) == message
    assert validate(st).problems == (() if message is None else (message,))
    assert len(walks) == 1
    # a structure with other weights is another structure, walked once more;
    # its weights are named first
    bad = reweighed(st, (Fraction(1, 4), Fraction(1, 4)))
    for _ in range(2):
        with pytest.raises(ValidationError) as caught:
            query(bad, parse_formula("g", st.lang))
        assert str(caught.value) == "measure weights sum to 1/2, expected 1" + (f"; {message}" if message else "")
    assert len(walks) == 2


def test_the_kept_verdict_leaves_equality_hashing_and_pickling_alone():
    # the verdict is the structure's: the map keeps its space, masks and images, and nothing else
    assert {slot for cls in IncidenceMap.__mro__ for slot in getattr(cls, "__slots__", ())} == {
        "space", "masks", "_values"}
    for build in (coats_ds, overlapping_coats_ds):
        fresh = rebuilt(build())
        assert not hasattr(fresh, "_problems")
        before = hash(fresh)
        problems = validate(fresh).problems
        assert fresh._problems == problems
        assert fresh == rebuilt(build()) and hash(fresh) == before
        assert repr(fresh) == repr(rebuilt(build()))
        back = pickle.loads(pickle.dumps(fresh))
        assert back == fresh and not hasattr(back, "_problems")
        assert validate(back).problems == problems
        with pytest.raises(AttributeError):
            fresh._problems = ()


def coarse_coats_ic() -> ProbabilityStructure:
    """The coats ic with one measurable block, all its worlds."""
    ic = coats_ic()
    space = ic.ps.space
    coarse = ProbabilitySpace(space, SetAlgebra(space, (space.everything(),)), MeasureFn((1,)))
    return ProbabilityStructure(coarse, ic.lang, ic.psi, ic.inc, ic.kind)


def test_queries_on_an_ic_with_a_coarse_measurable_algebra():
    # such an ic lacks a mass function: every query refuses it, as validate does
    st = coarse_coats_ic()
    space = st.ps.space
    message = "ic structure requires every world set measurable, but measure basis block {w1, w2} is not a singleton"
    assert validate(st).problems == (message,)
    for text in ("g", "d", "true"):
        for query in (lower_incidence, upper_incidence, incidence, interval):
            assert outcome(query, st, parse_formula(text, st.lang)) == (ValidationError, message)
    # its measure still answers where the world set is measurable
    assert measure(st.ps, space.everything()) == 1
    with pytest.raises(NotMeasurableError, match=r"^\{w2\} is not measurable$"):
        measure(st.ps, space.subset(["w2"]))


# --- one gate: every reader refuses what validate lists ----------------------


def relabelled(build, kind) -> ProbabilityStructure:
    """``build()``'s pieces under the other kind's label, built directly."""
    st = build()
    return ProbabilityStructure(st.ps, st.lang, st.psi, st.inc, kind)


INVALID = {
    "bad weights": lambda: reweighed(coats_ds(), (Fraction(1, 4), Fraction(1, 4))),
    "overlapping images": overlapping_coats_ds,
    "uncovered worlds": uncovering_coats_ic,
    "coarse ic": coarse_coats_ic,
    "ds relabelled ic": lambda: relabelled(coats_ds, "ic"),
    "ic relabelled ds": lambda: relabelled(coats_ic, "ds"),
    "regrouped ds": lambda: regrouped(coats_ds(), [[0, 2], [1], [3]]),
    "weights and images": lambda: reweighed(overlapping_coats_ds(), (1, 1)),
}


def g_of(st):
    """The formula ``g`` of ``st``'s language."""
    return parse_formula("g", st.lang)


# each reader, and the kind it requires (None: either)
READERS = {
    "incidence": (None, lambda st: incidence(st, g_of(st))),
    "lower_incidence": (StructureKind.IC, lambda st: lower_incidence(st, g_of(st))),
    "upper_incidence": (StructureKind.IC, lambda st: upper_incidence(st, g_of(st))),
    "bel": (StructureKind.DS, lambda st: bel(st, g_of(st))),
    "plb": (StructureKind.DS, lambda st: plb(st, g_of(st))),
    "interval": (None, lambda st: interval(st, g_of(st))),
    "interval-str": (None, lambda st: interval(st, "g")),  # refused before the formula is read
    "mobius_mass": (StructureKind.DS, mobius_mass),
    "is_total": (StructureKind.DS, is_total),
    "ic_to_ds": (StructureKind.IC, ic_to_ds),
    "ds_to_ic": (StructureKind.DS, ds_to_ic),
    "equivalent": (None, lambda st: equivalent(st, st)),
    "equivalent-second": (None, lambda st: equivalent(coats_ds(), st)),
    "equivalent-first": (None, lambda st: equivalent(st, reweighed(coats_ic(), (1, 1)))),
    "round_trip_check": (None, round_trip_check),
    "to_json": (None, to_json),
}


@pytest.mark.parametrize("name", list(INVALID))
def test_every_reader_refuses_what_validate_lists(name):
    st = INVALID[name]()
    problems = validate(st).problems
    assert problems
    for reader, (kind, read) in READERS.items():
        if kind is not None and st.kind is not kind:
            expected = WrongKindError  # the kind is checked first
        elif reader == "to_json":
            expected = (DocumentError, "refusing to serialize an invalid structure: " + "; ".join(problems))
        else:
            expected = (ValidationError, "; ".join(problems))
        for _ in range(2):  # on the first call and every later one
            with pytest.raises(ProbstructError) as caught:
                read(st)
            got = type(caught.value) if expected is WrongKindError else (type(caught.value), str(caught.value))
            assert got == expected, reader


def test_each_structure_is_checked_once(monkeypatch):
    counts = {"weights": 0, "images": 0}
    weight_problems, partition_problems = MeasureFn.weight_problems, IncidenceMap.partition_problems

    def counted(check, what):
        def run(self):
            counts[what] += 1
            return check(self)
        return run

    monkeypatch.setattr(MeasureFn, "weight_problems", counted(weight_problems, "weights"))
    monkeypatch.setattr(IncidenceMap, "partition_problems", counted(partition_problems, "images"))

    def ten_queries(st):
        for text in ("g", "~d", "g | d", "true"):
            interval(st, parse_formula(text, st.lang))
        bel(st, g_of(st))
        plb(st, g_of(st))
        incidence(st, g_of(st))
        is_total(st)
        mobius_mass(st)
        equivalent(st, st)

    base = coats_ds()  # a named constructor: one walk of each
    assert counts == {"weights": 1, "images": 1}
    ten_queries(base)
    text = to_json(base)
    assert counts == {"weights": 1, "images": 1}
    loaded = from_json(text)  # validated on load: one walk of each
    assert counts == {"weights": 2, "images": 2}
    ten_queries(loaded)
    assert to_json(loaded) == text
    assert counts == {"weights": 2, "images": 2}
    unchecked = from_json(text.replace('"1/2"', '"1/4"', 1), check=False)
    assert counts == {"weights": 2, "images": 2}
    for _ in range(3):
        for query in (interval, bel, plb, incidence):
            with pytest.raises(ValidationError, match="^measure weights sum to 3/4, expected 1$"):
                query(unchecked, g_of(unchecked))
        with pytest.raises(DocumentError):
            to_json(unchecked)
    assert counts == {"weights": 3, "images": 3}


@pytest.mark.parametrize(
    "query, build, message",
    [
        (lower_incidence, coats_ds, "lower_incidence requires an ic structure, got ds"),
        (upper_incidence, coats_ds, "upper_incidence requires an ic structure, got ds"),
        (bel, coats_ic, "bel requires a ds structure, got ic"),
        (plb, coats_ic, "plb requires a ds structure, got ic"),
        (is_total, coats_ic, "is_total requires a ds structure, got ic"),
        (mobius_mass, coats_ic, "mobius_mass requires a ds structure, got ic"),
        (ic_to_ds, coats_ds, "ic_to_ds requires an ic structure, got ds"),
        (ds_to_ic, coats_ic, "ds_to_ic requires a ds structure, got ic"),
    ],
)
def test_wrong_kind_messages(query, build, message):
    st = build()
    args = (st,) if query in (is_total, mobius_mass, ic_to_ds, ds_to_ic) else (st, true_formula(st.lang))
    with pytest.raises(WrongKindError) as caught:
        query(*args)
    assert str(caught.value) == message


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
    with pytest.raises(ValidationError, match="structure kind must be 'ic' or 'ds', got 'nope'"):
        ProbabilityStructure(ic.ps, ic.lang, ic.psi, ic.inc, "nope")
    other = SampleSpace(tuple(f"x{i}" for i in range(ic.ps.space.size)))
    images = IncidenceMap(other, [WorldSet(other, image.bits) for image in ic.inc.images])
    with pytest.raises(ValidationError) as err:
        ProbabilityStructure(ic.ps, ic.lang, ic.psi, images, "ic")
    assert str(err.value) == "incidence map is over a different sample space"


@pytest.mark.parametrize(
    "build",
    [
        lambda: MeasureFn(("x",)),
        lambda: MeasureFn((float("inf"),)),
        lambda: MeasureFn((float("nan"),)),
        lambda: MeasureFn((None,)),
        lambda: Interval("x", 1),
        lambda: Interval(0, float("inf")),
    ],
)
def test_bad_rationals_raise_validation_error(build):
    with pytest.raises(ValidationError, match="not a rational number"):
        build()


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


def test_images_are_built_from_the_masks_once_and_kept(monkeypatch):
    space = SampleSpace(("w1", "w2", "w3"))
    given = (space.subset(["w2"]), space.nothing(), space.subset(["w1", "w3"]))
    assert IncidenceMap(space, given).images == given  # built from the masks of the values given
    assert IncidenceMap(space, list(given)).masks == (2, 0, 5)
    text = to_json(random_total_ds(GenParams(3, 2, 5)))  # 8 atoms, at most 2 with worlds
    made = []
    init = WorldSet.__init__

    def counted(self, space, bits):
        made.append(bits)
        init(self, space, bits)

    monkeypatch.setattr(WorldSet, "__init__", counted)
    st = from_json(text)
    inc = st.inc
    assert made == [] and inc.masks.count(0) >= 6
    images = inc.images
    assert inc.images is images  # built on the first read, then kept
    assert made == [0] + [bits for bits in inc.masks if bits]  # one set for every empty image
    assert len({id(image) for image in images if image.is_empty}) == 1
    assert tuple(image.bits for image in images) == inc.masks
    twin = IncidenceMap(space=st.ps.space, images=images)
    assert inc == twin and hash(inc) == hash(twin)


def test_a_map_of_given_images_is_the_value_it_was():
    # built from the masks, not kept as given: it equals, hashes and prints as the
    # map of the values given, and its empty images share one value
    space = SampleSpace(("w1", "w2", "w3"))
    given = (space.nothing(), space.subset(["w2"]), WorldSet(space, 0), space.subset(["w1", "w3"]), space.nothing())
    inc, of_masks = IncidenceMap(space, given), IncidenceMap._of(space, (0, 2, 0, 5, 0))
    assert inc == of_masks and hash(inc) == hash(of_masks)
    assert repr(inc) == f"IncidenceMap(space={space!r}, images={given!r})" == repr(of_masks)
    assert inc.images == given and len({id(image) for image in inc.images if image.is_empty}) == 1
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(inc, protocol) == pickle.dumps(of_masks, protocol)
        back = pickle.loads(pickle.dumps(inc, protocol))
        assert back == inc and hash(back) == hash(inc) and repr(back) == repr(inc)


@pytest.mark.parametrize(
    "build",
    [coats_ds, coats_ic, lambda: random_total_ds(GenParams(3, 5, 7)), lambda: random_ic(GenParams(3, 5, 7))],
)
def test_hand_built_structures_unpickle_as_equal_values(build):
    # coats_ds gives one weight object twice, random_total_ds distinct empty images:
    # their pickles hold the rebuilt values, which load as the same structure
    st = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(st, protocol))
        assert back == st and hash(back) == hash(st) and repr(back) == repr(st)
        assert to_json(back) == to_json(st)


def test_the_kept_mass_function_is_returned_before_the_gate(monkeypatch):
    st, fresh = coats_ds(), rebuilt(coats_ds())
    kept = structures._masses(st)
    gates = []
    gate = structures._checked
    monkeypatch.setattr(structures, "_checked", lambda *args: gates.append(args) or gate(*args))
    assert structures._masses(st) is kept and gates == []
    assert structures._masses(fresh) == kept  # an equal structure keeps its own, after the gate and gates == [(fresh,)]
    assert structures._masses(fresh) is fresh._masses and len(gates) == 1
    # a structure the gate refuses keeps nothing, and is refused on every call
    ps = ProbabilitySpace(st.ps.space, st.ps.algebra, MeasureFn((Fraction(1, 4), HALF)))
    bad = ProbabilityStructure(ps, st.lang, st.psi, st.inc, st.kind)
    for calls in (2, 3):
        with pytest.raises(ValidationError, match="^measure weights sum to 3/4, expected 1$"):
            structures._masses(bad)
        assert len(gates) == calls and not hasattr(bad, "_masses")
