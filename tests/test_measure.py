"""Rationals, sample spaces, set algebras, measures, inner measures."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from probstruct import (
    MeasureFn,
    NotMeasurableError,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    ValidationError,
    WorldSet,
    discrete_algebra,
    format_rational,
    inner_measure,
    measure,
    parse_rational,
)

HALF = Fraction(1, 2)


def coat_space() -> ProbabilitySpace:
    """Four worlds, only colour-level sets measurable, a fair coin between."""
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    algebra = SetAlgebra(space, (space.subset(["s1", "s2"]), space.subset(["s3", "s4"])))
    return ProbabilitySpace(space, algebra, MeasureFn((HALF, HALF)))


def oracle_inner(ps: ProbabilitySpace, a: WorldSet) -> Fraction:
    """Largest measure of any member contained in ``a``, by enumerating all
    2**k unions of basis blocks.  Independent of the implementation's
    one-pass summation."""
    best = Fraction(0)
    k = len(ps.algebra.basis)
    for chosen in itertools.product((False, True), repeat=k):
        bits = 0
        total = Fraction(0)
        for pick, block, w in zip(chosen, ps.algebra.basis, ps.mu.weights):
            if pick:
                bits |= block.bits
                total += w
        if bits & ~a.bits == 0 and total > best:
            best = total
    return best


# --- rational literals -------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("1/2", HALF), ("0", Fraction(0)), ("1", Fraction(1)), ("3/6", HALF), ("7/4", Fraction(7, 4))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "1/0", "0.5", "a", "1/-2", "", "1 / 2", "1/02",
        # past the interpreter's limit on digits per integer
        pytest.param("9" * 5000, id="5000-digit-integer"),
        pytest.param("1/" + "7" * 5000, id="5000-digit-denominator"),
    ],
)
def test_parse_rational_rejects(text):
    with pytest.raises(ValidationError):
        parse_rational(text)


def test_format_rational_is_canonical():
    assert format_rational(HALF) == "1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(2, 2)) == "1"
    assert format_rational(Fraction(6, 8)) == "3/4"


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


# --- spaces and world sets ---------------------------------------------------


def test_sample_space_validation():
    with pytest.raises(ValidationError):
        SampleSpace(())
    with pytest.raises(ValidationError):
        SampleSpace(tuple(f"w{i}" for i in range(65)))
    with pytest.raises(ValidationError):
        SampleSpace(("a", "a"))
    with pytest.raises(ValidationError):
        SampleSpace(("not a name",))


def test_world_set_operations():
    space = SampleSpace(("s1", "s2", "s3", "s4"))
    x = space.subset(["s1", "s2"])
    y = space.subset(["s2", "s3"])
    assert (x | y).names() == ("s1", "s2", "s3")
    assert (x & y).names() == ("s2",)
    assert (~x).names() == ("s3", "s4")
    assert x.issubset(space.everything())
    assert not x.issubset(y)
    assert space.nothing().is_empty
    assert str(x) == "{s1, s2}"
    with pytest.raises(ValidationError):
        space.subset(["s9"])


def test_world_set_space_mixing():
    a = SampleSpace(("x", "y"))
    b = SampleSpace(("x", "z"))
    with pytest.raises(ValidationError):
        WorldSet(a, 1) | WorldSet(b, 1)


def test_set_algebra_must_partition():
    space = SampleSpace(("s1", "s2", "s3"))
    with pytest.raises(ValidationError):
        SetAlgebra(space, (space.subset(["s1", "s2"]), space.subset(["s2", "s3"])))
    with pytest.raises(ValidationError):
        SetAlgebra(space, (space.subset(["s1"]),))
    with pytest.raises(ValidationError):
        SetAlgebra(space, (space.everything(), space.nothing()))


def test_measure_fn_length_must_match_basis():
    space = SampleSpace(("s1", "s2"))
    with pytest.raises(ValidationError):
        ProbabilitySpace(space, discrete_algebra(space), MeasureFn((Fraction(1),)))


# --- measure -----------------------------------------------------------------


def test_measure_of_members():
    ps = coat_space()
    space = ps.space
    assert measure(ps, space.subset(["s1", "s2"])) == HALF
    assert measure(ps, space.subset(["s3", "s4"])) == HALF
    assert measure(ps, space.everything()) == 1
    assert measure(ps, space.nothing()) == 0


def test_measure_rejects_non_members():
    ps = coat_space()
    with pytest.raises(NotMeasurableError):
        measure(ps, ps.space.subset(["s1", "s2", "s3"]))
    with pytest.raises(NotMeasurableError):
        measure(ps, ps.space.subset(["s1"]))


def test_inner_measure_values():
    ps = coat_space()
    space = ps.space
    # not measurable, but approximated from below by {s1, s2}
    assert inner_measure(ps, space.subset(["s1", "s2", "s3"])) == HALF
    assert inner_measure(ps, space.subset(["s3"])) == 0
    assert inner_measure(ps, space.nothing()) == 0
    assert inner_measure(ps, space.everything()) == 1
    # agrees with measure on members
    assert inner_measure(ps, space.subset(["s3", "s4"])) == HALF


def test_inner_measure_matches_sup_oracle_exhaustively():
    ps = coat_space()
    for bits in range(16):
        a = WorldSet(ps.space, bits)
        assert inner_measure(ps, a) == oracle_inner(ps, a)


def test_complement_measure():
    ps = coat_space()
    x = ps.space.subset(["s1", "s2"])
    assert 1 - measure(ps, x) == measure(ps, ~x) == HALF
    everything = ps.space.everything()
    assert 1 - measure(ps, everything) == measure(ps, ~everything) == 0
    with pytest.raises(NotMeasurableError):
        measure(ps, ~ps.space.subset(["s1"]))


@st.composite
def probability_spaces(draw):
    n_worlds = draw(st.integers(min_value=1, max_value=5))
    space = SampleSpace(tuple(f"w{i + 1}" for i in range(n_worlds)))
    owner = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_worlds - 1),
            min_size=n_worlds,
            max_size=n_worlds,
        )
    )
    blocks: dict[int, int] = {}
    for i, urn in enumerate(owner):
        blocks[urn] = blocks.get(urn, 0) | (1 << i)
    basis = tuple(
        WorldSet(space, bits) for bits in sorted(blocks.values(), key=lambda b: b & -b)
    )
    nums = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=len(basis),
            max_size=len(basis),
        ).filter(lambda xs: sum(xs) > 0)
    )
    den = sum(nums)
    weights = tuple(Fraction(n, den) for n in nums)
    return ProbabilitySpace(space, SetAlgebra(space, basis), MeasureFn(weights))


@given(probability_spaces())
def test_additivity_on_disjoint_members(ps):
    k = len(ps.algebra.basis)
    for split in itertools.product((0, 1, 2), repeat=k):
        x = y = 0
        for side, block in zip(split, ps.algebra.basis):
            if side == 1:
                x |= block.bits
            elif side == 2:
                y |= block.bits
        wx, wy = WorldSet(ps.space, x), WorldSet(ps.space, y)
        assert measure(ps, wx | wy) == measure(ps, wx) + measure(ps, wy)


@given(probability_spaces())
def test_inner_measure_monotone_and_superadditive(ps):
    size = 1 << ps.space.size
    values = [inner_measure(ps, WorldSet(ps.space, bits)) for bits in range(size)]
    for a in range(size):
        for b in range(size):
            if a & ~b == 0:
                assert values[a] <= values[b]
            if a & b == 0:
                assert values[a | b] >= values[a] + values[b]


@given(probability_spaces())
def test_inner_measure_matches_sup_oracle(ps):
    for bits in range(1 << ps.space.size):
        a = WorldSet(ps.space, bits)
        assert inner_measure(ps, a) == oracle_inner(ps, a)
