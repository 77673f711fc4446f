"""Rationals, sample spaces, set algebras, measures, inner measures."""

import itertools
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from probstruct import (
    Interval,
    MeasureFn,
    NotMeasurableError,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    ValidationError,
    WorldSet,
    discrete_algebra,
    format_rational,
    from_json,
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
        # digits are ASCII: not Arabic-Indic or fullwidth ones, which int() would read
        "\u0661", "\uff11", "1/1\u0660", "-\u0663/4",
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


def test_format_rational_rejects_integers_past_the_digit_limit():
    huge = Fraction(1, 10**5000 + 1)
    with pytest.raises(ValidationError, match="too long to write out"):
        format_rational(huge)
    with pytest.raises(ValidationError, match="too long to write out"):
        str(Interval(Fraction(0), huge))


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(format_rational(q)) == q


# --- spaces and world sets ---------------------------------------------------


def test_world_set_names_in_world_order():
    space = SampleSpace(tuple(f"w{i}" for i in range(64)))
    for bits in (0, 1, 1 << 63, space.full_bits, 0b1011 << 30, 0x8000_0000_0000_0001):
        want = tuple(w for i, w in enumerate(space.worlds) if (bits >> i) & 1)
        assert WorldSet(space, bits).names() == want


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
    with pytest.raises(ValidationError) as err:
        SetAlgebra(space, (space.subset(["s1", "s2"]), space.subset(["s2", "s3"])))
    assert str(err.value) == "basis blocks overlap: {s2, s3} intersects earlier blocks"
    with pytest.raises(ValidationError) as err:
        SetAlgebra(space, (space.subset(["s1"]),))
    assert str(err.value) == "basis blocks do not cover every world"
    with pytest.raises(ValidationError) as err:
        SetAlgebra(space, (space.everything(), space.nothing()))
    assert str(err.value) == "basis blocks must be nonempty"


def test_world_set_bitmask_must_be_in_range():
    space = SampleSpace(("s1", "s2"))
    for bits in (4, -1):
        with pytest.raises(ValidationError) as err:
            WorldSet(space, bits)
        assert str(err.value) == f"world bitmask {bits} out of range"


def test_measure_fn_length_must_match_basis():
    space = SampleSpace(("s1", "s2"))
    with pytest.raises(ValidationError):
        ProbabilitySpace(space, discrete_algebra(space), MeasureFn((Fraction(1),)))


def test_a_weight_count_mismatch_keeps_its_message():
    space = SampleSpace(("s1", "s2"))
    for weights in ((Fraction(1),), (), (HALF, HALF, Fraction(0))):
        with pytest.raises(ValidationError) as err:
            ProbabilitySpace(space, discrete_algebra(space), MeasureFn(weights))
        assert str(err.value) == f"measure has {len(weights)} weights for 2 basis blocks"


def same_value(a, b) -> None:
    """``a`` and ``b`` are one value: equal, with equal hashes, reprs and pickles."""
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    for protocol in (2, 4):
        assert pickle.dumps(a, protocol) == pickle.dumps(b, protocol)


@pytest.mark.parametrize(
    "spelled, plain",
    [
        (("2/4", Fraction(3, 6)), (Fraction(1, 2), Fraction(1, 2))),  # two objects: pickles share none
        ((0, 1), (Fraction(0), Fraction(1))),
        ((Fraction(0), "-0", 1), (0, 0, Fraction(1))),
        ((Fraction(-2, 8), "10/8"), (Fraction(-1, 4), Fraction(5, 4))),
        ((Fraction(1, 6), Fraction(2, 6), 0.5), (Fraction(1, 6), Fraction(1, 3), HALF)),
    ],
)
def test_weights_spelled_differently_are_one_value(spelled, plain):
    a, b = MeasureFn(spelled), MeasureFn(plain)
    same_value(a, b)
    assert (a.nums, a.den) == (b.nums, b.den)
    assert a.weights == b.weights == tuple(map(Fraction, plain))


def test_the_normal_form_is_numerators_over_the_least_common_denominator():
    mu = MeasureFn((Fraction(1, 6), Fraction(1, 4), Fraction(7, 12), Fraction(0)))
    assert (mu.nums, mu.den) == ((2, 3, 7, 0), 12)
    assert MeasureFn(()).nums == () and MeasureFn(()).den == 1
    assert MeasureFn((-3, 4)).nums == (-3, 4) and MeasureFn((-3, 4)).den == 1
    with pytest.raises(AttributeError):
        mu.nums = (1,)


@given(st.lists(st.fractions(max_denominator=10**6) | st.integers(-50, 50), max_size=12))
def test_the_unchecked_constructor_agrees_with_the_public_one(weights):
    mu = MeasureFn(weights)
    assert mu.den == math.lcm(*(Fraction(w).denominator for w in weights))
    assert math.gcd(mu.den, *mu.nums) == 1
    assert mu.weights == tuple(map(Fraction, weights))
    unchecked = MeasureFn._of(tuple((n // g, mu.den // g) for n in mu.nums for g in (math.gcd(n, mu.den),)))
    assert not hasattr(unchecked, "_weights")  # built on each read, never stored
    same_value(unchecked, mu)
    assert unchecked.weights == mu.weights
    assert unchecked.weight_problems() == mu.weight_problems()
    assert pickle.loads(pickle.dumps(unchecked)) == mu


@given(st.lists(st.fractions(max_denominator=10**6) | st.integers(-50, 50), max_size=12))
def test_weights_kept_as_their_reduced_pairs_are_the_same_value(weights):
    mu = MeasureFn(weights)
    pairs = tuple((w.numerator, w.denominator) for w in mu.weights)
    from_pairs = MeasureFn._of(pairs)
    assert not hasattr(from_pairs, "_weights")  # built on each read, never stored
    same_value(from_pairs, mu)
    assert from_pairs.weights == mu.weights
    assert pickle.loads(pickle.dumps(from_pairs)) == mu


def one_value(a: MeasureFn, b: MeasureFn) -> None:
    """``a`` and ``b`` are one value in every form they show, pickled at every protocol."""
    same_value(a, b)
    assert (a.nums, a.den, a.weights) == (b.nums, b.den, b.weights)
    assert a.weight_problems() == b.weight_problems()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(a, protocol) == pickle.dumps(b, protocol)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert back == a and hash(back) == hash(a) and repr(back) == repr(a)


def loaded_measure(weights) -> MeasureFn:
    """The measure of an unchecked ic document over one world per weight, each
    weight written with its numerator and denominator tripled."""
    worlds = [f"w{i}" for i in range(len(weights))]
    doc = {
        "kind": "ic", "propositions": ["a"], "worlds": worlds, "psi_basis": ["a", "~a"],
        "incidence": {"a": worlds, "~a": []},
        "measure": {str(i): f"{3 * w.numerator}/{3 * w.denominator}" for i, w in enumerate(map(Fraction, weights))},
    }
    return from_json(json.dumps(doc), check=False).ps.mu


@given(st.lists(st.fractions(max_denominator=10**6) | st.integers(-50, 50), min_size=1, max_size=12))
def test_the_constructor_the_reduced_pairs_and_a_document_give_one_measure(weights):
    mu = MeasureFn(weights)
    pairs = tuple((Fraction(w).numerator, Fraction(w).denominator) for w in weights)
    one_value(MeasureFn._of(pairs), mu)
    one_value(loaded_measure(weights), mu)
    assert mu.weights == tuple(map(Fraction, weights))


def test_measures_of_different_weights_differ():
    assert MeasureFn((HALF, HALF)) != MeasureFn((Fraction(1, 4), Fraction(3, 4)))
    assert MeasureFn((HALF, HALF)) != MeasureFn((HALF, HALF, 0))
    assert MeasureFn((1,)) != MeasureFn._of(((2, 2),))  # not reduced: no value the constructor makes


def test_probability_space_algebra_must_be_over_its_space():
    space, other = SampleSpace(("s1", "s2")), SampleSpace(("s1", "s3"))
    with pytest.raises(ValidationError) as err:
        ProbabilitySpace(space, discrete_algebra(other), MeasureFn((HALF, HALF)))
    assert str(err.value) == "algebra is over a different sample space"


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


def test_set_algebra_member_is_a_union_of_blocks():
    ps = coat_space()
    space, algebra = ps.space, ps.algebra
    assert algebra.member(space.subset(["s1", "s2"]))
    assert algebra.member(space.everything())
    assert algebra.member(space.nothing())
    assert not algebra.member(space.subset(["s1"]))
    assert not algebra.member(space.subset(["s1", "s2", "s3"]))
    discrete = discrete_algebra(space)
    for bits in range(16):
        assert discrete.member(WorldSet(space, bits))
    other = SampleSpace(("s1", "s2", "s3", "s5"))
    with pytest.raises(ValidationError, match="world sets belong to different sample spaces"):
        algebra.member(other.subset(["s1", "s2"]))


def test_a_space_keeps_its_full_mask():
    space = SampleSpace(("w1", "w2", "w3"))
    assert "full_bits" in SampleSpace.__slots__ and "full_bits" not in SampleSpace._fields
    assert space.full_bits == 0b111 and space.everything().bits == 0b111
    with pytest.raises(AttributeError):
        space.full_bits = 1
    assert pickle.loads(pickle.dumps(space)).full_bits == 0b111
    assert SampleSpace([f"w{i}" for i in range(64)]).full_bits == (1 << 64) - 1
