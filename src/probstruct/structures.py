"""Probability structures joining a probability space to a language.

A structure carries a probability space over worlds, a propositional
language, an algebra of formulas, and an *incidence map* sending each
formula of that algebra to the set of worlds where it holds.  The map is
stored as a world bitmask per basis block and extended by union, so it
respects negation, conjunction and disjunction on the whole algebra.

Two kinds are distinguished by where the partiality lives:

* ``ic`` (incidence calculus): every set of worlds is measurable, but the
  incidence map may cover only part of the formula algebra.  Formulas
  outside it get bounds from the incidences of weaker and stronger formulas
  (``lower_incidence`` / ``upper_incidence``).
* ``ds`` (belief structure): every formula has an incidence, but only some
  world sets are measurable.  Belief is the inner measure of the incidence;
  plausibility is its dual.

``validate`` is the one check of a structure: its weights form a
distribution, its images partition the worlds, and its shape fits its kind.
Its answer is kept on the structure.  Every reader enters through
``_checked``, which refuses, in this order, a non-structure, the wrong kind
and what ``validate`` lists.  In a valid structure every world set an ``ic``
query meets is measurable, and only an ``ic`` block can meet both ``xi`` and
``~xi``.  So a query splits the basis blocks by ``xi`` in one pass, and for
either kind the inner measure of the images of the blocks inside ``xi`` is
``lo``, that of the blocks inside ``~xi`` is ``1 - hi``: ``interval`` returns
exact lower and upper probabilities for any formula.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import UndefinedIncidenceError, ValidationError, WrongKindError
from .logic import Formula, FormulaAlgebra, Language, _check_lang, format_formula, full_algebra
from .measure import (
    ONE,
    ZERO,
    MeasureFn,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    WorldSet,
    as_fraction,
    discrete_algebra,
    format_rational,
    inner_measure,
)
from .value import Masked, Value, as_tuple, partition_faults, require_type, set_bits, setfield


class StructureKind(str, Enum):
    IC = "ic"
    DS = "ds"

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"structure kind must be 'ic' or 'ds', got {value!r}")


class IncidenceMap(Masked):
    """World-set images of the formula-algebra basis blocks, in basis order,
    stored only as the world bitmasks ``masks``; ``images`` is built from them
    as ``WorldSet`` values when first read, and kept, as ``Partition.basis`` is.
    Whether the images are pairwise disjoint and cover the sample space is
    left to ``partition_problems``, which ``validate`` calls.
    """

    _fields = ("space", "images")
    __slots__ = ("space",)
    _element = WorldSet
    images = property(Masked._built)

    def __init__(self, space: SampleSpace, images):
        require_type(space, SampleSpace, "incidence map space")
        different = "incidence image is over a different sample space"
        self._keep(space, as_tuple(images, "incidence images"), "incidence image", ValidationError, different)

    def partition_problems(self) -> list[str]:
        """Why the images, empty ones allowed, fail to partition the sample space; empty if they do."""
        space, live = self.space, [bits for bits in self.masks if bits]  # most ds images are empty
        return [
            f"incidence images do not cover worlds {WorldSet(space, bits)}" if i is None else
            f"incidence images overlap on {WorldSet(space, bits)}: images of distinct blocks must be disjoint"
            for i, bits in partition_faults(live, space.full_bits)
        ]


class Interval(Value):
    """Exact lower and upper probability bounds."""

    _fields = ("lo", "hi")
    __slots__ = _fields

    def __init__(self, lo: Fraction, hi: Fraction):
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not ZERO <= lo <= hi <= ONE:
            raise ValidationError(f"not a probability interval: lo={lo}, hi={hi}")
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


class ProbabilityStructure(Value):
    """A probability space, a language, a formula algebra and an incidence
    map from its basis blocks to world sets, of kind ``ic`` or ``ds``.

    This constructor checks only that the pieces fit together, so that
    ``validate`` can list what else is wrong; the ``ic`` and ``ds``
    constructors also refuse what ``validate`` lists.
    """

    _fields = ("ps", "lang", "psi", "inc", "kind")
    __slots__ = _fields + ("_problems", "_masses")  # see ``validate`` and ``_masses``

    def __init__(
        self,
        ps: ProbabilitySpace,
        lang: Language,
        psi: FormulaAlgebra,
        inc: IncidenceMap,
        kind: StructureKind,
    ):
        kind = StructureKind(kind)
        require_type(ps, ProbabilitySpace, "structure probability space")
        require_type(psi, FormulaAlgebra, "structure formula algebra")
        require_type(inc, IncidenceMap, "structure incidence map")
        if psi.lang != lang:
            raise ValidationError("formula algebra is over a different language")
        if inc.space != ps.space:
            raise ValidationError("incidence map is over a different sample space")
        if len(inc.masks) != len(psi.masks):
            raise ValidationError(
                f"incidence map has {len(inc.masks)} images for "
                f"{len(psi.masks)} basis blocks"
            )
        setfield(self, "ps", ps)
        setfield(self, "lang", lang)
        setfield(self, "psi", psi)
        setfield(self, "inc", inc)
        setfield(self, "kind", kind)

    @classmethod
    def ic(cls, space: SampleSpace, world_weights, psi: FormulaAlgebra, images) -> ProbabilityStructure:
        """Incidence-calculus structure: weights are given per world."""
        require_type(psi, FormulaAlgebra, "structure formula algebra")
        ps = ProbabilitySpace(space, discrete_algebra(space), MeasureFn(world_weights))
        return _checked(cls(ps, psi.lang, psi, IncidenceMap(space, images), StructureKind.IC))

    @classmethod
    def ds(cls, space: SampleSpace, chi_basis, weights, lang: Language, atom_images) -> ProbabilityStructure:
        """Belief structure: the formula algebra is all of the language."""
        ps = ProbabilitySpace(space, SetAlgebra(space, chi_basis), MeasureFn(weights))
        inc = IncidenceMap(space, atom_images)
        return _checked(cls(ps, lang, full_algebra(lang), inc, StructureKind.DS))


class ValidationReport(Value):
    """Problems found by ``validate``; an empty tuple means valid."""

    _fields = ("problems",)
    __slots__ = _fields

    def __init__(self, problems: tuple[str, ...]):
        setfield(self, "problems", as_tuple(problems, "problems"))

    @property
    def ok(self) -> bool:
        return not self.problems


def _problems(st: ProbabilityStructure) -> tuple[str, ...]:
    """What ``validate`` lists for ``st``: found once, kept in a slot outside the fields."""
    require_type(st, ProbabilityStructure, "structure")
    if hasattr(st, "_problems"):
        return st._problems
    problems = st.ps.mu.weight_problems() + st.inc.partition_problems()
    if st.kind is StructureKind.IC:
        for bits in st.ps.algebra.masks:
            if bits.bit_count() != 1:
                problems.append(
                    f"ic structure requires every world set measurable, but "
                    f"measure basis block {WorldSet(st.ps.space, bits)} is not a singleton"
                )
    # the blocks partition the atoms, so they are all single atoms exactly
    # when there is one per atom; walk them only to name the others
    elif len(st.psi.masks) != st.lang.n_atoms:
        for atoms in st.psi.masks:
            if atoms.bit_count() != 1:
                problems.append(
                    f"ds structure requires an incidence for every formula, but "
                    f"formula basis block {format_formula(Formula(st.lang, atoms))} is not a single atom"
                )
    setfield(st, "_problems", tuple(problems))
    return st._problems


def validate(st: ProbabilityStructure) -> ValidationReport:
    """Check the semantic invariants that construction deliberately defers.

    Shape constraints (partitions of both bases, index alignment, shared
    spaces) are enforced when the pieces are built; this checks everything
    a hand-written document could still get wrong: the weights, the images
    and the shape the kind asks for, found once per structure by ``_problems``.
    """
    return ValidationReport(_problems(st))


def _checked(
    st: ProbabilityStructure, kind: StructureKind | None = None, op: str = ""
) -> ProbabilityStructure:
    """The gate of every reader: ``st``, if it is a structure, of ``kind`` when given
    (``op`` names the reader), for which ``validate`` lists nothing; refused otherwise."""
    require_type(st, ProbabilityStructure, "structure")
    if kind is not None and st.kind is not kind:
        article = "an" if kind is StructureKind.IC else "a"
        raise WrongKindError(f"{op} requires {article} {kind.value} structure, got {st.kind.value}")
    if _problems(st):
        raise ValidationError("; ".join(st._problems))
    return st


def _split(st: ProbabilityStructure, xi: Formula, kind=None, op="") -> tuple[WorldSet, WorldSet, bool]:
    """One pass over the basis: the union of the images of the blocks inside
    ``xi``, that of the blocks inside ``~xi``, and whether a block meets both.
    ``st`` passes ``_checked`` for ``kind`` and ``op`` before ``xi`` is read."""
    _checked(st, kind, op)
    _check_lang(st.psi, xi)
    f = xi.atoms
    inside, outside, mixed = 0, 0, False
    for block, image in zip(st.psi.masks, st.inc.masks):
        common = block & f
        if common == block:
            inside |= image
        elif common:
            mixed = True
        else:
            outside |= image
    return WorldSet(st.ps.space, inside), WorldSet(st.ps.space, outside), mixed


def incidence(st: ProbabilityStructure, phi: Formula) -> WorldSet:
    """Worlds where ``phi`` holds; defined only on the formula algebra."""
    inside, _, mixed = _split(st, phi)
    if mixed:  # only an ic block can meet both sides
        raise UndefinedIncidenceError(
            f"incidence is undefined on {format_formula(phi)}: not a member of the formula algebra"
        )
    return inside


def lower_incidence(st: ProbabilityStructure, xi: Formula) -> WorldSet:
    """Union of the incidences of all algebra members entailing ``xi``."""
    return _split(st, xi, StructureKind.IC, "lower_incidence")[0]


def upper_incidence(st: ProbabilityStructure, xi: Formula) -> WorldSet:
    """Complement of the lower incidence of the negation."""
    return ~_split(st, xi, StructureKind.IC, "upper_incidence")[1]


def bel(st: ProbabilityStructure, xi: Formula) -> Fraction:
    """Belief: the inner measure of the incidence of ``xi``."""
    inside = _split(st, xi, StructureKind.DS, "bel")[0]  # checked before ``st.ps`` is read
    return inner_measure(st.ps, inside)


def plb(st: ProbabilityStructure, xi: Formula) -> Fraction:
    """Plausibility: the dual of belief."""
    outside = _split(st, xi, StructureKind.DS, "plb")[1]
    return ONE - inner_measure(st.ps, outside)


def interval(st: ProbabilityStructure, xi: Formula) -> Interval:
    """Exact probability bounds for ``xi`` under either kind of structure: a
    valid ic measures every world set, and its weights sum to 1."""
    inside, outside, _ = _split(st, xi)
    return Interval(inner_measure(st.ps, inside), ONE - inner_measure(st.ps, outside))


def _masses(st: ProbabilityStructure) -> tuple[tuple[tuple[int, int], ...], int]:
    """The mass function as (atom mask, numerator) pairs over ``mu.den``.  An ic
    has a pair per formula block, summing the numerators of its image's worlds,
    each image walked once, a ds one per measurable block, whose mask holds each
    atom whose image meets it.
    Refuses what ``validate`` lists; kept in a slot outside the fields, and
    only for a structure that passed the gate, so it is returned ungated."""
    if hasattr(st, "_masses"):
        return st._masses
    _checked(st)
    chi = list(zip(st.ps.algebra.masks, st.ps.mu.nums))
    images = zip(st.psi.masks, st.inc.masks)
    if st.kind is StructureKind.IC:  # the measurable blocks are the single worlds, in any order
        weight = {bits.bit_length() - 1: n for bits, n in chi}  # world -> numerator
        pairs = [(block, sum(map(weight.__getitem__, set_bits(image)))) for block, image in images]
    else:
        live = [(block, image) for block, image in images if image]
        pairs = [(sum(atoms for atoms, bits in live if bits & chi_bits), n) for chi_bits, n in chi]
    setfield(st, "_masses", (tuple(pairs), st.ps.mu.den))
    return st._masses


def is_total(st: ProbabilityStructure) -> bool:
    """True iff every measurable set is the incidence of some formula.

    That holds exactly when the focal masks are disjoint, partitioning their
    sum: an atom whose image meets two measurable blocks is in both masks.
    """
    masks = [mask for mask, _ in _masses(_checked(st, StructureKind.DS, "is_total"))[0]]
    return not any(partition_faults(masks, sum(masks)))


MAX_MOBIUS_PROPS = 3


def mobius_mass(st: ProbabilityStructure) -> dict[Formula, Fraction]:
    """Mass function recovered from belief by brute-force Mobius inversion.

    Evaluates m(A) = sum over B subseteq A of (-1)^|A minus B| bel(B) for every
    formula A.  Exponential in the number of atoms, hence capped; meant as an
    independent cross-check of belief's superadditivity, not a fast path.
    """
    _checked(st, StructureKind.DS, "mobius_mass")
    if len(st.lang.props) > MAX_MOBIUS_PROPS:
        raise ValidationError(
            f"language too large for brute-force inversion (max {MAX_MOBIUS_PROPS} propositions)"
        )
    size = 1 << st.lang.n_atoms
    bel_table = [bel(st, Formula(st.lang, m)) for m in range(size)]
    masses: dict[Formula, Fraction] = {}
    for a in range(size):
        acc, b = ZERO, a
        while True:  # every b inside a, down to 0
            if (a ^ b).bit_count() & 1:
                acc -= bel_table[b]
            else:
                acc += bel_table[b]
            if b == 0:
                break
            b = (b - 1) & a
        masses[Formula(st.lang, a)] = acc
    return masses
