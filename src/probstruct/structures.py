"""Probability structures joining a probability space to a language.

A structure carries a probability space over worlds, a propositional
language, an algebra of formulas, and an *incidence map* sending each
formula of that algebra to the set of worlds where it holds.  The map is
stored on the basis blocks and extended by union, so it automatically
respects negation, conjunction and disjunction on the whole algebra.

Two kinds are distinguished by where the partiality lives:

* ``ic`` (incidence calculus): every set of worlds is measurable, but the
  incidence map may cover only part of the formula algebra.  Formulas
  outside it get bounds from the incidences of weaker and stronger formulas
  (``lower_incidence`` / ``upper_incidence``).
* ``ds`` (belief structure): every formula has an incidence, but only some
  world sets are measurable.  Belief is the inner measure of the incidence;
  plausibility is its dual.

Either way, ``interval`` returns exact lower and upper probabilities for any
formula, and the two recipes agree whenever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import UndefinedIncidenceError, ValidationError, WrongKindError
from .logic import (
    Formula,
    FormulaAlgebra,
    Language,
    _check_lang,
    format_formula,
    full_algebra,
)
from .measure import (
    ONE,
    ZERO,
    MeasureFn,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    WorldSet,
    discrete_algebra,
    format_rational,
    inner_measure,
    measure,
)


class StructureKind(str, Enum):
    IC = "ic"
    DS = "ds"


@dataclass(frozen=True)
class IncidenceMap:
    """World-set images of the formula-algebra basis blocks, in basis order.

    Whether the images are pairwise disjoint and cover the sample space is
    checked by ``validate`` and by the ``ic`` and ``ds`` constructors, not here.
    """

    space: SampleSpace
    images: tuple[WorldSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        for image in self.images:
            if image.space != self.space:
                raise ValidationError("incidence image is over a different sample space")

    def partition_problems(self) -> list[str]:
        """Why the images fail to partition the sample space; empty if they do."""
        problems = []
        seen = 0
        for image in self.images:
            overlap = seen & image.bits
            if overlap:
                problems.append(
                    f"incidence images overlap on {WorldSet(self.space, overlap)}: "
                    f"images of distinct blocks must be disjoint"
                )
            seen |= image.bits
        if seen != self.space.full_bits:
            missing = WorldSet(self.space, self.space.full_bits ^ seen)
            problems.append(f"incidence images do not cover worlds {missing}")
        return problems

    def require_partition(self) -> IncidenceMap:
        """Raise ``ValidationError`` unless the images partition the space."""
        problems = self.partition_problems()
        if problems:
            raise ValidationError("; ".join(problems))
        return self


@dataclass(frozen=True)
class Interval:
    """Exact lower and upper probability bounds."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ValidationError(f"not a probability interval: lo={self.lo}, hi={self.hi}")

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


@dataclass(frozen=True)
class ProbabilityStructure:
    ps: ProbabilitySpace
    lang: Language
    psi: FormulaAlgebra
    inc: IncidenceMap
    kind: StructureKind

    def __post_init__(self):
        object.__setattr__(self, "kind", StructureKind(self.kind))
        if self.psi.lang != self.lang:
            raise ValidationError("formula algebra is over a different language")
        if self.inc.space != self.ps.space:
            raise ValidationError("incidence map is over a different sample space")
        if len(self.inc.images) != len(self.psi.basis):
            raise ValidationError(
                f"incidence map has {len(self.inc.images)} images for "
                f"{len(self.psi.basis)} basis blocks"
            )

    @classmethod
    def ic(
        cls,
        space: SampleSpace,
        world_weights,
        psi: FormulaAlgebra,
        images,
    ) -> ProbabilityStructure:
        """Incidence-calculus structure: weights are given per world."""
        ps = ProbabilitySpace(space, discrete_algebra(space), MeasureFn(tuple(world_weights)))
        inc = IncidenceMap(space, tuple(images)).require_partition()
        return cls(ps, psi.lang, psi, inc, StructureKind.IC)

    @classmethod
    def ds(
        cls,
        space: SampleSpace,
        chi_basis,
        weights,
        lang: Language,
        atom_images,
    ) -> ProbabilityStructure:
        """Belief structure: the formula algebra is all of the language."""
        ps = ProbabilitySpace(space, SetAlgebra(space, tuple(chi_basis)), MeasureFn(tuple(weights)))
        inc = IncidenceMap(space, tuple(atom_images)).require_partition()
        return cls(ps, lang, full_algebra(lang), inc, StructureKind.DS)


@dataclass(frozen=True)
class ValidationReport:
    """Problems found by ``validate``; an empty tuple means valid."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(st: ProbabilityStructure) -> ValidationReport:
    """Check the semantic invariants that construction deliberately defers.

    Shape constraints (partitions of both bases, index alignment, shared
    spaces) are enforced when the pieces are built; this re-checks everything
    a hand-written document could still get wrong.
    """
    problems: list[str] = []

    total = ZERO
    for i, w in enumerate(st.ps.mu.weights):
        if w < 0:
            problems.append(f"measure weight {format_rational(w)} of block {i} is negative")
        total += w
    if total != 1:
        try:
            problems.append(f"measure weights sum to {format_rational(total)}, expected 1")
        except ValidationError:
            problems.append("measure weights do not sum to 1 (the sum is too long to write out)")

    problems += st.inc.partition_problems()

    if st.kind is StructureKind.IC:
        for block in st.ps.algebra.basis:
            if block.bits.bit_count() != 1:
                problems.append(
                    f"ic structure requires every world set measurable, but "
                    f"measure basis block {block} is not a singleton"
                )
    else:
        for block in st.psi.basis:
            if block.atoms.bit_count() != 1:
                problems.append(
                    f"ds structure requires an incidence for every formula, but "
                    f"formula basis block {format_formula(block)} is not a single atom"
                )

    return ValidationReport(tuple(problems))


def _contained_image_union(st: ProbabilityStructure, f: Formula) -> tuple[int, int]:
    """(covered atom mask, union of image bits) over basis blocks inside f."""
    covered = 0
    bits = 0
    for block, image in zip(st.psi.basis, st.inc.images):
        if block.atoms & ~f.atoms == 0:
            covered |= block.atoms
            bits |= image.bits
    return covered, bits


def incidence(st: ProbabilityStructure, phi: Formula) -> WorldSet:
    """Worlds where ``phi`` holds; defined only on the formula algebra."""
    _check_lang(st.psi, phi)
    covered, bits = _contained_image_union(st, phi)
    if covered != phi.atoms:
        raise UndefinedIncidenceError(
            f"incidence is undefined on {format_formula(phi)}: "
            "not a member of the formula algebra"
        )
    return WorldSet(st.ps.space, bits)


def _require_kind(st: ProbabilityStructure, kind: StructureKind, op: str) -> None:
    if st.kind is not kind:
        raise WrongKindError(f"{op} requires a {kind.value} structure, got {st.kind.value}")


def lower_incidence(st: ProbabilityStructure, xi: Formula) -> WorldSet:
    """Union of the incidences of all algebra members entailing ``xi``."""
    _require_kind(st, StructureKind.IC, "lower_incidence")
    _check_lang(st.psi, xi)
    _, bits = _contained_image_union(st, xi)
    return WorldSet(st.ps.space, bits)


def upper_incidence(st: ProbabilityStructure, xi: Formula) -> WorldSet:
    """Complement of the lower incidence of the negation."""
    return ~lower_incidence(st, ~xi)


def bel(st: ProbabilityStructure, xi: Formula) -> Fraction:
    """Belief: the inner measure of the incidence of ``xi``."""
    _require_kind(st, StructureKind.DS, "bel")
    return inner_measure(st.ps, incidence(st, xi))


def plb(st: ProbabilityStructure, xi: Formula) -> Fraction:
    """Plausibility: the dual of belief."""
    _require_kind(st, StructureKind.DS, "plb")
    return ONE - bel(st, ~xi)


def interval(st: ProbabilityStructure, xi: Formula) -> Interval:
    """Exact probability bounds for ``xi`` under either kind of structure."""
    if st.kind is StructureKind.IC:
        return Interval(
            measure(st.ps, lower_incidence(st, xi)),
            measure(st.ps, upper_incidence(st, xi)),
        )
    return Interval(bel(st, xi), plb(st, xi))


def _focal_weights(st: ProbabilityStructure) -> list[tuple[int, Fraction]]:
    """The mass function as (atom mask, weight) pairs: a formula's lower
    probability sums the weights whose mask it contains.  A ds measurable
    block's mask holds every atom whose image meets the block."""
    st.inc.require_partition()
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


def is_total(st: ProbabilityStructure) -> bool:
    """True iff every measurable set is the incidence of some formula.

    That holds exactly when the focal masks are pairwise disjoint: an atom
    whose image meets two measurable blocks lands in both their masks.
    """
    _require_kind(st, StructureKind.DS, "is_total")
    seen = 0
    for mask, _ in _focal_weights(st):
        if seen & mask:
            return False
        seen |= mask
    return True


MAX_MOBIUS_PROPS = 3


def mobius_mass(st: ProbabilityStructure) -> dict[Formula, Fraction]:
    """Mass function recovered from belief by brute-force Mobius inversion.

    Evaluates m(A) = sum over B subseteq A of (-1)^|A minus B| bel(B) for every
    formula A.  Exponential in the number of atoms, hence capped; meant as an
    independent cross-check of belief's superadditivity, not a fast path.
    """
    _require_kind(st, StructureKind.DS, "mobius_mass")
    if len(st.lang.props) > MAX_MOBIUS_PROPS:
        raise ValidationError(
            f"language too large for brute-force inversion "
            f"(max {MAX_MOBIUS_PROPS} propositions)"
        )
    size = 1 << st.lang.n_atoms
    bel_table = [bel(st, Formula(st.lang, m)) for m in range(size)]
    masses: dict[Formula, Fraction] = {}
    for a in range(size):
        acc = ZERO
        b = a
        pa = a.bit_count()
        while True:
            term = bel_table[b]
            if (pa - b.bit_count()) & 1:
                acc -= term
            else:
                acc += term
            if b == 0:
                break
            b = (b - 1) & a
        masses[Formula(st.lang, a)] = acc
    return masses
