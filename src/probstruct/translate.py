"""Translations between the two structure kinds, and equivalence checking.

Both directions preserve the probability interval of every formula:

* ``ic_to_ds`` lifts an incidence-calculus structure to a belief structure
  whose worlds are the language's atoms.  The formula algebra becomes the
  measurable algebra (an atom set is a world set, bit for bit), each basis
  block weighs as much as its incidence, and incidence on the new structure
  is the identity.  The result is always total.
* ``ds_to_ic`` collapses a *total* belief structure onto one world per
  measurable basis block.  A formula's incidence becomes defined exactly
  when its old incidence was measurable: the new formula algebra's blocks
  are the focal masks, with the dead atoms (empty incidence) left as
  singleton blocks.

Both directions and ``equivalent`` read structures only through their mass
functions (``structures._focal_weights``), which determine every interval;
``equivalent`` scans formulas in order only to name the first witness.
Seeded generators plus ``round_trip_check`` drive randomized testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import LanguageMismatchError, NotTotalError, ValidationError, WrongKindError
from .logic import Formula, FormulaAlgebra, Language, _sorted_blocks
from .measure import SampleSpace, WorldSet
from .structures import (
    Interval,
    ProbabilityStructure,
    StructureKind,
    _focal_weights,
    interval,
    is_total,
)

MAX_EQUIV_PROPS = 4


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two structures formula by formula.

    ``witness`` is the first formula (in atom-bitmask order) whose intervals
    disagree, together with both intervals; ``checked_count`` is how many
    formulas were compared before stopping.
    """

    equivalent: bool
    checked_count: int
    witness: Optional[tuple[Formula, Interval, Interval]]


@dataclass(frozen=True)
class GenParams:
    """Bounds for the seeded random generators."""

    n_props: int
    n_worlds: int
    seed: int

    def __post_init__(self):
        if not 1 <= self.n_props <= MAX_EQUIV_PROPS:
            raise ValidationError(f"n_props must be 1..{MAX_EQUIV_PROPS}, got {self.n_props}")
        if not 1 <= self.n_worlds <= 8:
            raise ValidationError(f"n_worlds must be 1..8, got {self.n_worlds}")
        if not 0 <= self.seed < 1 << 64:
            raise ValidationError("seed must be a 64-bit nonnegative integer")


def _atom_world_name(lang: Language, index: int) -> str:
    # identifier-safe rendering of the atom's literals, e.g. "notg_d"
    parts = []
    for j, name in enumerate(lang.props):
        parts.append(name if (index >> j) & 1 else "not" + name)
    return "_".join(parts)


def ic_to_ds(ic: ProbabilityStructure) -> ProbabilityStructure:
    """Lift an incidence-calculus structure to an equivalent total belief
    structure over the language's atoms.

    The language must have at most 6 propositions, since every atom becomes
    a world.
    """
    if ic.kind is not StructureKind.IC:
        raise WrongKindError(f"ic_to_ds requires an ic structure, got {ic.kind.value}")
    lang = ic.lang
    space = SampleSpace(tuple(_atom_world_name(lang, k) for k in range(lang.n_atoms)))
    masks, weights = zip(*_focal_weights(ic))
    chi_basis = tuple(WorldSet(space, mask) for mask in masks)
    atom_images = tuple(WorldSet(space, 1 << k) for k in range(lang.n_atoms))
    return ProbabilityStructure.ds(space, chi_basis, weights, lang, atom_images)


def ds_to_ic(ds: ProbabilityStructure) -> ProbabilityStructure:
    """Collapse a total belief structure to an equivalent incidence-calculus
    structure with one world per measurable basis block."""
    if ds.kind is not StructureKind.DS:
        raise WrongKindError(f"ds_to_ic requires a ds structure, got {ds.kind.value}")
    if not is_total(ds):
        raise NotTotalError("ds_to_ic requires a total structure")
    masks, weights = zip(*_focal_weights(ds))
    space = SampleSpace(tuple(f"w{j + 1}" for j in range(len(masks))))
    blocks = {mask: 1 << j for j, mask in enumerate(masks)}  # atom mask -> new world bits
    dead = ds.lang.full_mask & ~sum(masks)  # the masks of a total structure are disjoint
    blocks.update({1 << k: 0 for k in range(ds.lang.n_atoms) if (dead >> k) & 1})

    basis = _sorted_blocks(blocks.keys(), ds.lang)
    psi = FormulaAlgebra(ds.lang, basis)
    images = tuple(WorldSet(space, blocks[block.atoms]) for block in basis)
    return ProbabilityStructure.ic(space, weights, psi, images)


def equivalent(a: ProbabilityStructure, b: ProbabilityStructure) -> EquivalenceReport:
    """Compare the interval of every formula of the shared language.

    Exact equality, no tolerance.  Equal mass functions mean equal
    intervals everywhere; otherwise formulas are scanned in atom-bitmask
    order up to the first disagreement.
    """
    if a.lang != b.lang:
        raise LanguageMismatchError("structures are over different languages")
    if len(a.lang.props) > MAX_EQUIV_PROPS:
        raise ValidationError(
            f"language too large for brute-force comparison "
            f"(max {MAX_EQUIV_PROPS} propositions)"
        )
    diff: dict[int, Fraction] = {}  # mass of a minus mass of b, per atom mask
    for sign, st in ((1, a), (-1, b)):
        for mask, w in _focal_weights(st):
            diff[mask] = diff.get(mask, 0) + sign * w
    diff = {mask: d for mask, d in diff.items() if d}
    full = a.lang.full_mask
    if not diff:
        return EquivalenceReport(True, full + 1, None)
    # lower probabilities differ on x exactly when the differences over the
    # masks inside x do not cancel; the smallest mask in diff contains no
    # other, so the scan stops there at the latest
    for m in range(full + 1):
        if any(sum(d for mask, d in diff.items() if mask & ~x == 0) for x in (m, full ^ m)):
            break
    f = Formula(a.lang, m)
    return EquivalenceReport(False, m + 1, (f, interval(a, f), interval(b, f)))


def round_trip_check(a: ProbabilityStructure) -> EquivalenceReport:
    """Translate out and back, then compare against the original."""
    if a.kind is StructureKind.IC:
        return equivalent(a, ds_to_ic(ic_to_ds(a)))
    return equivalent(a, ic_to_ds(ds_to_ic(a)))


def _random_weights(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    nums = [rng.randint(1, 9) for _ in range(count)]
    den = sum(nums)
    return tuple(Fraction(n, den) for n in nums)


def _random_grouping(rng: random.Random, items: list[int]) -> list[int]:
    """Union the bitmask items into 1..len(items) nonempty groups."""
    k = rng.randint(1, len(items))
    groups: dict[int, int] = {}
    for bits in items:
        urn = rng.randrange(k)
        groups[urn] = groups.get(urn, 0) | bits
    return list(groups.values())


def random_ic(params: GenParams) -> ProbabilityStructure:
    """Seeded random incidence-calculus structure (deterministic per seed)."""
    rng = random.Random(params.seed)
    lang = Language(tuple(f"p{i + 1}" for i in range(params.n_props)))
    space = SampleSpace(tuple(f"w{i + 1}" for i in range(params.n_worlds)))

    atom_masks = _random_grouping(rng, [1 << k for k in range(lang.n_atoms)])
    basis = _sorted_blocks(atom_masks, lang)
    psi = FormulaAlgebra(lang, basis)

    image_bits = [0] * len(basis)
    for i in range(space.size):
        image_bits[rng.randrange(len(basis))] |= 1 << i
    images = tuple(WorldSet(space, bits) for bits in image_bits)

    return ProbabilityStructure.ic(space, _random_weights(rng, space.size), psi, images)


def random_total_ds(params: GenParams) -> ProbabilityStructure:
    """Seeded random total belief structure (deterministic per seed)."""
    rng = random.Random(params.seed)
    lang = Language(tuple(f"p{i + 1}" for i in range(params.n_props)))
    space = SampleSpace(tuple(f"w{i + 1}" for i in range(params.n_worlds)))

    atom_bits = [0] * lang.n_atoms
    for i in range(space.size):
        atom_bits[rng.randrange(lang.n_atoms)] |= 1 << i
    atom_images = tuple(WorldSet(space, bits) for bits in atom_bits)

    # grouping whole images guarantees every measurable block is a union of
    # incidences, i.e. the structure is total
    nonempty = [bits for bits in atom_bits if bits]
    block_bits = sorted(_random_grouping(rng, nonempty), key=lambda b: b & -b)
    chi_basis = tuple(WorldSet(space, bits) for bits in block_bits)

    return ProbabilityStructure.ds(
        space, chi_basis, _random_weights(rng, len(chi_basis)), lang, atom_images
    )
