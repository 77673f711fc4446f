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

Both directions read structures only through their mass functions
(``structures._masses``), which determine every interval, and build their
results from masks, through ``_checked``, over shared sample spaces: the
language's atom worlds (``_atoms.space``) or ``w1..wk`` (``_numbered``).
``equivalent`` compares the mass functions and names its witness from their
difference; the witness's two intervals come from ``interval``.  Seeded
generators plus ``round_trip_check`` drive randomized testing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, reduce
from typing import Optional

from .errors import LanguageMismatchError, NotTotalError, ValidationError
from .logic import Formula, FormulaAlgebra, Language, _sorted_blocks, format_formula, full_algebra
from .measure import (
    MAX_WORLDS, MeasureFn, ProbabilitySpace, SampleSpace, SetAlgebra, WorldSet, discrete_algebra,
)
from .structures import (
    IncidenceMap,
    Interval,
    ProbabilityStructure,
    StructureKind,
    _checked,
    _masses,
    interval,
)
from .value import Value, low_bit, partition_faults, require_type, setfield

_ATOM_WORLD_PROPS = MAX_WORLDS.bit_length() - 1  # the most propositions whose atoms can each be a world


class EquivalenceReport(Value):
    """Outcome of comparing two structures formula by formula.

    ``witness`` is the first formula (in atom-bitmask order) whose intervals
    disagree, together with both intervals; ``checked_count`` is its place in
    that order, counting from 1, or every formula (2**n_atoms) if none does.
    """

    _fields = ("equivalent", "checked_count", "witness")
    __slots__ = _fields

    def __init__(
        self,
        equivalent: bool,
        checked_count: int,
        witness: Optional[tuple[Formula, Interval, Interval]],
    ):
        setfield(self, "equivalent", equivalent)
        setfield(self, "checked_count", checked_count)
        setfield(self, "witness", witness)


class GenParams(Value):
    """Bounds for the seeded random generators: at most 6 propositions, as ``ic_to_ds``
    makes a world of each atom, and at most ``MAX_WORLDS`` worlds."""

    _fields = ("n_props", "n_worlds", "seed")
    __slots__ = _fields

    def __init__(self, n_props: int, n_worlds: int, seed: int):
        for name, value in zip(self._fields, (n_props, n_worlds, seed)):
            require_type(value, int, name)
        for name, value, top in (("n_props", n_props, _ATOM_WORLD_PROPS), ("n_worlds", n_worlds, MAX_WORLDS)):
            if not 1 <= value <= top:
                raise ValidationError(f"{name} must be 1..{top}, got {value}")
        if not 0 <= seed < 1 << 64:
            raise ValidationError("seed must be a 64-bit nonnegative integer")
        setfield(self, "n_props", n_props)
        setfield(self, "n_worlds", n_worlds)
        setfield(self, "seed", seed)


@cache
def _numbered(k: int) -> tuple[SampleSpace, SetAlgebra]:
    """The worlds ``w1..wk`` and their discrete algebra, built and checked once per size ``k``
    (1 to ``MAX_WORLDS``: ``SampleSpace`` refuses any other, and nothing refused is kept)."""
    space = SampleSpace(tuple(f"w{j + 1}" for j in range(k)))
    return space, discrete_algebra(space)


def ic_to_ds(ic: ProbabilityStructure) -> ProbabilityStructure:
    """Lift an incidence-calculus structure to an equivalent total belief
    structure over the language's atoms.

    Every atom becomes a world, so a language of more than 6 propositions is
    refused before any world is named, as ``SampleSpace`` would refuse them.
    """
    _checked(ic, StructureKind.IC, "ic_to_ds")
    lang = ic.lang
    if len(lang.props) > _ATOM_WORLD_PROPS:
        raise ValidationError(f"a sample space needs between 1 and {MAX_WORLDS} worlds, got {lang.n_atoms}")
    space = lang._atoms.space  # world k is atom k, named and checked once per proposition list
    pairs, den = _masses(ic)
    chi = SetAlgebra._of(space, tuple(mask for mask, _ in pairs))._check()
    ratios = tuple((num // g, den // g) for _, num in pairs for g in (math.gcd(num, den),))  # lowest terms
    ps = ProbabilitySpace(space, chi, MeasureFn._of(ratios))
    inc = IncidenceMap._of(space, lang._atoms.singles)
    return _checked(ProbabilityStructure(ps, lang, full_algebra(lang), inc, StructureKind.DS))


def ds_to_ic(ds: ProbabilityStructure) -> ProbabilityStructure:
    """Collapse a total belief structure to an equivalent incidence-calculus
    structure with one world per measurable basis block."""
    _checked(ds, StructureKind.DS, "ds_to_ic")
    masks = [mask for mask, _ in _masses(ds)[0]]
    for i, _ in partition_faults(masks, sum(masks)):  # as in ``is_total``; no mask is empty
        j = next(j for j in range(i) if masks[j] & masks[i])  # the first block that block i meets
        a, b = (WorldSet(ds.ps.space, ds.ps.algebra.masks[k]) for k in (j, i))
        shared = format_formula(Formula(ds.lang, masks[j] & masks[i]))
        raise NotTotalError(f"ds_to_ic requires a total structure, but the focal masks of measurable blocks "
                            f"{a} and {b} share the atoms {shared}")
    space, chi = _numbered(len(masks))
    # lowest atom -> (atom mask, image); the masks of a total structure are disjoint, and each
    # atom outside them is a block of its own with no worlds, whose mask the language shares
    blocks = {low_bit(m).bit_length() - 1: (m, 1 << j) for j, m in enumerate(masks)}
    dead = bin(ds.lang.full_mask & ~sum(masks))[:1:-1]  # character k is bit k
    blocks.update({k: (m, 0) for k, (bit, m) in enumerate(zip(dead, ds.lang._atoms.singles)) if bit == "1"})
    atoms, images = zip(*(blocks[k] for k in sorted(blocks)))
    psi = FormulaAlgebra._of(ds.lang, atoms)._check()
    ps = ProbabilitySpace(space, chi, ds.ps.mu)  # world j weighs as block j
    return _checked(ProbabilityStructure(ps, ds.lang, psi, IncidenceMap._of(space, images), StructureKind.IC))


def _net(pairs) -> dict[int, int]:
    """The (mask, amount) pairs summed per mask, without the masks that sum to 0."""
    net: dict[int, int] = {}
    for mask, amount in pairs:
        if amount:  # a zero amount is never hashed: at 16 propositions a mask is 8 KB
            net[mask] = net.get(mask, 0) + amount
    return {mask: amount for mask, amount in net.items() if amount}


def _lowest_split(group: list[tuple[int, int]], start: int = 1) -> int:
    """The lowest bit t (as a mask) at which the masks of ``group`` that hold t
    and agree below it have a nonzero sum, or 0.  The masks, all alike below
    ``start``, are walked as a binary trie from bit 0 up."""
    first = group[0][0]
    split = low_bit(reduce(int.__or__, [m ^ first for m, _ in group]))  # where they part
    shared = first & -start & (split - 1 if split else first)  # held by all, up to the split
    found = [low_bit(shared)] if shared and sum(d for _, d in group) else []
    for side in (0, split) if split else ():
        found.append(_lowest_split([p for p in group if p[0] & split == side], split))
    return min(filter(None, found), default=0)


def _witness_mask(diff: dict[int, int]) -> int:
    """The first formula, in atom-bitmask order, whose intervals differ when the
    masses differ by the nonzero ``diff``: lower bounds first differ at its
    smallest mask, upper bounds at H, 0 if ``diff`` does not sum to 0, else the
    smallest nonempty atom set with a nonzero sum over the masks holding it.
    H's top bit t is the lowest split; below t it is 0 if the masses holding t
    sum to nonzero, else H of those masses cut below t."""
    high, rest = 0, diff
    while not sum(rest.values()):
        t = _lowest_split(list(rest.items()))
        high |= t
        rest = _net((mask & (t - 1), d) for mask, d in rest.items() if mask & t)
    return min(min(diff), high)


def equivalent(a: ProbabilityStructure, b: ProbabilityStructure) -> EquivalenceReport:
    """Compare the interval of every formula of the shared language.

    Exact equality, no tolerance.  Equal mass functions mean equal intervals
    everywhere; otherwise the difference of the two names the first formula,
    in atom-bitmask order, whose intervals differ.
    """
    require_type(a, ProbabilityStructure, "structure")
    require_type(b, ProbabilityStructure, "structure")
    (mass_a, den_a), (mass_b, den_b) = _masses(a), _masses(b)
    if a.lang != b.lang:
        raise LanguageMismatchError("structures are over different languages")
    den = math.lcm(den_a, den_b)  # the mass of a minus that of b, over ``den``, per atom mask:
    up_a, up_b = den // den_a, den // den_b
    diff = _net([(m, n * up_a) for m, n in mass_a] + [(m, -n * up_b) for m, n in mass_b])
    if not diff:
        return EquivalenceReport(True, a.lang.full_mask + 1, None)
    m = _witness_mask(diff)
    f = Formula(a.lang, m)
    return EquivalenceReport(False, m + 1, (f, interval(a, f), interval(b, f)))


def round_trip_check(a: ProbabilityStructure) -> EquivalenceReport:
    """Translate out and back, then compare against the original."""
    require_type(a, ProbabilityStructure, "structure")
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
    require_type(params, GenParams, "generator parameters")
    rng = random.Random(params.seed)
    lang = Language(tuple(f"p{i + 1}" for i in range(params.n_props)))
    space = _numbered(params.n_worlds)[0]

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
    require_type(params, GenParams, "generator parameters")
    rng = random.Random(params.seed)
    lang = Language(tuple(f"p{i + 1}" for i in range(params.n_props)))
    space = _numbered(params.n_worlds)[0]

    atom_bits = [0] * lang.n_atoms
    for i in range(space.size):
        atom_bits[rng.randrange(lang.n_atoms)] |= 1 << i
    atom_images = tuple(WorldSet(space, bits) for bits in atom_bits)

    # grouping whole images guarantees every measurable block is a union of
    # incidences, i.e. the structure is total
    nonempty = [bits for bits in atom_bits if bits]
    block_bits = sorted(_random_grouping(rng, nonempty), key=low_bit)
    chi_basis = tuple(WorldSet(space, bits) for bits in block_bits)

    return ProbabilityStructure.ds(
        space, chi_basis, _random_weights(rng, len(chi_basis)), lang, atom_images
    )
