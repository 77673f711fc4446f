"""Seeded inputs for the benchmark: document models and formula text.

The benchmark makes every input here from its own `random.Random`, never
through the program's generators, so a change to `random_ic` or
`random_total_ds` cannot change what is measured.  Shapes are fixed by the
arguments (counts of atoms, worlds and blocks); the seed only decides which
atoms, worlds and weights fill them, so operation costs barely vary with
the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from oracle import Model, atom_text


def names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _weights(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    nums = [rng.randint(1, 9) for _ in range(count)]
    return tuple(Fraction(n, sum(nums)) for n in nums)


def _groups(rng: random.Random, items: list[int], k: int) -> list[list[int]]:
    """Split the items into k nonempty groups at random."""
    items = list(items)
    rng.shuffle(items)
    groups = [[x] for x in items[:k]]
    for x in items[k:]:
        groups[rng.randrange(k)].append(x)
    return groups


def ds_model(rng: random.Random, n_props: int, n_worlds: int, n_live: int, n_chi: int) -> Model:
    """A total ds structure: `n_live` atoms share the worlds, and the
    measurable blocks are `n_chi` groups of whole atom images."""
    n_atoms = 1 << n_props
    live = rng.sample(range(n_atoms), n_live)
    images = [0] * n_atoms
    for atom, worlds in zip(live, _groups(rng, list(range(n_worlds)), n_live)):
        images[atom] = sum(1 << i for i in worlds)
    chi = [sum(images[a] for a in group) for group in _groups(rng, live, n_chi)]
    return Model(
        "ds",
        names("p", n_props),
        names("w", n_worlds),
        tuple(1 << k for k in range(n_atoms)),
        tuple(images),
        tuple(chi),
        _weights(rng, n_chi),
    )


def ic_model(rng: random.Random, n_props: int, n_worlds: int, n_live: int, n_blocks: int) -> Model:
    """An ic structure: `n_live` atoms form `n_blocks` blocks that share the
    worlds, and every other atom is a block of its own with no worlds, the
    shape `ds_to_ic` gives."""
    n_atoms = 1 << n_props
    live = rng.sample(range(n_atoms), n_live)
    dead = sorted(set(range(n_atoms)) - set(live))
    blocks = [sum(1 << a for a in g) for g in _groups(rng, live, n_blocks)]
    images = [sum(1 << i for i in g) for g in _groups(rng, list(range(n_worlds)), n_blocks)]
    return Model(
        "ic",
        names("p", n_props),
        names("w", n_worlds),
        tuple(blocks + [1 << a for a in dead]),
        tuple(images + [0] * len(dead)),
        tuple(1 << i for i in range(n_worlds)),
        _weights(rng, n_worlds),
    )


def formula(rng: random.Random, props) -> str:
    """A short formula: two two-literal clauses, each maybe negated."""
    clauses = []
    for _ in range(2):
        a, b = (("~" if rng.random() < 0.5 else "") + rng.choice(props) for _ in range(2))
        clause = f"({a} {rng.choice('&|')} {b})"
        clauses.append(("~" if rng.random() < 0.3 else "") + clause)
    return f" {rng.choice('&|')} ".join(clauses)


def _spelling(rng: random.Random, props, mask: int) -> str:
    """Non-canonical text for an atom mask: atoms and literals shuffled."""
    atoms = [k for k in range(1 << len(props)) if mask >> k & 1]
    rng.shuffle(atoms)
    terms = []
    for k in atoms:
        literals = atom_text(props, k).split(" & ")
        rng.shuffle(literals)
        terms.append("(" + " & ".join(literals) + ")")
    return " | ".join(terms)


def noncanonical(model: Model, rng: random.Random) -> str:
    """Valid document text for the model that is not canonical: fields,
    keys, blocks and world lists reordered, formulas respelled, rationals
    not in lowest terms, and compact JSON."""

    def world_list(bits: int) -> list[str]:
        out = [w for i, w in enumerate(model.worlds) if bits >> i & 1]
        rng.shuffle(out)
        return out

    def rational(w: Fraction) -> str:
        f = rng.randint(2, 4)
        return f"{w.numerator * f}/{w.denominator * f}"

    def shuffled(pairs) -> dict:
        pairs = list(pairs)
        rng.shuffle(pairs)
        return dict(pairs)

    doc = {"kind": model.kind, "propositions": list(model.props), "worlds": list(model.worlds)}
    if model.kind == "ds":
        order = list(range(len(model.mblocks)))
        rng.shuffle(order)
        doc["chi_basis"] = [world_list(model.mblocks[j]) for j in order]
        doc["measure"] = shuffled((str(i), rational(model.weights[j])) for i, j in enumerate(order))
    else:
        doc["measure"] = shuffled((str(i), rational(w)) for i, w in enumerate(model.weights))
        order = list(range(len(model.fblocks)))
        rng.shuffle(order)
        doc["psi_basis"] = [_spelling(rng, model.props, model.fblocks[j]) for j in order]
    doc["incidence"] = shuffled(
        (_spelling(rng, model.props, block), world_list(image))
        for block, image in zip(model.fblocks, model.images)
    )
    return json.dumps(shuffled(doc.items()), separators=(",", ":")) + "\n"
