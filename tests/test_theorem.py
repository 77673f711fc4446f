"""The paper's theorem at 8 and 12 propositions: a total belief structure and
its incidence-calculus translation give every formula the same interval.
Belief and plausibility are the ends of that interval, and the structure's
canonical document is the oracle's, byte for byte.  A property draws
structures of both kinds and many shapes, and holds the program to the
oracle on each; documents loaded in turn over one language agree with it
through the language's shared atom tables.

The structures and the reference intervals come from the benchmark's own
generator and oracle (``bench/gen.py``, ``bench/oracle.py``), which are
written apart from the package.
"""

import dataclasses
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
import oracle  # noqa: E402

import probstruct.logic as logic  # noqa: E402
from probstruct import (  # noqa: E402
    DocumentError,
    Formula,
    StructureKind,
    bel,
    ds_to_ic,
    equivalent,
    from_json,
    ic_to_ds,
    interval,
    parse_formula,
    plb,
    to_json,
)


def _agrees(st, model, text):
    """``interval`` of the formula ``text`` on ``st``, and on a ds ``bel`` and
    ``plb``, equal the oracle's interval on ``model``."""
    f = parse_formula(text, st.lang)
    assert f.atoms == oracle.evaluate(text, model.props)
    expected = oracle.interval(model, f.atoms)
    got = interval(st, f)
    assert (got.lo, got.hi) == expected
    if st.kind is StructureKind.DS:
        assert (bel(st, f), plb(st, f)) == expected


@pytest.mark.parametrize("n_props", [8, 12])
def test_translation_keeps_every_interval(n_props):
    rng = random.Random(700 + n_props)
    model = gen.ds_model(rng, n_props, 64, 48, 16)
    text = oracle.canonical(model)
    ds = from_json(text)
    assert to_json(ds) == text
    ic = ds_to_ic(ds)
    report = equivalent(ds, ic)
    assert (report.equivalent, report.checked_count, report.witness) == (True, model.full + 1, None)

    ic_model = oracle.read(to_json(ic))
    for _ in range(6):
        text = gen.formula(rng, model.props)
        _agrees(ds, model, text)
        _agrees(ic, ic_model, text)

    # move some weight from one measurable block to another: the structures
    # part, and the witness is a formula on which the oracle sees them part
    weights = list(model.weights)
    step = min(weights[0], Fraction(1, 97))
    weights[0] -= step
    weights[1] += step
    moved = dataclasses.replace(model, weights=tuple(weights))
    report = equivalent(ic, from_json(oracle.canonical(moved)))
    assert not report.equivalent
    f, in_ic, in_moved = report.witness
    assert report.checked_count == f.atoms + 1
    assert in_ic != in_moved
    assert (in_ic.lo, in_ic.hi) == oracle.interval(model, f.atoms)
    assert (in_moved.lo, in_moved.hi) == oracle.interval(moved, f.atoms)


@strategies.composite
def models(draw):
    """A ``gen`` model of either kind at 1 to 8 propositions and 1 to 64
    worlds, with dead atoms, one-block algebras and a single world among the
    shapes, and the seed that fills it."""
    n_props = draw(strategies.integers(1, 8))
    n_atoms, n_worlds = 1 << n_props, draw(strategies.integers(1, 64))
    seed = draw(strategies.integers(0, 2**32))
    rng = random.Random(seed)
    if draw(strategies.sampled_from(["ds", "ic"])) == "ds":
        n_live = draw(strategies.integers(1, min(n_atoms, n_worlds)))  # each live atom has a world
        n_chi = draw(strategies.integers(1, n_live))
        return gen.ds_model(rng, n_props, n_worlds, n_live, n_chi), seed
    n_blocks = draw(strategies.integers(1, min(n_atoms, n_worlds)))  # each live block has a world
    n_live = draw(strategies.integers(n_blocks, n_atoms))
    return gen.ic_model(rng, n_props, n_worlds, n_live, n_blocks), seed


def _at_twelve(kind, seed, *shape):
    make = gen.ds_model if kind == "ds" else gen.ic_model
    return make(random.Random(seed), 12, *shape), seed


@settings(max_examples=100, deadline=None)
@given(models())
@example(_at_twelve("ds", 2201, 64, 48, 16))  # the benchmark's shapes
@example(_at_twelve("ic", 2202, 64, 4096 - 448, 64))
@example(_at_twelve("ds", 2203, 1, 1, 1))  # one world
@example(_at_twelve("ic", 2204, 1, 4096, 1))  # one block, "true"
def test_the_program_agrees_with_the_independent_oracle(case):
    """Canonical and non-canonical text load to structures that write the
    oracle's canonical bytes (their blocks may be in other orders), and give
    the oracle's interval, belief and plausibility for seeded formulas and
    atom sets.  ``gen.noncanonical`` respells each block by a scan of every
    atom (1.5 s for a 12-proposition ds), so only shapes up to 8 are respelled.
    A structure is equivalent to its translation (``ic_to_ds`` makes a world
    of each atom, so an ic is lifted up to 6 propositions), and after weight
    moves between two measurable blocks the witness is the first formula on
    which the oracle's intervals differ."""
    model, seed = case
    rng = random.Random(seed)
    text = oracle.canonical(model)
    st = from_json(text)
    assert to_json(st) == text
    if len(model.props) <= 8:
        assert to_json(from_json(gen.noncanonical(model, rng))) == text
    formulas = [parse_formula(gen.formula(rng, model.props), st.lang) for _ in range(4)]
    formulas += [Formula(st.lang, rng.getrandbits(model.n_atoms)) for _ in range(4)]
    for f in formulas:
        expected = oracle.interval(model, f.atoms)
        got = interval(st, f)
        assert (got.lo, got.hi) == expected
        if st.kind is StructureKind.DS:
            assert (bel(st, f), plb(st, f)) == expected
    if st.kind is StructureKind.DS:  # ``gen.ds_model`` makes total structures
        translation = ds_to_ic(st)
    else:
        translation = ic_to_ds(st) if len(model.props) <= 6 else None
    if translation is not None:
        report = equivalent(st, translation)
        assert (report.equivalent, report.checked_count, report.witness) == (True, 2**st.lang.n_atoms, None)
    _the_witness_of_moved_weight_is_the_first(st, model, rng)


def _the_witness_of_moved_weight_is_the_first(st, model, rng):
    """Move weight between two measurable blocks met by different formula
    blocks (so the masses differ); the witness is a formula on which the
    oracle's intervals differ, and they agree on every mask below it.

    The oracle reads a mask only through its live atoms (those of the blocks
    with worlds), so the masks below the witness are checked as the sets of
    live atoms below it.  They differ at the lowest atom ``a`` met by either
    block, so the witness is at most ``2**a``; the pair is drawn among those
    with at most 10 live atoms up to ``a``, and the pair holding the lowest
    live atom is always one of them."""
    live = sum(block for block, _ in model.live)
    met = [sum(block for block, image in model.live if image & worlds) for worlds in model.mblocks]
    at_most = {}  # 2**a for each pair that differs and keeps the walk small
    for i, j in itertools.permutations(range(len(met)), 2):
        atom = (met[i] | met[j]) & -(met[i] | met[j])
        if met[i] != met[j] and (live & (2 * atom - 1)).bit_count() <= 10:
            at_most[i, j] = atom
    if not at_most:  # one measurable block, or all met by one formula block
        return
    i, j = rng.choice(sorted(at_most))
    weights = list(model.weights)
    step = min(weights[i], Fraction(1, 97))
    weights[i] -= step
    weights[j] += step
    moved = dataclasses.replace(model, weights=tuple(weights))
    report = equivalent(st, from_json(oracle.canonical(moved)))
    assert not report.equivalent
    f, in_st, in_moved = report.witness
    assert report.checked_count == f.atoms + 1 and f.atoms <= at_most[i, j]
    assert (in_st.lo, in_st.hi) == oracle.interval(model, f.atoms) != oracle.interval(moved, f.atoms)
    assert (in_moved.lo, in_moved.hi) == oracle.interval(moved, f.atoms)
    below = live & (2 * at_most[i, j] - 1)
    mask = 0
    while mask < f.atoms:  # every set of live atoms below the witness, in increasing order
        assert oracle.interval(model, mask) == oracle.interval(moved, mask)
        mask = (mask - below) & below
        if not mask:
            break


def test_documents_over_one_language_agree_through_its_shared_tables(monkeypatch):
    """ds and ic documents over one language, canonical and not, are loaded in
    turn, with one whose last key names two atoms among them: its first key is
    an atom as ``to_json`` spells it, so its keys are read term by term from the
    shared index, and it is refused.  The first structure is dropped partway.
    Each structure writes the oracle's bytes and gives its intervals; each table
    is built once, and afterwards every structure holds the same, unchanged."""
    rng = random.Random(2505)
    models = [gen.ds_model(rng, 8, 64, 48, 16), gen.ic_model(rng, 8, 64, 128, 64)]
    models += [gen.ds_model(rng, 8, 8, 8, 3), gen.ic_model(rng, 8, 4, 256, 4)]
    props = tuple(f"shared{j}" for j in range(8))  # names no other test's language holds
    models = [dataclasses.replace(model, props=props) for model in models]
    canon = [oracle.canonical(m) for m in models]
    bad = json.loads(canon[0])
    *_, before, last = bad["incidence"]
    bad["incidence"][before + " | " + last] = bad["incidence"].pop(last)
    two_atoms = oracle.formula_text(models[0].props, 3 << models[0].n_atoms - 2)
    steps = [(0, canon[0]), (1, canon[1]), (2, gen.noncanonical(models[2], rng)), (None, json.dumps(bad))]
    steps += [(3, canon[3]), (1, gen.noncanonical(models[1], rng)), (0, gen.noncanonical(models[0], rng))]
    steps += [(2, canon[2]), (3, gen.noncanonical(models[3], rng))]
    built, build = [], logic._atom_texts
    monkeypatch.setattr(logic, "_atom_texts", lambda lang: built.append(lang.props) or build(lang))
    loaded = []
    for step, (i, text) in enumerate(steps):
        if step == 3:  # every table is built by now
            tables = loaded[0].lang._atoms
            kept = (tables.spelled, dict(tables.index), tables.singles)
            del loaded[0]
        if i is None:
            with pytest.raises(DocumentError) as refused:
                from_json(text)
            assert str(refused.value) == f"ds incidence keys must be single atoms, got {two_atoms!r}"
            continue
        st = from_json(text)
        assert to_json(st) == canon[i]
        for _ in range(3):
            f = parse_formula(gen.formula(rng, models[i].props), st.lang)
            got = interval(st, f)
            assert (got.lo, got.hi) == oracle.interval(models[i], f.atoms)
        loaded.append(st)
    assert built == [props]
    assert all(st.lang._atoms is tables for st in loaded)
    assert (tables.spelled, tables.index, tables.singles) == kept
    assert tables.spelled is kept[0] and tables.singles is kept[2]
    assert all(st.psi.masks is tables.singles for st in loaded if st.kind is StructureKind.DS)
