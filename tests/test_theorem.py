"""The paper's theorem at 8 and 12 propositions: a total belief structure and
its incidence-calculus translation give every formula the same interval.
Belief and plausibility are the ends of that interval, and the structure's
canonical document is the oracle's, byte for byte.

The structures and the reference intervals come from the benchmark's own
generator and oracle (``bench/gen.py``, ``bench/oracle.py``), which are
written apart from the package.
"""

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import gen  # noqa: E402
import oracle  # noqa: E402

from probstruct import (  # noqa: E402
    StructureKind,
    bel,
    ds_to_ic,
    equivalent,
    from_json,
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
