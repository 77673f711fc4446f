"""Reference answers for the benchmark, written apart from probstruct.

Nothing here imports the program.  The oracle reads document text into a
`Model`, evaluates formulas over atoms with its own parser, computes exact
intervals from the model, compares two models by brute force and writes
the canonical document text the README's format rules describe.

A model keeps both structure kinds in one shape: formula blocks (atom
masks) with their world images, and measurable blocks (world masks) with
their weights.  A ds model's formula blocks are the single atoms; an ic
model's measurable blocks are the single worlds.  Then for any formula the
lower incidence is the union of the images of the formula blocks it
contains, `lo` is the weight of the measurable blocks inside that union and
`hi` is 1 - `lo` of the negation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

# The README's coats example, both kinds, written out by hand.
COATS_DS = """{"kind": "ds", "propositions": ["g", "d"], "worlds": ["s1", "s2", "s3", "s4"],
 "chi_basis": [["s1", "s2"], ["s3", "s4"]], "measure": {"0": "1/2", "1": "1/2"},
 "incidence": {"(~g & ~d)": ["s1", "s2"], "(g & ~d)": ["s3"], "(~g & d)": [], "(g & d)": ["s4"]}}
"""
COATS_IC = """{"kind": "ic", "propositions": ["g", "d"], "worlds": ["w1", "w2"],
 "measure": {"0": "1/2", "1": "1/2"},
 "psi_basis": ["(~g & ~d)", "(g & ~d) | (g & d)", "(~g & d)"],
 "incidence": {"(~g & ~d)": ["w1"], "(g & ~d) | (g & d)": ["w2"], "(~g & d)": []}}
"""


@dataclass(frozen=True)
class Model:
    kind: str  # "ic" or "ds"
    props: tuple[str, ...]
    worlds: tuple[str, ...]
    fblocks: tuple[int, ...]  # formula blocks as atom masks
    images: tuple[int, ...]  # world mask of each formula block
    mblocks: tuple[int, ...]  # measurable blocks as world masks
    weights: tuple[Fraction, ...]  # weight of each measurable block

    @property
    def n_atoms(self) -> int:
        return 1 << len(self.props)

    @property
    def full(self) -> int:
        return (1 << self.n_atoms) - 1

    @cached_property
    def live(self) -> tuple[tuple[int, int], ...]:
        """The formula blocks with a nonempty image, with that image."""
        return tuple((b, i) for b, i in zip(self.fblocks, self.images) if i)


# --- formulas ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([~&|()]))")


@lru_cache(maxsize=None)
def prop_masks(n_props: int) -> tuple[int, ...]:
    """For each proposition, the mask of the atoms on which it is true."""
    masks = [0] * n_props
    for k in range(1 << n_props):
        for j in range(n_props):
            if k >> j & 1:
                masks[j] |= 1 << k
    return tuple(masks)


def evaluate(text: str, props) -> int:
    """Atom mask on which the formula text is true.

    Grammar: `~` binds tightest, then `&`, then `|`; `true` and `false` are
    constants.  A run of `~` is folded by parity, so long runs cost no
    recursion.
    """
    props = tuple(props)
    masks = dict(zip(props, prop_masks(len(props))))
    full = (1 << (1 << len(props))) - 1
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad character at {pos} in {text!r}")
            break
        tokens.append(m.group(1) or m.group(2))
        pos = m.end()
    i = 0

    def expr() -> int:
        nonlocal i
        value = term()
        while i < len(tokens) and tokens[i] == "|":
            i += 1
            value |= term()
        return value

    def term() -> int:
        nonlocal i
        value = factor()
        while i < len(tokens) and tokens[i] == "&":
            i += 1
            value &= factor()
        return value

    def factor() -> int:
        nonlocal i
        negations = 0
        while i < len(tokens) and tokens[i] == "~":
            negations += 1
            i += 1
        if i == len(tokens):
            raise ValueError(f"unexpected end of {text!r}")
        tok = tokens[i]
        i += 1
        if tok == "(":
            value = expr()
            if i == len(tokens) or tokens[i] != ")":
                raise ValueError(f"expected ')' in {text!r}")
            i += 1
        elif tok == "true":
            value = full
        elif tok == "false":
            value = 0
        elif tok in masks:
            value = masks[tok]
        else:
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        return full ^ value if negations & 1 else value

    value = expr()
    if i != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return value


def atom_text(props, k: int) -> str:
    return " & ".join(p if k >> j & 1 else "~" + p for j, p in enumerate(props))


def formula_text(props, mask: int) -> str:
    """Canonical text: the formula's atoms in index order, joined by `|`."""
    if mask == 0:
        return "false"
    if mask == (1 << (1 << len(props))) - 1:
        return "true"
    wrap = len(props) > 1
    terms = []
    while mask:
        low = mask & -mask
        text = atom_text(props, low.bit_length() - 1)
        terms.append(f"({text})" if wrap else text)
        mask ^= low
    return " | ".join(terms)


# --- intervals -----------------------------------------------------------------


def lower(model: Model, mask: int) -> Fraction:
    """Weight of the measurable blocks inside the formula's lower incidence."""
    inc = 0
    for block, image in model.live:
        if block & ~mask == 0:
            inc |= image
    return sum((w for b, w in zip(model.mblocks, model.weights) if b & ~inc == 0), Fraction(0))


def interval(model: Model, mask: int) -> tuple[Fraction, Fraction]:
    return lower(model, mask), 1 - lower(model, model.full ^ mask)


def interval_text(lo: Fraction, hi: Fraction) -> str:
    return f"[{lo}, {hi}]"


def compare(a: Model, b: Model):
    """Brute-force equivalence: (equivalent, checked_count, witness).

    The witness is the first atom mask whose intervals differ, with both
    intervals, or None.
    """
    for m in range(a.full + 1):
        ia, ib = interval(a, m), interval(b, m)
        if ia != ib:
            return False, m + 1, (m, ia, ib)
    return True, a.full + 1, None


def mass_problems(model: Model, masses: dict[int, Fraction]) -> list[str]:
    """Why `masses` is not the Mobius inverse of the model's belief."""
    problems = []
    if any(v < 0 for v in masses.values()):
        problems.append("negative mass")
    if sum(masses.values()) != 1:
        problems.append(f"masses sum to {sum(masses.values())}")
    for m in range(model.full + 1):
        total = Fraction(0)
        sub = m
        while True:
            total += masses.get(sub, 0)
            if sub == 0:
                break
            sub = (sub - 1) & m
        if total != lower(model, m):
            problems.append(f"bel of mask {m} is {lower(model, m)}, masses give {total}")
            break
    return problems


# --- documents -----------------------------------------------------------------


def _names(worlds, bits: int) -> list[str]:
    return [w for i, w in enumerate(worlds) if bits >> i & 1]


def _lowest(bits: int) -> int:
    return bits & -bits


def canonical(model: Model) -> str:
    """Canonical document text: blocks ordered by their lowest element,
    rationals in lowest terms, fixed key order, two-space indentation."""
    doc: dict = {"kind": model.kind, "propositions": list(model.props), "worlds": list(model.worlds)}
    if model.kind == "ds":
        order = sorted(range(len(model.mblocks)), key=lambda j: _lowest(model.mblocks[j]))
        doc["chi_basis"] = [_names(model.worlds, model.mblocks[j]) for j in order]
        doc["measure"] = {str(i): str(model.weights[j]) for i, j in enumerate(order)}
        by_atom = sorted(zip(model.fblocks, model.images))
        doc["incidence"] = {
            formula_text(model.props, block): _names(model.worlds, image) for block, image in by_atom
        }
    else:
        doc["measure"] = {str(i): str(w) for i, w in enumerate(model.weights)}
        order = sorted(range(len(model.fblocks)), key=lambda j: _lowest(model.fblocks[j]))
        doc["psi_basis"] = [formula_text(model.props, model.fblocks[j]) for j in order]
        doc["incidence"] = {
            formula_text(model.props, model.fblocks[j]): _names(model.worlds, model.images[j])
            for j in order
        }
    return json.dumps(doc, indent=2) + "\n"


def read(text: str) -> Model:
    """Model of a valid document, canonical or not."""
    doc = json.loads(text)
    props = tuple(doc["propositions"])
    worlds = tuple(doc["worlds"])
    index = {w: i for i, w in enumerate(worlds)}

    def bits(names) -> int:
        return sum(1 << index[n] for n in names)

    images = {evaluate(key, props): bits(names) for key, names in doc["incidence"].items()}
    if doc["kind"] == "ds":
        mblocks = tuple(bits(names) for names in doc["chi_basis"])
        weights = tuple(Fraction(doc["measure"][str(j)]) for j in range(len(mblocks)))
        fblocks = tuple(1 << k for k in range(1 << len(props)))
    else:
        mblocks = tuple(1 << i for i in range(len(worlds)))
        weights = tuple(Fraction(doc["measure"][str(i)]) for i in range(len(worlds)))
        fblocks = tuple(evaluate(text, props) for text in doc["psi_basis"])
    return Model(
        doc["kind"], props, worlds, fblocks, tuple(images[b] for b in fblocks), mblocks, weights
    )
