"""Reading and writing structure documents.

A document is a JSON object with fields in this order::

    kind           "ic" | "ds"
    propositions   list of proposition names (bit order of the atoms)
    worlds         list of world names (bit order of world sets)
    chi_basis      ds only: measurable basis blocks, as world-name lists
    measure        map from basis block index (decimal string) to rational
    psi_basis      ic only: formula-algebra basis blocks, as formula text
    incidence      map from formula text to world-name list

The omitted basis is implied: every world set of an ic structure is
measurable (so ``measure`` is indexed by world), and every formula of a ds
structure has an incidence (so ``incidence`` has one key per atom).  Spelling
out the implied basis is an error, as is any unknown field.

``to_json`` emits the canonical form: basis blocks ordered by their lowest
atom or world index, formulas in canonical text, rationals in lowest terms,
two-space indentation, trailing newline.  Loading canonical text and saving
it again reproduces it byte for byte.
"""

from __future__ import annotations

import json

from .errors import DocumentError, ProbstructError
from .logic import Formula, FormulaAlgebra, Language, format_formula, full_algebra, parse_formula
from .measure import (
    MeasureFn,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    WorldSet,
    discrete_algebra,
    format_rational,
    parse_rational,
)
from .structures import (
    IncidenceMap,
    ProbabilityStructure,
    StructureKind,
    validate,
)


def to_json(st: ProbabilityStructure) -> str:
    """Serialize a structure to canonical document text."""
    report = validate(st)
    if not report.ok:
        raise DocumentError(
            "refusing to serialize an invalid structure: " + "; ".join(report.problems)
        )
    doc: dict = {
        "kind": st.kind.value,
        "propositions": list(st.lang.props),
        "worlds": list(st.ps.space.worlds),
    }
    if st.kind is StructureKind.DS:
        chi = st.ps.algebra.basis
        order = sorted(range(len(chi)), key=lambda j: chi[j].bits & -chi[j].bits)
        doc["chi_basis"] = [list(chi[j].names()) for j in order]
        doc["measure"] = {
            str(i): format_rational(st.ps.mu.weights[j]) for i, j in enumerate(order)
        }
        by_atom = sorted(zip(st.psi.basis, st.inc.images), key=lambda p: p[0].atoms)
        doc["incidence"] = {
            format_formula(block): list(image.names()) for block, image in by_atom
        }
    else:
        weight_of_world = {
            block.bits.bit_length() - 1: w
            for block, w in zip(st.ps.algebra.basis, st.ps.mu.weights)
        }
        doc["measure"] = {
            str(i): format_rational(weight_of_world[i]) for i in range(st.ps.space.size)
        }
        order = sorted(
            range(len(st.psi.basis)), key=lambda j: st.psi.basis[j].atoms & -st.psi.basis[j].atoms
        )
        doc["psi_basis"] = [format_formula(st.psi.basis[j]) for j in order]
        doc["incidence"] = {
            format_formula(st.psi.basis[j]): list(st.inc.images[j].names()) for j in order
        }
    return json.dumps(doc, indent=2) + "\n"


def _pairs_hook(pairs):
    d = {}
    for key, value in pairs:
        if key in d:
            raise DocumentError(f"duplicate key {key!r}")
        d[key] = value
    return d


def _name_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what} must be a list of strings")
    return value


def _world_set(space: SampleSpace, names, what: str) -> WorldSet:
    names = _name_list(names, what)
    if len(set(names)) != len(names):
        raise DocumentError(f"{what} repeats a world name")
    return space.subset(names)


_REDUNDANT = {
    ("ds", "psi_basis"): 'redundant field "psi_basis": every formula of a ds structure has an incidence',
    ("ic", "chi_basis"): 'redundant field "chi_basis": every world set of an ic structure is measurable',
}


def from_json(text: str, check: bool = True) -> ProbabilityStructure:
    """Parse document text; with ``check`` (the default), also validate."""
    try:
        raw = json.loads(text, object_pairs_hook=_pairs_hook)
    except json.JSONDecodeError as e:
        raise DocumentError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentError("parse error: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")

    kind = raw.get("kind")
    if kind not in ("ic", "ds"):
        raise DocumentError('field "kind" must be "ic" or "ds"')
    required = {"kind", "propositions", "worlds", "measure", "incidence"}
    required.add("chi_basis" if kind == "ds" else "psi_basis")
    for field in set(raw) - required:
        raise DocumentError(_REDUNDANT.get((kind, field), f"unknown field {field!r}"))
    for field in required - set(raw):
        raise DocumentError(f"missing field {field!r}")

    try:
        st = _build(kind, raw)
    except DocumentError:
        raise
    except ProbstructError as e:
        raise DocumentError(str(e)) from None

    if check:
        report = validate(st)
        if not report.ok:
            raise DocumentError("invalid structure: " + "; ".join(report.problems))
    return st


def _measure_weights(raw_measure, count: int) -> MeasureFn:
    if not isinstance(raw_measure, dict):
        raise DocumentError('field "measure" must be an object')
    expected = {str(i) for i in range(count)}
    if set(raw_measure) != expected:
        raise DocumentError(
            f'field "measure" must have exactly the keys 0..{count - 1} as strings'
        )
    weights = []
    for i in range(count):
        value = raw_measure[str(i)]
        if not isinstance(value, str):
            raise DocumentError(f"measure weight of block {i} must be a rational string")
        weights.append(parse_rational(value))
    return MeasureFn(tuple(weights))


def _incidence_items(raw_incidence, lang: Language) -> list[tuple[Formula, list[str]]]:
    if not isinstance(raw_incidence, dict):
        raise DocumentError('field "incidence" must be an object')
    items = []
    for key, value in raw_incidence.items():
        items.append((parse_formula(key, lang), _name_list(value, f"incidence of {key!r}")))
    return items


def _build(kind: str, raw: dict) -> ProbabilityStructure:
    lang = Language(tuple(_name_list(raw["propositions"], '"propositions"')))
    space = SampleSpace(tuple(_name_list(raw["worlds"], '"worlds"')))
    items = _incidence_items(raw["incidence"], lang)

    if kind == "ds":
        if not isinstance(raw["chi_basis"], list):
            raise DocumentError('field "chi_basis" must be a list')
        chi = SetAlgebra(
            space,
            tuple(
                _world_set(space, names, f"chi_basis block {j}")
                for j, names in enumerate(raw["chi_basis"])
            ),
        )
        mu = _measure_weights(raw["measure"], len(chi.basis))
        image_of_atom: dict[int, WorldSet] = {}
        for f, names in items:
            if f.atoms.bit_count() != 1:
                raise DocumentError(
                    f"ds incidence keys must be single atoms, got {format_formula(f)!r}"
                )
            k = f.atoms.bit_length() - 1
            if k in image_of_atom:
                raise DocumentError(f"duplicate incidence for atom {format_formula(f)!r}")
            image_of_atom[k] = _world_set(space, names, f"incidence of {format_formula(f)!r}")
        if len(image_of_atom) != lang.n_atoms:
            raise DocumentError(
                f"ds incidence must cover all {lang.n_atoms} atoms, got {len(image_of_atom)}"
            )
        psi = full_algebra(lang)
        images = tuple(image_of_atom[k] for k in range(lang.n_atoms))
        ps = ProbabilitySpace(space, chi, mu)
        return ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), StructureKind.DS)

    blocks = [parse_formula(text, lang) for text in _name_list(raw["psi_basis"], '"psi_basis"')]
    psi = FormulaAlgebra(lang, tuple(blocks))
    mu = _measure_weights(raw["measure"], space.size)
    index_of_block = {block.atoms: j for j, block in enumerate(blocks)}
    image_of_block: dict[int, WorldSet] = {}
    for f, names in items:
        j = index_of_block.get(f.atoms)
        if j is None:
            raise DocumentError(
                f"incidence key {format_formula(f)!r} is not a psi_basis block"
            )
        if j in image_of_block:
            raise DocumentError(f"duplicate incidence for block {format_formula(f)!r}")
        image_of_block[j] = _world_set(space, names, f"incidence of {format_formula(f)!r}")
    if len(image_of_block) != len(blocks):
        raise DocumentError(
            f"incidence must cover all {len(blocks)} psi_basis blocks, got {len(image_of_block)}"
        )
    images = tuple(image_of_block[j] for j in range(len(blocks)))
    ps = ProbabilitySpace(space, discrete_algebra(space), mu)
    return ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), StructureKind.IC)


def save(st: ProbabilityStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(st))


def load(path, check: bool = True) -> ProbabilityStructure:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read(), check=check)
