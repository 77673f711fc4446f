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
atom or world index, formulas in canonical text, rationals in lowest terms.
The layout is ``json.dumps(doc, indent=2)``'s: two-space indentation, one
list element or object member per line, ``": "`` after each key, ``[]`` for
an empty list, strings escaped to ASCII, and a trailing newline.  Loading
canonical text and saving it again reproduces it byte for byte.

``from_json`` reads formula text through the table ``to_json`` writes it
from: text spelled as ``to_json`` writes it is looked up term by term, and
a ds key that is one atom gives its index without building a formula.
The table is built at most once per call, and only when the first text
long enough to be a full conjunction is spelled that way.  Any other text
goes to ``parse_formula``: through its table of literals, then its
one-pass parser, which raises every error.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable

from .errors import DocumentError, ProbstructError
from .logic import (
    Formula,
    FormulaAlgebra,
    Language,
    _atom_text,
    _atom_texts,
    _join_terms,
    format_formula,
    parse_formula,
)
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
from .value import low_bit, set_bits


_encode = json.encoder.encode_basestring_ascii  # the string writer of json.dumps


def _list(items: list[str], depth: int) -> str:
    """A nonempty list of written ``items`` at nesting ``depth``, as
    ``json.dumps(indent=2)`` lays it out; an empty list is just ``[]``."""
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _object(members: Iterable[tuple[str, str]], depth: int) -> str:
    """A nonempty object of written names and values, laid out as ``_list``
    lays out a list; each value is copied once, into the joined text."""
    pad = "\n" + "  " * depth
    sep = "," + pad + "  "
    parts = []
    for name, value in members:
        parts += (sep, name, ": ", value)
    parts[0] = "{" + pad + "  "
    parts.append(pad + "}")
    return "".join(parts)


def _psi_keys(psi: FormulaAlgebra) -> tuple[list[int], list[str]]:
    """The basis blocks' positions in canonical order, and their written texts."""
    indices = [set_bits(block.atoms) for block in psi.basis]
    order = sorted(range(len(indices)), key=lambda j: indices[j][0])
    # the blocks partition the atoms, so each atom's text is used once
    atom_text = _atom_texts(psi.lang).__getitem__
    return order, [_encode(_join_terms(psi.basis[j], map(atom_text, indices[j]))) for j in order]


def to_json(st: ProbabilityStructure) -> str:
    """Serialize a structure to canonical document text."""
    report = validate(st)
    if not report.ok:
        raise DocumentError(
            "refusing to serialize an invalid structure: " + "; ".join(report.problems)
        )
    world = [_encode(w) for w in st.ps.space.worlds]

    def world_list(ws: WorldSet) -> str:
        return _list([world[i] for i in set_bits(ws.bits)], 2) if ws.bits else "[]"

    chi, weights, images = st.ps.algebra.basis, st.ps.mu.weights, st.inc.images
    chi_order = sorted(range(len(chi)), key=lambda j: low_bit(chi[j].bits))
    psi_order, keys = _psi_keys(st.psi)
    fields = [
        ("kind", _encode(st.kind.value)),
        ("propositions", _list([_encode(p) for p in st.lang.props], 1)),
        ("worlds", _list(world, 1)),
    ]
    if st.kind is StructureKind.DS:
        fields.append(("chi_basis", _list([world_list(chi[j]) for j in chi_order], 1)))
    # an ic structure's measurable blocks are the single worlds, in world order
    measure = (
        (_encode(str(i)), _encode(format_rational(weights[j]))) for i, j in enumerate(chi_order)
    )
    fields.append(("measure", _object(measure, 1)))
    if st.kind is StructureKind.IC:
        fields.append(("psi_basis", _list(keys, 1)))
    incidence = zip(keys, (world_list(images[j]) for j in psi_order))
    fields.append(("incidence", _object(incidence, 1)))
    return _object(((_encode(name), value) for name, value in fields), 0) + "\n"


def _pairs_hook(pairs):
    d = {}
    for key, value in pairs:
        if key in d:
            raise DocumentError(f"duplicate key {key!r}")
        d[key] = value
    return d


def _name_list(value, what: Callable[[], str]) -> list[str]:
    """``value``, if it is a list of strings; ``what()`` names it, only on an error."""
    # most atoms of a ds document have no worlds: their lists are empty
    if not isinstance(value, list) or value and not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what()} must be a list of strings")
    return value


def _world_set(space: SampleSpace, names: list[str], what: Callable[[], str]) -> WorldSet:
    """The world set ``names`` lists; ``what()`` names it, only on an error."""
    if len(set(names)) != len(names):
        raise DocumentError(f"{what()} repeats a world name")
    return space.subset(names)


_FIELDS = ("kind", "propositions", "worlds", "chi_basis", "measure", "psi_basis", "incidence")
_REDUNDANT = {
    ("ds", "psi_basis"): 'redundant field "psi_basis": every formula of a ds structure has an incidence',
    ("ic", "chi_basis"): 'redundant field "chi_basis": every world set of an ic structure is measurable',
}


def from_json(text: str, check: bool = True) -> ProbabilityStructure:
    """Parse document text; with ``check`` (the default), also validate."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise DocumentError(f"document text must be str or bytes, got {type(text).__name__}")
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
    implied = "psi_basis" if kind == "ds" else "chi_basis"
    required = [field for field in _FIELDS if field != implied]
    for field in raw:
        if field not in required:
            raise DocumentError(_REDUNDANT.get((kind, field), f"unknown field {field!r}"))
    for field in required:
        if field not in raw:
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


def _key_reader(lang: Language) -> Callable[[str], int | Formula]:
    """A reader of formula text for one load: the atom index of one atom's
    text as ``to_json`` writes it, else the formula.

    Text is looked up term by term in the table of atom texts; text with a
    term not in it goes to ``parse_formula``, which reads any spelling and
    raises every error.  The first text with enough ``" & "`` for a full
    conjunction (the test ``_read_atoms`` starts with) is parsed, and the
    table is built only if its first term is spelled as ``to_json`` writes it.
    """
    n = len(lang.props)
    spelled = (lambda t: "(" + t + ")") if n > 1 else (lambda t: t)
    table = None

    def read(text: str) -> int | Formula:
        nonlocal table
        if not table:
            if table is not None or text.count(" & ") < n - 1:
                return parse_formula(text, lang)
            # this text decides whether the document is spelled as to_json
            # writes it; if not, the table stays empty
            f = parse_formula(text, lang)
            k = low_bit(f.atoms).bit_length() - 1
            first = text.partition(" | ")[0]
            canonical = k >= 0 and first == spelled(_atom_text(lang, k))
            table = {spelled(t): j for j, t in enumerate(_atom_texts(lang))} if canonical else {}
            return f
        first, more, rest = text.partition(" | ")
        k = table.get(first)
        if k is not None:
            if not more:
                return k
            try:
                mask = 1 << k
                for term in rest.split(" | "):
                    mask |= 1 << table[term]
                return Formula(lang, mask)
            except KeyError:
                pass
        return parse_formula(text, lang)

    return read


def _formula(lang: Language, atoms: int | Formula) -> Formula:
    """The formula ``_key_reader`` read."""
    return Formula(lang, 1 << atoms) if atoms.__class__ is int else atoms


def _incidence_items(raw_incidence, read) -> dict[str, tuple[int | Formula, list[str]]]:
    if not isinstance(raw_incidence, dict):
        raise DocumentError('field "incidence" must be an object')
    return {
        key: (read(key), _name_list(value, lambda: f"incidence of {key!r}"))
        for key, value in raw_incidence.items()
    }


def _build(kind: str, raw: dict) -> ProbabilityStructure:
    lang = Language(tuple(_name_list(raw["propositions"], lambda: '"propositions"')))
    space = SampleSpace(tuple(_name_list(raw["worlds"], lambda: '"worlds"')))
    read = _key_reader(lang)
    items = _incidence_items(raw["incidence"], read)
    formula_text = lambda mask: format_formula(Formula(lang, mask))  # for error messages

    if kind == "ds":
        if not isinstance(raw["chi_basis"], list):
            raise DocumentError('field "chi_basis" must be a list')
        chi_blocks = []
        for j, names in enumerate(raw["chi_basis"]):
            what = lambda: f"chi_basis block {j}"
            chi_blocks.append(_world_set(space, _name_list(names, what), what))
        chi = SetAlgebra(space, tuple(chi_blocks))
        mu = _measure_weights(raw["measure"], len(chi.basis))
        empty = space.nothing()  # most atoms have no worlds; they share one set
        parsed: list[Formula | None] = [None] * lang.n_atoms  # keys read as formulas
        images: list[WorldSet | None] = [None] * lang.n_atoms
        for atoms, names in items.values():
            if atoms.__class__ is int:
                k = atoms  # one atom, found in the table
            else:
                if atoms.atoms.bit_count() != 1:
                    raise DocumentError(
                        f"ds incidence keys must be single atoms, got {format_formula(atoms)!r}"
                    )
                k = atoms.atoms.bit_length() - 1
                parsed[k] = atoms
            if images[k] is not None:
                raise DocumentError(f"duplicate incidence for atom {formula_text(1 << k)!r}")
            images[k] = empty if names == [] else _world_set(
                space, names, lambda: f"incidence of {formula_text(1 << k)!r}"
            )
        if len(items) != lang.n_atoms:  # no atom was listed twice
            raise DocumentError(
                f"ds incidence must cover all {lang.n_atoms} atoms, got {len(items)}"
            )
        # the keys are the single atoms, so they are the full algebra's basis
        psi = FormulaAlgebra(lang, [f or Formula(lang, 1 << k) for k, f in enumerate(parsed)])
        ps = ProbabilitySpace(space, chi, mu)
        return ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), StructureKind.DS)

    # canonical text spells each incidence key as its block, so read it once
    blocks = [
        _formula(lang, items[text][0] if text in items else read(text))
        for text in _name_list(raw["psi_basis"], lambda: '"psi_basis"')
    ]
    psi = FormulaAlgebra(lang, tuple(blocks))
    mu = _measure_weights(raw["measure"], space.size)
    index_of_block = {block.atoms: j for j, block in enumerate(blocks)}
    image_of_block: dict[int, WorldSet] = {}
    for atoms, names in items.values():
        mask = 1 << atoms if atoms.__class__ is int else atoms.atoms
        j = index_of_block.get(mask)
        if j is None:
            raise DocumentError(f"incidence key {formula_text(mask)!r} is not a psi_basis block")
        if j in image_of_block:
            raise DocumentError(f"duplicate incidence for block {formula_text(mask)!r}")
        image_of_block[j] = _world_set(space, names, lambda: f"incidence of {formula_text(mask)!r}")
    if len(image_of_block) != len(blocks):
        raise DocumentError(
            f"incidence must cover all {len(blocks)} psi_basis blocks, got {len(image_of_block)}"
        )
    images = tuple(image_of_block[j] for j in range(len(blocks)))
    ps = ProbabilitySpace(space, discrete_algebra(space), mu)
    return ProbabilityStructure(ps, lang, psi, IncidenceMap(space, images), StructureKind.IC)


def _open(path, mode: str):
    # open() would take an int, bool included, as a file descriptor to close
    if not isinstance(path, int):
        try:
            return open(path, mode, encoding="utf-8")
        except TypeError:
            pass
        except ValueError as e:  # a NUL character in the path
            raise DocumentError(str(e)) from None
    raise DocumentError(f"document path must be str or os.PathLike, got {type(path).__name__}")


def save(st: ProbabilityStructure, path) -> None:
    text = to_json(st)
    try:
        with _open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise DocumentError(str(e)) from e


def load(path, check: bool = True) -> ProbabilityStructure:
    try:
        with _open(path, "r") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise DocumentError(f"document is not UTF-8 text: {e.reason} at byte {e.start}") from None
    except OSError as e:
        raise DocumentError(str(e)) from e
    return from_json(text, check=check)
