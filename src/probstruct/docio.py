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
an empty list, strings escaped to ASCII, and a trailing newline.  Names are
ASCII identifiers, so no string it writes has a character to escape.  Loading
canonical text and saving it again reproduces it byte for byte.  Its work per
key is done by C, not the interpreter: the incidence is one join of a list,
filled by slice assignment, of each key and, after it, one shared text for
an empty image (most of a ds's).  Only the nonempty images, at most one per
world, are written one by one, a list of one world from its bit length.  The
weights are written from their reduced pairs (``measure._ratio_text``), with
no ``Fraction`` built.  A ds's blocks, the language's shared single-atom
masks, are in canonical order and are not sorted; any other algebra's are
sorted by their lowest atom, which a block of one atom gives by its bit
length, with no walk over its bits.

``from_json`` recognises a canonical document as a whole: when the incidence
keys are, in order, the atom texts ``to_json`` writes (ds) or the
``psi_basis`` texts (ic), key ``j`` is block ``j``, and the images are read
in one pass.  Any other document, valid or not, is read key by key, also in
one pass: an ic key that repeats a ``psi_basis`` text is that block's, unread;
a key of one atom is read straight to its index, from the table of
atom texts (if the first key begins with one) or literal by literal
(``logic._term_reader``), with no mask built, and that index is its block (a
ds) or finds the block of that atom alone (an ic); any other key is read to
its mask, term by term from the table or else by ``parse_formula``'s reader,
and found by its lowest atom.  A valid document
formats nothing; the same loop names every fault of a faulty one in its
order: text that does not parse and world lists that are not of strings
raise in key order; the first key with no block of its own, or with a bad
world, is held until the fields before ``incidence`` are checked.  The
algebras hold their blocks as masks: a ds structure's blocks are the single
atoms, which ``from_json`` does not re-check, and ``to_json`` writes their
keys, and an ic's, straight from the atom texts.  Those texts, their index
and the single-atom masks are built when first read and shared by all
documents over the same propositions (``logic._AtomTables``).
"""

from __future__ import annotations

import json
import sys
from itertools import compress
from typing import Iterable, Sequence

from .errors import DocumentError, ProbstructError, ValidationError
from .logic import (
    Formula,
    FormulaAlgebra,
    Language,
    _atom_mask,
    _atom_text,
    format_formula,
    full_algebra,
)
from .measure import (
    MeasureFn,
    ProbabilitySpace,
    SampleSpace,
    SetAlgebra,
    _ratio,
    _ratio_text,
    discrete_algebra,
)
from .structures import (
    IncidenceMap,
    ProbabilityStructure,
    StructureKind,
    _problems,
)
from .value import low_bit, set_bits


def _list(items: Sequence[str], depth: int, quote: str = "") -> str:
    """A nonempty list of written ``items`` at nesting ``depth``, as ``json.dumps(indent=2)``
    lays it out, each in ``quote`` marks; an empty list is just ``[]``."""
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + quote + (quote + "," + pad + "  " + quote).join(items) + quote + pad + "]"


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


def _atom_texts(lang: Language) -> tuple[str, ...]:
    """Each atom's text as ``to_json`` writes it, in index order: the language's shared texts."""
    return lang._atoms.spelled


def _psi_keys(psi: FormulaAlgebra) -> tuple[Sequence[int], Sequence[str]]:
    """The basis blocks' positions in canonical order, and their texts: the spelled texts of
    each block's atoms, joined as ``format_formula`` joins them, or "true" alone."""
    spelled, masks = psi.lang._atoms.spelled, psi.masks
    if masks is psi.lang._atoms.singles:  # ``full_algebra``'s blocks: block k is atom k
        return range(len(masks)), spelled
    if len(masks) == 1:
        return [0], ["true"]
    low = [mask.bit_length() - 1 for mask in masks]  # a one-atom block's atom, with no bit walk
    many = {j: set_bits(masks[j]) for j, k in enumerate(low) if masks[j] != 1 << k}
    for j, atoms in many.items():
        low[j] = atoms[0]
    order = sorted(range(len(low)), key=low.__getitem__)
    return order, [" | ".join(map(spelled.__getitem__, many[j])) if j in many else spelled[low[j]] for j in order]


def to_json(st: ProbabilityStructure) -> str:
    """Serialize a structure to canonical document text."""
    if _problems(st):
        raise DocumentError("refusing to serialize an invalid structure: " + "; ".join(st._problems))
    worlds = st.ps.space.worlds

    def world_lists(masks) -> list[str]:  # of nonempty masks; a list of one world needs no bit walk
        return [f'[\n      "{worlds[bits.bit_length() - 1]}"\n    ]' if bits & bits - 1 == 0 else
                _list([worlds[i] for i in set_bits(bits)], 2, '"') for bits in masks]

    chi, ratios = st.ps.algebra.masks, st.ps.mu._ratios
    chi_order = sorted(range(len(chi)), key=lambda j: low_bit(chi[j]))
    psi_order, keys = _psi_keys(st.psi)
    images = st.inc.masks if isinstance(psi_order, range) else list(map(st.inc.masks.__getitem__, psi_order))
    # each key, then what follows it: an empty image's ``[]`` and the next key's quote, or its list
    parts = ['": [],\n    "'] * (2 * len(keys) + 1)
    parts[0], parts[1::2] = '{\n    "', keys
    live = list(compress(range(len(images)), images))
    for j, text in zip(live, world_lists(map(images.__getitem__, live))):
        parts[2 * j + 2] = f'": {text},\n    "'
    parts[-1] = parts[-1].removesuffix(',\n    "') + "\n  }"  # the last member closes the object
    fields = [("kind", f'"{st.kind.value}"'), ("propositions", _list(st.lang.props, 1, '"')),
              ("worlds", _list(worlds, 1, '"'))]
    if st.kind is StructureKind.DS:
        fields.append(("chi_basis", _list(world_lists(chi[j] for j in chi_order), 1)))
    # an ic structure's measurable blocks are the single worlds, in world order
    measure = ((f'"{i}"', f'"{_ratio_text(*ratios[j])}"') for i, j in enumerate(chi_order))
    fields.append(("measure", _object(measure, 1)))
    if st.kind is StructureKind.IC:
        fields.append(("psi_basis", _list(keys, 1, '"')))
    fields.append(("incidence", "".join(parts)))
    return _object(((f'"{name}"', value) for name, value in fields), 0) + "\n"


def _pairs_hook(pairs):
    d = dict(pairs)
    if len(d) != len(pairs):  # name the first key met a second time
        seen = set()  # set.add returns None, so each new key is added and passed over
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise DocumentError(f"duplicate key {key!r}")
    return d


def _name_list(value, what: str) -> list[str]:
    """``value``, if it is a list of strings; ``what`` names it in the error."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError(f"{what} must be a list of strings")
    return value


def _world_bits(space: SampleSpace, names, what: str, *args) -> int | None:
    """The bits of the worlds ``names`` lists; None if a name repeats or is no world.
    Raises unless ``names`` is a list of strings, named by ``what.format(*args)``."""
    if names.__class__ is list:
        try:
            bits = sum(map(space._bits.__getitem__, names))
            if bits.bit_count() == len(names):  # a name listed twice would carry
                return bits
        except (KeyError, TypeError):  # not a world name, or not even hashable
            pass
    _name_list(names, what.format(*args))
    return None


def _world_fault(space: SampleSpace, names: list[str], what: str) -> str:
    """Why the world names ``names``, which ``what`` names, make no world set."""
    if len(set(names)) != len(names):
        return f"{what} repeats a world name"
    try:
        space.subset(names)  # raises: a name is no world
    except ValidationError as e:
        return str(e)


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
    except UnicodeDecodeError as e:  # bytes are read as UTF-8, -16 or -32, by their first bytes
        encoding = json.detect_encoding(text).upper().removesuffix("-SIG")
        at = e.start + 3 * text.startswith(b"\xef\xbb\xbf")  # utf-8-sig counts from after its mark
        raise DocumentError(f"document is not {encoding} text: {e.reason} at byte {at}") from None
    except ValueError:  # an integer past the interpreter's limit on digits
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"parse error: an integer has more than {limit} digits") from None
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

    if check and _problems(st):
        raise DocumentError("invalid structure: " + "; ".join(st._problems))
    return st


def _measure_weights(raw_measure, count: int) -> MeasureFn:
    if not isinstance(raw_measure, dict):
        raise DocumentError('field "measure" must be an object')
    keys = [str(i) for i in range(count)]
    if raw_measure.keys() != set(keys):
        raise DocumentError(f'field "measure" must have exactly the keys 0..{count - 1} as strings')
    ratios = []
    for i, key in enumerate(keys):
        if not isinstance(raw_measure[key], str):
            raise DocumentError(f"measure weight of block {i} must be a rational string")
        ratios.append(_ratio(raw_measure[key]))
    return MeasureFn._of(tuple(ratios))


def _atom_spelling(lang: Language, keys) -> tuple[str, ...]:
    """Each atom's text as ``to_json`` writes it, in index order, if the first
    key begins with such a text; else empty, and nothing is built."""
    first = next(iter(keys), "").partition(" | ")[0]
    k = lang._atoms.term_atom(first)  # the term's atom, if it is one
    spelled = "({})" if len(lang.props) > 1 else "{}"
    return _atom_texts(lang) if k is not None and first == spelled.format(_atom_text(lang, k)) else ()


def _read_block(text: str, lang: Language, atom: dict[str, int]) -> tuple[int, int]:
    """The lowest atom (-1 if none) and the atom mask of formula text: text
    whose terms are all in the table ``atom`` is read from it, any other by
    ``parse_formula``'s reader, which reads every spelling and raises every error."""
    k = atom.get(text)
    if k is not None:  # one atom
        return k, 1 << k
    atoms = [atom.get(term) for term in text.split(" | ")] if atom else [None]
    if None in atoms:
        mask = _atom_mask(text, lang)
        return low_bit(mask).bit_length() - 1, mask
    mask = 0
    for k in atoms:
        mask |= 1 << k
    return min(atoms), mask


_KEY_FAULTS = {  # a key of no block, a block listed twice, blocks left without a key
    "ds": ("ds incidence keys must be single atoms, got {!r}", "duplicate incidence for atom {!r}",
           "ds incidence must cover all {} atoms, got {}"),
    "ic": ("incidence key {!r} is not a psi_basis block", "duplicate incidence for block {!r}",
           "incidence must cover all {} psi_basis blocks, got {}"),
}


def _build(kind: str, raw: dict) -> ProbabilityStructure:
    lang = Language(tuple(_name_list(raw["propositions"], '"propositions"')))
    space = SampleSpace(tuple(_name_list(raw["worlds"], '"worlds"')))
    incidence = raw["incidence"]
    if not isinstance(incidence, dict):
        raise DocumentError('field "incidence" must be an object')
    spelled = _atom_spelling(lang, incidence)
    # The fields before incidence are read first, but a fault in them or in
    # the keys' blocks and worlds is held until every key and list is read.
    fault = None
    try:
        if kind == "ds":
            if not isinstance(raw["chi_basis"], list):
                raise DocumentError('field "chi_basis" must be a list')
            chi = []
            for j, names in enumerate(raw["chi_basis"]):
                bits = _world_bits(space, names, "chi_basis block {}", j)
                if bits is None:
                    raise DocumentError(_world_fault(space, names, f"chi_basis block {j}"))
                chi.append(bits)
            algebra = SetAlgebra._of(space, tuple(chi))._check()
            # the blocks are the single atoms, whose keys are the texts ``to_json`` writes
            psi, blocks, texts = full_algebra(lang), [], spelled
        else:
            atom = lang._atoms.index if spelled else {}
            texts = tuple(_name_list(raw["psi_basis"], '"psi_basis"'))
            blocks = [_read_block(text, lang, atom) for text in texts]
            psi = FormulaAlgebra._of(lang, tuple(mask for _, mask in blocks))._check()
            algebra = discrete_algebra(space)
        mu = _measure_weights(raw["measure"], len(algebra.masks))
    except ProbstructError as e:
        psi, blocks, texts, fault = None, [], (), str(e)
    images = None
    if texts and tuple(incidence) == texts:  # a canonical document: key j is block j's text
        images = [0 if names == [] else _world_bits(space, names, "incidence of {!r}", key)
                  for key, names in incidence.items()]
    if images is None or None in images:  # any other document, or a fault: read key by key
        atom = lang._atoms.index if spelled else {}  # built here for a ds, never on its canonical path
        no_block, twice, missing = _KEY_FAULTS[kind]
        of_low = {low: j for j, (low, _) in enumerate(blocks)}
        # a key of one atom is read straight to its index, with no mask built: a ds's block,
        # or an ic's block of that atom alone; any other key is found by its lowest atom
        read = atom.get if atom else lang._atoms.term_atom
        reads = map(read, incidence)
        if kind == "ic":  # a key that repeats a psi_basis text is that block's, and is not read again
            of_text = dict(zip(texts, range(len(texts))))
            single = {low: j for j, (low, mask) in enumerate(blocks) if mask.bit_count() == 1}
            reads = (of_text[key] if key in of_text else single.get(read(key)) for key in incidence)
        images = [None] * (0 if psi is None else len(psi.masks))
        for (key, names), j in zip(incidence.items(), reads):
            if j is None:
                low, mask = _read_block(key, lang, atom)
                j = low if kind == "ds" else of_low.get(low)
                if fault or j is None or psi.masks[j] != mask:
                    j = None
            bits = 0 if names == [] else _world_bits(space, names, "incidence of {!r}", key)
            if fault:
                continue
            if j is not None and images[j] is None and bits is not None:
                images[j] = bits
                continue
            # the key's block, if it has one (a key placed on a block has that block's mask)
            text = format_formula(Formula(lang, mask if j is None else psi.masks[j]))
            if j is None:
                fault = no_block.format(text)
            elif images[j] is not None:
                fault = twice.format(text)
            else:
                fault = _world_fault(space, names, f"incidence of {text!r}")
        if fault:
            raise DocumentError(fault)
        if len(incidence) != len(images):  # each key has a block of its own
            raise DocumentError(missing.format(len(images), len(incidence)))
    ps = ProbabilitySpace(space, algebra, mu)
    return ProbabilityStructure(ps, lang, psi, IncidenceMap._of(space, tuple(images)), StructureKind(kind))


def _open(path, mode: str):
    # open() would take an int, bool included, as a file descriptor to close
    if not isinstance(path, int):
        try:
            return open(path, mode)
        except TypeError:
            pass
        except ValueError as e:  # a NUL character in the path
            raise DocumentError(str(e)) from None
    raise DocumentError(f"document path must be str or os.PathLike, got {type(path).__name__}")


def save(st: ProbabilityStructure, path) -> None:
    data = to_json(st).encode()
    try:
        with _open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise DocumentError(str(e)) from e


def load(path, check: bool = True) -> ProbabilityStructure:
    """Read a file's bytes as ``from_json`` reads them: UTF-8, UTF-16 or
    UTF-32 by their first bytes, a byte order mark allowed."""
    try:
        with _open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DocumentError(str(e)) from e
    return from_json(data, check=check)
