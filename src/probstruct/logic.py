"""Finite propositional languages and canonical formula arithmetic.

A language fixes an ordered tuple of proposition names.  Its *atoms* are the
full conjunctions that assign a sign to every proposition: atom ``k`` makes
proposition ``j`` positive iff bit ``j`` of ``k`` is set, so a language with
``n`` propositions has ``2**n`` atoms.  Every sentence denotes the set of
atoms on which it is true, stored as a bitmask of width ``2**n``.  Logically
equivalent sentences therefore compare equal, and the connectives reduce to
bitwise arithmetic.

Formula text follows this grammar (``~`` binds tightest, then ``&``, then
``|``; ``true`` and ``false`` are reserved constants)::

    expr   := term ('|' term)*
    term   := factor ('&' factor)*
    factor := '~' factor | '(' expr ')' | ident | 'true' | 'false'

Any number of ``~`` may stand in a row, but parentheses nest at most
``MAX_NESTING`` deep.

``format_formula`` prints the canonical form: the disjunction of the
sentence's atoms in increasing index order, ``false`` for the empty set and
``true`` for the full set.
"""

from __future__ import annotations

import itertools
import re
import weakref
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    FormulaSyntaxError,
    LanguageMismatchError,
    UnknownPropositionError,
    ValidationError,
)
from .measure import SampleSpace
from .value import Partition, Value, as_tuple, check_names, low_bit, require_type, set_bits, setfield

MAX_PROPS = 16
MAX_NESTING = 100  # deepest parenthesis nesting the parser accepts
_TABLES = weakref.WeakValueDictionary()  # props -> their _AtomTables, while a language over them lives


class Language(Value):
    """An ordered, finite set of distinct proposition names.

    ``n_atoms`` is the number of atoms, ``2**len(props)``, and ``full_mask`` the bitmask
    selecting every atom.  ``_atoms`` holds the parser's tables and the atoms' tables,
    which every language over the same propositions shares, as it shares their ``props``.
    """

    _fields = ("props",)
    __slots__ = _fields + ("n_atoms", "full_mask", "_atoms")

    def __init__(self, props: Iterable[str]):
        props = check_names(props, MAX_PROPS, "a language", "proposition", ("true", "false"))
        tables = _TABLES.get(props) or _TABLES.setdefault(props, _AtomTables(props))
        setfield(self, "props", tables.props)  # the names the shared tables hold, ``space``'s world names
        setfield(self, "n_atoms", 1 << len(props))
        setfield(self, "full_mask", (1 << self.n_atoms) - 1)
        setfield(self, "_atoms", tables)


class _AtomTables:
    """The tables of the propositions ``props``, each built when first read.  The parser's:
    ``names`` maps every name formula text may use, constants included, to its atom mask, and
    ``term_atom`` reads one term to its atom (``_term_reader``).  The atoms': ``spelled`` (as formula
    text writes its terms, ``_atom_texts``), ``index`` (spelled text -> atom), ``singles`` (each
    atom's mask, ``full_algebra``'s blocks) and ``space`` (a world per atom, named like "notg_d",
    whose incidence is ``singles``; at most 6 propositions).  ``_prop_masks`` and ``_atom_texts``
    read only ``props`` and ``n_atoms``, so they build from these tables.  ``_TABLES`` holds one
    per ``props`` while a language over them lives; holding no language, they form no cycle."""

    def __init__(self, props: tuple[str, ...]):
        self.props, self.n_atoms = props, 1 << len(props)

    names = cached_property(
        lambda self: dict(zip(self.props, _prop_masks(self)), true=(1 << self.n_atoms) - 1, false=0))
    spelled = cached_property(lambda self: _atom_texts(self))
    index = cached_property(lambda self: dict(zip(self.spelled, range(self.n_atoms))))
    singles = cached_property(lambda self: tuple(1 << k for k in range(self.n_atoms)))
    term_atom = cached_property(lambda self: _term_reader(self))

    @cached_property
    def space(self) -> SampleSpace:  # world k is atom k, named like "notg_d"
        literals = [("not" + name, name) for name in reversed(self.props)]
        return SampleSpace(["_".join(reversed(atom)) for atom in itertools.product(*literals)])


def _atom_text(lang: Language, index: int) -> str:
    parts = []
    for name in lang.props:
        parts.append(name if index & 1 else "~" + name)
        index >>= 1
    return " & ".join(parts)


class Formula(Value):
    """A sentence in canonical form: the set of atoms on which it holds.

    ``atoms`` is a bitmask over atom indices.  The connectives are the
    operators ``~f``, ``f & g`` and ``f | g``.
    """

    _fields = ("lang", "atoms")
    __slots__ = _fields

    def __init__(self, lang: Language, atoms: int):
        if not isinstance(lang, Language):
            raise ValidationError(f"formula language must be Language, got {type(lang).__name__}")
        if not isinstance(atoms, int) or not 0 <= atoms <= lang.full_mask:
            raise ValidationError(f"atom bitmask {atoms!r} out of range")
        setfield(self, "lang", lang)
        setfield(self, "atoms", atoms)

    @property
    def is_false(self) -> bool:
        return self.atoms == 0

    @property
    def is_true(self) -> bool:
        return self.atoms == self.lang.full_mask

    def atom_indices(self) -> list[int]:
        """Indices of the atoms on which the sentence holds, ascending."""
        return set_bits(self.atoms)

    def implies(self, other: Formula) -> bool:
        """Entailment: every atom of ``self`` is an atom of ``other``."""
        _check_lang(self, other)
        return self.atoms & ~other.atoms == 0

    def __invert__(self) -> Formula:
        return Formula(self.lang, self.lang.full_mask ^ self.atoms)

    def __and__(self, other: Formula) -> Formula:
        _check_lang(self, other)
        return Formula(self.lang, self.atoms & other.atoms)

    def __or__(self, other: Formula) -> Formula:
        _check_lang(self, other)
        return Formula(self.lang, self.atoms | other.atoms)

    def __str__(self) -> str:
        return format_formula(self)


def _check_lang(a, b) -> None:
    """Raise unless ``b`` is a formula in the language of ``a``."""
    require_type(b, Formula, "formula")
    if a.lang != b.lang:
        raise LanguageMismatchError(
            f"values belong to different languages: {a.lang.props} vs {b.lang.props}"
        )


def true_formula(lang: Language) -> Formula:
    require_type(lang, Language, "formula language")
    return Formula(lang, lang.full_mask)


def false_formula(lang: Language) -> Formula:
    return Formula(lang, 0)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[~&|()]|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token with its position; the first bad character raises."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group(), m.start()))
    return tokens


def _prop_masks(lang: Language) -> tuple[int, ...]:
    """For each proposition, the bitmask of atoms that make it positive."""
    masks = []
    for j in range(len(lang.props)):
        # 2**j atoms with bit j clear, then 2**j with it set, doubled to 2**n
        mask, width = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while width < lang.n_atoms:
            mask, width = mask | mask << width, width * 2
        masks.append(mask)
    return tuple(masks)


def parse_formula(text: str, lang: Language) -> Formula:
    """Parse formula text into its canonical atom set.

    Text spelled as ``format_formula`` writes it, up to the order of atoms
    and literals, is read by ``_read_atoms``; any other text, and every
    error, goes through ``_parse_tokens``.
    """
    require_type(text, str, "formula text")
    require_type(lang, Language, "formula language")
    return Formula(lang, _atom_mask(text, lang))


def _atom_mask(text: str, lang: Language) -> int:
    """The atom mask of formula text: ``_read_atoms``'s (never 0) if it reads it, else ``_parse_tokens``'s."""
    return _read_atoms(text, lang) or _parse_tokens(text, lang)


def _read_atoms(text: str, lang: Language) -> int | None:
    """The atom mask of terms joined by ``" | "``, each read by ``term_atom``; else None."""
    if text.count(" & ") < len(lang.props) - 1:  # too few literals: most query text leaves here
        return None
    atom, mask = lang._atoms.term_atom, 0
    for term in text.split(" | "):
        k = atom(term)
        if k is None:
            return None
        mask |= 1 << k
    return mask


def _term_reader(tables: _AtomTables):
    """The reader of one term, shared by ``_read_atoms`` and ``from_json``: its atom index if it is
    ``p`` or ``~p`` for each proposition, in any order, joined by ``" & "`` in at most one pair of
    parentheses, else None.  A literal's code is bit ``2n + j`` for its proposition ``j``, plus bit
    ``j`` if positive; the codes sum to every proposition bit plus the atom index only if no
    proposition repeats, and the sign bits, under ``2**(2n)``, never carry into the others."""
    n = len(tables.props)
    codes = {literal: 1 << 2 * n + j | (literal == name) << j
             for j, name in enumerate(tables.props) for literal in ("~" + name, name)}
    shift, every, code_of = 2 * n, (1 << n) - 1, codes.__getitem__

    def term_atom(term: str) -> int | None:
        if term[:1] == "(" and term[-1:] == ")":
            term = term[1:-1]
        literals = term.split(" & ")
        try:
            code = sum(map(code_of, literals)) if len(literals) == n else 0
        except KeyError:
            return None
        return code & every if code >> shift == every else None

    return term_atom


def _parse_tokens(text: str, lang: Language) -> int:
    """The atom mask of any formula text; raises on text that is wrong.

    One pass over ``_tokenize``'s tokens, with a stack frame per open
    parenthesis: the disjunction and the conjunction so far around it, and
    the parity of the ``~`` run before it.  A bad character anywhere in the
    text raises before any token is read; every other error is raised at
    the position of its token, or at the end of the text.
    """
    full = lang.full_mask
    names = lang._atoms.names
    stack: list[tuple[int, int, int]] = []
    disj, conj, flip = 0, full, 0
    value = None  # the operand just read; None while an operand is due
    for tok, pos in _tokenize(text):
        if value is None:
            if tok == "~":
                flip ^= full
            elif tok == "(":
                if len(stack) == MAX_NESTING:
                    raise FormulaSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
                stack.append((disj, conj, flip))
                disj, conj, flip = 0, full, 0
            elif tok in names:
                value = names[tok] ^ flip
            elif tok in "&|)":  # an operator out of place
                raise FormulaSyntaxError(f"unexpected token {tok!r}", pos)
            else:
                raise UnknownPropositionError(tok, pos)
        elif tok == "&":
            conj &= value
            flip, value = 0, None
        elif tok == "|":
            disj |= conj & value
            conj, flip, value = full, 0, None
        elif tok == ")" and stack:
            value = disj | (conj & value)
            disj, conj, flip = stack.pop()
            value ^= flip
        else:
            raise FormulaSyntaxError("expected ')'" if stack else f"unexpected token {tok!r}", pos)
    if value is None:
        raise FormulaSyntaxError("unexpected end of input", len(text))
    if stack:
        raise FormulaSyntaxError("expected ')'", len(text))
    return disj | (conj & value)


def format_formula(f: Formula) -> str:
    """Canonical text: disjunction of atom conjunctions in index order."""
    require_type(f, Formula, "formula")
    if f.atoms in (0, f.lang.full_mask):
        return "true" if f.atoms else "false"
    terms = [_atom_text(f.lang, k) for k in set_bits(f.atoms)]
    return "(" + ") | (".join(terms) + ")" if len(f.lang.props) > 1 else " | ".join(terms)


def _atom_texts(lang: Language) -> tuple[str, ...]:
    """``_atom_text`` of every atom, in index order, as formula text writes its
    terms (in parentheses, past one proposition), built by doubling: the atoms
    with proposition ``j`` negative come before those with it positive."""
    first, *rest = lang.props
    left, right = ("(", ")") if rest else ("", "")
    texts = [left + "~" + first, left + first]
    for j, name in enumerate(rest, 2):
        end = right if j == len(lang.props) else ""  # the last doubling closes each text
        neg, pos = " & ~" + name + end, " & " + name + end
        texts = [t + neg for t in texts] + [t + pos for t in texts]
    return tuple(texts)


# --- finite algebras of formulas -------------------------------------------


class FormulaAlgebra(Partition):
    """A finite algebra of formulas, held by its basis.

    The basis blocks partition the atoms; the algebra's members are exactly
    the unions of basis blocks, so closure under negation, conjunction and
    disjunction holds by construction.
    """

    _fields = ("lang", "basis")
    __slots__ = ("lang",)
    _element, _full, _check_element = Formula, attrgetter("full_mask"), staticmethod(_check_lang)
    _noun, _overlap = "atom", "basis blocks overlap: {} is not disjoint from earlier blocks"

    def __init__(self, lang: Language, basis: Iterable[Formula]):
        require_type(lang, Language, "algebra language")
        self._fill(lang, basis, LanguageMismatchError, "language")

    def members(self) -> Iterator[Formula]:
        """Every member, i.e. all unions of basis blocks (2**k of them)."""
        for chosen in itertools.product((False, True), repeat=len(self.masks)):
            mask = 0
            for pick, block in zip(chosen, self.masks):
                if pick:
                    mask |= block
            yield Formula(self.lang, mask)


def full_algebra(lang: Language) -> FormulaAlgebra:
    """The algebra of all formulas: basis blocks are the single atoms, whose masks the
    language shares (``_atoms.singles``).  They partition the atoms, so they are not checked."""
    require_type(lang, Language, "algebra language")
    return FormulaAlgebra._of(lang, lang._atoms.singles)


def trivial_algebra(lang: Language) -> FormulaAlgebra:
    """The two-member algebra {false, true}."""
    return FormulaAlgebra(lang, (true_formula(lang),))


def _sorted_blocks(masks: Iterable[int], lang: Language) -> tuple[Formula, ...]:
    return tuple(Formula(lang, m) for m in sorted(masks, key=low_bit))


def generate_algebra(generators: Iterable[Formula], lang: Language) -> FormulaAlgebra:
    """Smallest algebra containing the generators.

    Atoms inside exactly the same generators cannot be separated, so each
    generator in turn splits every block into its parts inside and outside
    it.  The cost follows the number of blocks, not the ``2**n`` atoms.
    """
    gens = as_tuple(generators, "generators")
    require_type(lang, Language, "algebra language")
    for g in gens:
        require_type(g, Formula, "generator")
        if g.lang != lang:
            raise LanguageMismatchError("generator belongs to a different language")
    blocks = [lang.full_mask]
    for g in gens:
        blocks = [part for b in blocks for part in (b & g.atoms, b & ~g.atoms) if part]
    return FormulaAlgebra._of(lang, tuple(sorted(blocks, key=low_bit)))  # nonempty, disjoint, covering


def basis_of(member_list: Iterable[Formula]) -> FormulaAlgebra:
    """Build an algebra from an explicit member listing, validating closure.

    The listing must contain ``false`` and ``true`` and be closed under
    negation, conjunction and disjunction; otherwise a ValidationError names
    the violated condition.  Intended for small hand-written listings.
    """
    members = as_tuple(member_list, "members")
    if not members:
        raise ValidationError("empty member list")
    for f in members:
        require_type(f, Formula, "member")
        if f.lang != members[0].lang:
            raise LanguageMismatchError("members belong to different languages")
    lang = members[0].lang
    masks = {f.atoms for f in members}
    if 0 not in masks:
        raise ValidationError('algebra is missing the empty member ("false")')
    if lang.full_mask not in masks:
        raise ValidationError('algebra is missing the full member ("true")')
    for m in masks:
        if lang.full_mask ^ m not in masks:
            raise ValidationError(
                "algebra is not closed under negation: missing "
                f"{format_formula(~Formula(lang, m))}"
            )
    for m1, m2 in itertools.combinations(masks, 2):
        if m1 & m2 not in masks:
            raise ValidationError(
                "algebra is not closed under conjunction: missing "
                f"{format_formula(Formula(lang, m1 & m2))}"
            )
        if m1 | m2 not in masks:
            raise ValidationError(
                "algebra is not closed under disjunction: missing "
                f"{format_formula(Formula(lang, m1 | m2))}"
            )
    return generate_algebra([Formula(lang, m) for m in sorted(masks)], lang)

