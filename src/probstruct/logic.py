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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    FormulaSyntaxError,
    LanguageMismatchError,
    UnknownPropositionError,
    ValidationError,
)

MAX_PROPS = 16
MAX_NESTING = 100  # deepest parenthesis nesting the parser accepts

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = frozenset({"true", "false"})


@dataclass(frozen=True)
class Language:
    """An ordered, finite set of distinct proposition names."""

    props: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "props", tuple(self.props))
        if not 1 <= len(self.props) <= MAX_PROPS:
            raise ValidationError(
                f"a language needs between 1 and {MAX_PROPS} propositions, "
                f"got {len(self.props)}"
            )
        seen = set()
        for name in self.props:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValidationError(f"invalid proposition name {name!r}")
            if name in _RESERVED:
                raise ValidationError(f"proposition name {name!r} is reserved")
            if name in seen:
                raise ValidationError(f"duplicate proposition name {name!r}")
            seen.add(name)

    @property
    def n_atoms(self) -> int:
        return 1 << len(self.props)

    @property
    def full_mask(self) -> int:
        """Bitmask selecting every atom."""
        return (1 << self.n_atoms) - 1


def _atom_text(lang: Language, index: int) -> str:
    parts = []
    for j, name in enumerate(lang.props):
        parts.append(name if (index >> j) & 1 else "~" + name)
    return " & ".join(parts)


@dataclass(frozen=True)
class Formula:
    """A sentence in canonical form: the set of atoms on which it holds.

    ``atoms`` is a bitmask over atom indices.  The connectives are the
    operators ``~f``, ``f & g`` and ``f | g``.
    """

    lang: Language
    atoms: int

    def __post_init__(self):
        if not isinstance(self.atoms, int) or not 0 <= self.atoms <= self.lang.full_mask:
            raise ValidationError(f"atom bitmask {self.atoms!r} out of range")

    @property
    def is_false(self) -> bool:
        return self.atoms == 0

    @property
    def is_true(self) -> bool:
        return self.atoms == self.lang.full_mask

    def atom_indices(self) -> Iterator[int]:
        """Indices of the atoms on which the sentence holds, ascending."""
        bits = self.atoms
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

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
    if a.lang != b.lang:
        raise LanguageMismatchError(
            f"values belong to different languages: {a.lang.props} vs {b.lang.props}"
        )


def true_formula(lang: Language) -> Formula:
    return Formula(lang, lang.full_mask)


def false_formula(lang: Language) -> Formula:
    return Formula(lang, 0)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[~&|()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # nothing but whitespace may remain
            rest = text[pos:]
            stripped = rest.lstrip()
            if not stripped:
                break
            at = pos + (len(rest) - len(stripped))
            raise FormulaSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


@lru_cache(maxsize=None)
def _prop_masks(lang: Language) -> tuple[int, ...]:
    """For each proposition, the bitmask of atoms that make it positive."""
    masks = [0] * len(lang.props)
    for k in range(lang.n_atoms):
        for j in range(len(lang.props)):
            if (k >> j) & 1:
                masks[j] |= 1 << k
    return tuple(masks)


class _Parser:
    def __init__(self, text: str, lang: Language):
        self.text = text
        self.lang = lang
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open around the current position

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> int:
        mask = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return mask

    def expr(self) -> int:
        mask = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "|":
                return mask
            self.next()
            mask |= self.term()

    def term(self) -> int:
        mask = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "&":
                return mask
            self.next()
            mask &= self.factor()

    def factor(self) -> int:
        # a run of '~' folds to its parity, so it costs no recursion
        flip = 0
        kind, value, pos = self.next()
        while value == "~":
            flip ^= self.lang.full_mask
            kind, value, pos = self.next()
        if kind == "op":
            if value != "(":
                raise FormulaSyntaxError(f"unexpected token {value!r}", pos)
            if self.depth == MAX_NESTING:
                raise FormulaSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos
                )
            self.depth += 1
            mask = self.expr()
            self.depth -= 1
            tok = self.peek()
            if tok is None or tok[1] != ")":
                where = tok[2] if tok else len(self.text)
                raise FormulaSyntaxError("expected ')'", where)
            self.next()
        elif value == "true":
            mask = self.lang.full_mask
        elif value == "false":
            mask = 0
        else:
            try:
                j = self.lang.props.index(value)
            except ValueError:
                raise UnknownPropositionError(value, pos) from None
            mask = _prop_masks(self.lang)[j]
        return flip ^ mask


def parse_formula(text: str, lang: Language) -> Formula:
    """Parse formula text into its canonical atom set."""
    return Formula(lang, _Parser(text, lang).parse())


def format_formula(f: Formula) -> str:
    """Canonical text: disjunction of atom conjunctions in index order."""
    if f.is_false:
        return "false"
    if f.is_true:
        return "true"
    multi = len(f.lang.props) > 1
    terms = []
    for k in f.atom_indices():
        text = _atom_text(f.lang, k)
        terms.append(f"({text})" if multi else text)
    return " | ".join(terms)


# --- finite algebras of formulas -------------------------------------------


@dataclass(frozen=True)
class FormulaAlgebra:
    """A finite algebra of formulas, held by its basis.

    The basis blocks partition the atoms; the algebra's members are exactly
    the unions of basis blocks, so closure under negation, conjunction and
    disjunction holds by construction.
    """

    lang: Language
    basis: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        covered = 0
        for block in self.basis:
            if block.lang != self.lang:
                raise LanguageMismatchError("basis block belongs to a different language")
            if block.is_false:
                raise ValidationError("basis blocks must be nonempty")
            if covered & block.atoms:
                raise ValidationError(
                    f"basis blocks overlap: {format_formula(block)} is not disjoint "
                    "from earlier blocks"
                )
            covered |= block.atoms
        if covered != self.lang.full_mask:
            raise ValidationError("basis blocks do not cover every atom")

    def member(self, f: Formula) -> bool:
        """True iff ``f`` is a union of basis blocks."""
        _check_lang(self, f)
        covered = 0
        for block in self.basis:
            if block.atoms & ~f.atoms == 0:
                covered |= block.atoms
        return covered == f.atoms

    def members(self) -> Iterator[Formula]:
        """Every member, i.e. all unions of basis blocks (2**k of them)."""
        for chosen in itertools.product((False, True), repeat=len(self.basis)):
            mask = 0
            for pick, block in zip(chosen, self.basis):
                if pick:
                    mask |= block.atoms
            yield Formula(self.lang, mask)


def full_algebra(lang: Language) -> FormulaAlgebra:
    """The algebra of all formulas: basis blocks are the single atoms."""
    return FormulaAlgebra(lang, tuple(Formula(lang, 1 << k) for k in range(lang.n_atoms)))


def trivial_algebra(lang: Language) -> FormulaAlgebra:
    """The two-member algebra {false, true}."""
    return FormulaAlgebra(lang, (true_formula(lang),))


def _sorted_blocks(masks: Iterable[int], lang: Language) -> tuple[Formula, ...]:
    # canonical basis order: ascending lowest atom index
    return tuple(Formula(lang, m) for m in sorted(masks, key=lambda m: m & -m))


def generate_algebra(generators: Iterable[Formula], lang: Language) -> FormulaAlgebra:
    """Smallest algebra containing the generators.

    Atoms that fall inside exactly the same generators cannot be separated,
    so the basis blocks are the equivalence classes of that relation.
    """
    gens = list(generators)
    for g in gens:
        if g.lang != lang:
            raise LanguageMismatchError("generator belongs to a different language")
    classes: dict[int, int] = {}
    for k in range(lang.n_atoms):
        sig = 0
        for i, g in enumerate(gens):
            if (g.atoms >> k) & 1:
                sig |= 1 << i
        classes[sig] = classes.get(sig, 0) | (1 << k)
    return FormulaAlgebra(lang, _sorted_blocks(classes.values(), lang))


def basis_of(member_list: Iterable[Formula]) -> FormulaAlgebra:
    """Build an algebra from an explicit member listing, validating closure.

    The listing must contain ``false`` and ``true`` and be closed under
    negation, conjunction and disjunction; otherwise a ValidationError names
    the violated condition.  Intended for small hand-written listings.
    """
    members = list(member_list)
    if not members:
        raise ValidationError("empty member list")
    lang = members[0].lang
    for f in members:
        if f.lang != lang:
            raise LanguageMismatchError("members belong to different languages")
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

