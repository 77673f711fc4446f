"""Language, formula parsing/printing, and formula algebras."""

import copy
import gc
import pickle
import random
import re
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from probstruct import (
    Formula,
    FormulaAlgebra,
    FormulaSyntaxError,
    Language,
    LanguageMismatchError,
    ProbabilityStructure,
    SampleSpace,
    UnknownPropositionError,
    ValidationError,
    basis_of,
    ds_to_ic,
    false_formula,
    format_formula,
    from_json,
    full_algebra,
    generate_algebra,
    ic_to_ds,
    interval,
    parse_formula,
    to_json,
    trivial_algebra,
    true_formula,
)
from probstruct.cli import main
import probstruct.logic as logic
from probstruct.logic import (
    MAX_NESTING,
    _atom_text,
    _atom_texts,
    _parse_tokens,
    _prop_masks,
    _read_atoms,
    _sorted_blocks,
)

GD = Language(("g", "d"))


def oracle_atoms(text: str, lang: Language) -> int:
    """Independent truth-table evaluation of formula text.

    Translates the connectives to Python's and evaluates the text under
    every atom's assignment; shares no code with the parser.
    """
    python_text = text.replace("~", " not ").replace("&", " and ").replace("|", " or ")
    mask = 0
    for k in range(lang.n_atoms):
        env = {name: bool((k >> j) & 1) for j, name in enumerate(lang.props)}
        env["true"] = True
        env["false"] = False
        if eval(python_text, {"__builtins__": {}}, env):
            mask |= 1 << k
    return mask


# The recursive-descent parser that ``parse_formula``'s one-pass loop
# replaced, kept whole with its positioned tokenizer: the loop must give the
# same mask, or the same exception type, text and position, on any text.

_ORACLE_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[~&|()]))")


def oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
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
def oracle_prop_masks(lang):
    """Bit ``k`` of mask ``j`` is bit ``j`` of atom index ``k``, by brute force."""
    masks = [0] * len(lang.props)
    for k in range(lang.n_atoms):
        for j in range(len(lang.props)):
            if (k >> j) & 1:
                masks[j] |= 1 << k
    return tuple(masks)


class OracleParser:
    def __init__(self, text, lang):
        self.text = text
        self.lang = lang
        self.tokens = oracle_tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def parse(self):
        mask = self.expr()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
        return mask

    def expr(self):
        mask = self.term()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "|":
                return mask
            self.next()
            mask |= self.term()

    def term(self):
        mask = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "&":
                return mask
            self.next()
            mask &= self.factor()

    def factor(self):
        flip = 0
        kind, value, pos = self.next()
        while value == "~":
            flip ^= self.lang.full_mask
            kind, value, pos = self.next()
        if kind == "op":
            if value != "(":
                raise FormulaSyntaxError(f"unexpected token {value!r}", pos)
            if self.depth == MAX_NESTING:
                raise FormulaSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
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
            mask = oracle_prop_masks(self.lang)[j]
        return flip ^ mask


def outcome(parse, text, lang):
    """The mask, or the exception's type, text and position."""
    try:
        return parse(text, lang)
    except FormulaSyntaxError as e:
        return type(e), str(e), e.position


# --- languages ---------------------------------------------------------------


def test_language_rejects_bad_names():
    with pytest.raises(ValidationError):
        Language(("g", "g"))
    with pytest.raises(ValidationError):
        Language(("2x",))
    with pytest.raises(ValidationError):
        Language(("a b",))
    with pytest.raises(ValidationError):
        Language(("true",))


def test_language_size_bounds():
    with pytest.raises(ValidationError):
        Language(())
    with pytest.raises(ValidationError):
        Language(tuple(f"p{i}" for i in range(17)))
    wide = Language(tuple(f"p{i}" for i in range(16)))
    assert wide.n_atoms == 65536


def test_atoms_of():
    atoms = [Formula(GD, 1 << k) for k in range(GD.n_atoms)]
    assert len(atoms) == 4
    assert format_formula(atoms[0]) == "(~g & ~d)"
    assert format_formula(atoms[1]) == "(g & ~d)"
    assert format_formula(atoms[2]) == "(~g & d)"
    assert format_formula(atoms[3]) == "(g & d)"
    assert atoms[3].implies(parse_formula("g", GD)) and atoms[3].implies(parse_formula("d", GD))
    assert parse_formula("g & ~d", GD) == atoms[1]


# --- parsing against the truth-table oracle ----------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "~d",
        "g",
        "g & d",
        "g | d",
        "~(g | d)",
        "~g | d & g",
        "(~g & ~d) | (g & ~d)",
        "~~g",
        "true",
        "false",
        "g & true",
        "g & false",
        "~(~g & ~d)",
    ],
)
def test_parse_matches_truth_table(text):
    assert parse_formula(text, GD).atoms == oracle_atoms(text, GD)


def test_parse_canonical_equalities():
    # same atom set, also confirmed by the oracle
    assert parse_formula("~d", GD) == parse_formula("(~g & ~d) | (g & ~d)", GD)
    assert parse_formula("g | ~g", GD) == true_formula(GD)
    assert parse_formula("g & ~g", GD) == false_formula(GD)


def test_precedence_and_binds_tighter():
    # a | b & c reads a | (b & c)
    lang = Language(("a", "b", "c"))
    assert parse_formula("a | b & c", lang) == parse_formula("a | (b & c)", lang)
    assert parse_formula("a | b & c", lang) != parse_formula("(a | b) & c", lang)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("g &", GD)
    assert err.value.position == 3
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("g ! d", GD)
    assert err.value.position == 2
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(g & d", GD)
    assert err.value.position == 6
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("g d", GD)
    assert err.value.position == 2
    with pytest.raises(FormulaSyntaxError):
        parse_formula("", GD)


def test_parse_long_negation_runs_fold_to_parity():
    a = Language(("a",))
    assert parse_formula("~" * 3000 + "a", a) == parse_formula("a", a)
    assert parse_formula("~" * 3001 + "a", a) == parse_formula("~a", a)
    assert parse_formula("~ ~(~~a)", a) == parse_formula("a", a)


def nested(depth: int) -> str:
    return "(" * depth + "a" + ")" * depth


def test_parse_nesting_limit():
    a = Language(("a",))
    assert MAX_NESTING == 100
    assert parse_formula(nested(100), a) == parse_formula("a", a)
    for depth in (101, 5000):
        with pytest.raises(FormulaSyntaxError, match="nested deeper than 100"):
            parse_formula(nested(depth), a)


def test_parse_command_rejects_deep_nesting(capsys):
    assert main(["parse", "--props", "a", nested(5000)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_unknown_proposition():
    with pytest.raises(UnknownPropositionError) as err:
        parse_formula("g & q", GD)
    assert err.value.name == "q"
    assert err.value.position == 4


_PIECES = (
    ["a", "b", "c", "a", "b", "c", "true", "false", "d", "zz", "a1", "_x", "True"]
    + ["~", "~", "&", "&", "|", "|", "(", "(", ")", ")", " ", "\t\n", ""]
)
_BAD = ["$", "1a", "9", "\u00e9", "a\u00e9", "!"]


def random_formula(rng, depth=4):
    """Well-formed formula text."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["a", "b", "c", "true", "false"])
    op = rng.choice(["~", "&", "|", "()"])
    if op == "~":
        return "~" * rng.randint(1, 3) + random_formula(rng, depth - 1)
    if op == "()":
        return "(" + random_formula(rng, depth - 1) + ")"
    return f"{random_formula(rng, depth - 1)} {op} {random_formula(rng, depth - 1)}"


def random_text(rng):
    """Formula tokens, a bad one in some, joined with or without spaces."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["", " ", "\t\n", "a ", "a\t\n "]) + rng.choice(["", " "])
    if roll > 0.7:
        parts = [random_formula(rng)]
    else:
        parts = [rng.choice(_PIECES) for _ in range(rng.randint(1, 12))]
    if rng.random() < 0.25:
        parts.insert(rng.randint(0, len(parts)), rng.choice(_BAD))
    if roll < 0.2:
        parts.insert(rng.randint(0, len(parts)), "~" * rng.randint(50, 400))
    if roll < 0.35:
        depth = rng.choice([99, 100, 101, rng.randint(1, 102)])
        closing = depth - rng.choice([0, 0, 0, 1, -1])
        parts = ["(" * depth] + parts + [")" * closing]
    sep = rng.choice(["", " ", "  "])
    return sep.join(parts) + rng.choice(["", "", " ", "\t\n"])


def test_parse_matches_recursive_oracle():
    lang = Language(("a", "b", "c"))
    rng = random.Random(20131126)
    texts = [random_text(rng) for _ in range(20000)]
    texts += ["", " ", "a ", nested(99), nested(100), nested(101), "(" * 100 + "a", "((a)"]
    errors = 0
    for text in texts:
        want = outcome(lambda t, lg: OracleParser(t, lg).parse(), text, lang)
        got = outcome(lambda t, lg: parse_formula(t, lg).atoms, text, lang)
        assert got == want, text
        errors += isinstance(want, tuple)
    assert 0.2 * len(texts) < errors < 0.95 * len(texts)


# Text in the reader's shape (full conjunctions joined by " | "), and near
# misses of it.  The names include prefixes of one another and a name that
# differs from another only in case.
_READER_PROPS = ("a", "ab", "B", "b", "c9", "_x")


def reader_text(rng, props):
    """A disjunction of atoms, literals in canonical or shuffled order."""
    n = len(props)
    terms = []
    for _ in range(rng.randint(1, 5)):
        k = rng.randrange(1 << n)
        literals = [p if k >> j & 1 else "~" + p for j, p in enumerate(props)]
        if rng.random() < 0.5:
            rng.shuffle(literals)
        term = " & ".join(literals)
        terms.append(f"({term})" if n > 1 or rng.random() < 0.3 else term)
    return " | ".join(terms)


def _literal_edit(rng, props, literals):
    j = rng.randrange(len(literals))
    lit = literals[j]
    name = lit.lstrip("~")
    edits = [
        lambda: literals.pop(j),  # a proposition missing
        lambda: literals.insert(j, rng.choice(literals)),  # repeated literal
        lambda: literals.insert(j, "~" + name if lit == name else name),  # a & ~a
        lambda: literals.__setitem__(j, rng.choice(props)),  # repeated proposition
        lambda: literals.__setitem__(j, "~~" + lit),
        lambda: literals.__setitem__(j, "~ " + name),
        lambda: literals.__setitem__(j, "(" + lit + ")"),
        lambda: literals.__setitem__(j, rng.choice(["true", "false", "zz", "A", "a_", "p9"])),
        lambda: literals.__setitem__(j, lit + rng.choice(["", " ", "  "]) + "&"),
    ]
    rng.choice(edits)()


def near_miss(rng, props):
    """Reader-shaped text with one or two small edits; about half the
    results are still well formed."""
    text = reader_text(rng, props)
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if roll < 0.45:
            terms = text.split(" | ")
            i = rng.randrange(len(terms))
            term = terms[i]
            wrapped = term[:1] == "(" and term[-1:] == ")"
            literals = (term[1:-1] if wrapped else term).split(" & ")
            _literal_edit(rng, props, literals)
            term = " & ".join(literals)
            terms[i] = f"({term})" if wrapped else term
            text = " | ".join(terms)
        elif roll < 0.6:  # parentheses: doubled, unbalanced or around everything
            text = rng.choice(["(({}))", "({}", "{})", "({})", "(({})"]).format(text)
        elif roll < 0.8:  # separators spaced otherwise
            old = rng.choice([" | ", " & ", "(", ")"])
            new = rng.choice(["|", "&", " ", "  |  ", " &  ", "( ", " )", "", "$"])
            text = text.replace(old, new, rng.randint(1, 2))
        else:  # one character in or out
            at = rng.randint(0, len(text))
            if rng.random() < 0.5:
                text = text[:at] + rng.choice(" ~&|()a$\t") + text[at:]
            else:
                text = text[:at] + text[at + 1:]
    return text


def test_reader_matches_parser_and_oracle():
    rng = random.Random(1126)
    cases = []
    for _ in range(21000):
        lang = Language(_READER_PROPS[: rng.randint(1, 6)])
        make = reader_text if rng.random() < 0.3 else near_miss
        cases.append((make(rng, lang.props), lang))
    cases += [(t, Language(("a",))) for t in ["a", "~a", "(a)", "((a))", "a | ~a", "", " "]]
    read = errors = 0
    for text, lang in cases:
        want = outcome(lambda t, lg: OracleParser(t, lg).parse(), text, lang)
        assert outcome(lambda t, lg: parse_formula(t, lg).atoms, text, lang) == want, text
        assert outcome(_parse_tokens, text, lang) == want, text
        mask = _read_atoms(text, lang)
        if mask is not None:
            assert mask == want, text
            read += 1
        errors += isinstance(want, tuple)
    # the reader takes the reader-shaped texts and a few near misses; the
    # parser gets well-formed near misses and the errors
    assert 0.25 * len(cases) < read < 0.5 * len(cases)
    assert 0.3 * len(cases) < errors < 0.6 * len(cases)
    assert len(cases) - read - errors > 0.1 * len(cases)


@pytest.mark.parametrize("n", [12, 16])
def test_reader_reads_full_size_keys(n):
    lang = Language(tuple(f"p{j}" for j in range(n)))
    rng = random.Random(n)
    for k in [0, lang.n_atoms - 1] + rng.sample(range(lang.n_atoms), 20):
        atom = Formula(lang, 1 << k)
        texts = [format_formula(atom)]
        literals = texts[0][1:-1].split(" & ")
        rng.shuffle(literals)
        texts.append(" & ".join(literals))
        texts.append(" | ".join([texts[0], f"({texts[1]})", texts[0]]))
        for text in texts:
            want = OracleParser(text, lang).parse()
            assert want == 1 << k
            assert _read_atoms(text, lang) == want == _parse_tokens(text, lang)
        # one literal flipped twice, or dropped, is left to the parser
        assert _read_atoms(" & ".join(["~~" + literals[0]] + literals[1:]), lang) is None
        assert _read_atoms(" & ".join(literals[1:]), lang) is None


def test_prop_masks_match_nested_loop():
    for n in range(1, 11):
        lang = Language(tuple(f"p{j}" for j in range(n)))
        assert _prop_masks(lang) == oracle_prop_masks(lang)
    lang = Language(tuple(f"p{j}" for j in range(16)))
    masks = _prop_masks(lang)
    assert all(m.bit_length() <= lang.n_atoms for m in masks)
    rng = random.Random(16)
    for k in [0, lang.n_atoms - 1] + rng.sample(range(lang.n_atoms), 2000):
        for j, m in enumerate(masks):
            assert (m >> k) & 1 == (k >> j) & 1


# --- printing ----------------------------------------------------------------


def test_format_extremes():
    assert format_formula(false_formula(GD)) == "false"
    assert format_formula(true_formula(GD)) == "true"


def test_format_single_atom():
    assert format_formula(Formula(GD, 0b0001)) == "(~g & ~d)"
    assert format_formula(parse_formula("~d", GD)) == "(~g & ~d) | (g & ~d)"


def test_format_one_prop_language_drops_parens():
    lang = Language(("p",))
    assert format_formula(parse_formula("~p", lang)) == "~p"
    assert format_formula(parse_formula("p", lang)) == "p"


@pytest.mark.parametrize("n", range(1, 9))
def test_atom_text_table_matches_atom_text(n):
    lang = Language(tuple(f"p{j}" for j in range(n)))
    wrapped = "({})" if n > 1 else "{}"
    assert _atom_texts(lang) == tuple(wrapped.format(_atom_text(lang, k)) for k in range(lang.n_atoms))


@pytest.mark.parametrize("n", range(1, 13))
def test_the_shared_atom_tables_match_their_oracles(n):
    lang = Language(tuple(f"p{j}" for j in range(n)))
    tables = lang._atoms
    wrapped = "({})" if n > 1 else "{}"
    assert tables.spelled == tuple(wrapped.format(_atom_text(lang, k)) for k in range(lang.n_atoms))
    assert len(tables.index) == lang.n_atoms
    assert all(tables.spelled[k] == text for text, k in tables.index.items())
    assert tables.singles == tuple(1 << k for k in range(lang.n_atoms))
    assert full_algebra(lang).masks is tables.singles
    assert tables.names == dict(zip(lang.props, oracle_prop_masks(lang)), true=lang.full_mask, false=0)
    assert {type(tables.spelled), type(tables.singles)} == {tuple}


def test_equal_proposition_lists_share_one_table_entry():
    a, b = Language(("p", "q")), Language(["p", "q"])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a._atoms is b._atoms is logic._TABLES[("p", "q")]
    copies = [pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]
    assert all(c == a and c._atoms is a._atoms for c in copies)
    others = [Language(("q", "p")), Language(("p", "q", "r")), Language(("p",))]
    assert len({id(lang._atoms) for lang in [a, *others]}) == 4
    assert "_atoms" not in repr(a) and a.__reduce__() == (Language, (("p", "q"),))


def test_a_language_builds_its_tables_only_when_none_live(monkeypatch):
    built, tables = [], logic._AtomTables
    monkeypatch.setattr(logic, "_AtomTables", lambda props: built.append(props) or tables(props))
    props = ("once_a", "once_b")  # names no other test's language holds
    a, b = Language(props), Language(list(props))
    assert built == [props] and a._atoms is b._atoms
    assert b.props is a.props is a._atoms.props  # each language holds the names the tables hold


def test_the_table_entry_goes_with_the_last_language_over_it():
    """No reference cycle holds the tables: they go as soon as the last language,
    or the last structure over it, does, with the cyclic collector off."""
    props = ("entry_a", "entry_b", "entry_c")
    enabled = gc.isenabled()
    gc.disable()
    try:
        a, b = Language(props), Language(props)
        space = SampleSpace(("w1",))
        images = [space.everything()] + [space.nothing()] * 7
        ds = ProbabilityStructure.ds(space, (space.everything(),), (1,), a, images)
        vacuous = ProbabilityStructure.ic(space, (1,), trivial_algebra(b), (space.everything(),))
        # a canonical ds load reads the spelled texts, its ic's the index, ic_to_ds the atom worlds
        loaded = [from_json(to_json(ds)), from_json(to_json(ds_to_ic(ds))), from_json(to_json(vacuous))]
        assert [interval(st, true_formula(st.lang)).lo for st in loaded] == [1, 1, 1]
        assert [st.psi.basis[0] for st in loaded] == [Formula(a, 1), Formula(a, 1), true_formula(a)]
        assert ic_to_ds(loaded[1]).ps.space is a._atoms.space
        entry = weakref.ref(a._atoms)
        assert {"spelled", "index", "singles", "space"} <= set(vars(entry()))
        del a, ds, vacuous
        assert logic._TABLES[props] is entry() is b._atoms
        del b
        assert entry() is loaded[2].lang._atoms  # each structure holds its own language
        del loaded
        assert entry() is None and props not in logic._TABLES
        Language(props)  # a new entry, gone with its language
        assert props not in logic._TABLES
    finally:
        if enabled:
            gc.enable()


def test_format_formula_builds_no_table(monkeypatch):
    def refuse(lang):
        raise AssertionError("format_formula built the table of every atom")

    monkeypatch.setattr(logic, "_atom_texts", refuse)
    lang = Language(tuple(f"p{j}" for j in range(16)))
    assert format_formula(Formula(lang, 1)) == "(" + " & ".join(f"~p{j}" for j in range(16)) + ")"
    assert format_formula(parse_formula("~d", GD)) == "(~g & ~d) | (g & ~d)"


def test_format_parse_round_trip_exhaustive_two_props():
    for mask in range(16):
        f = Formula(GD, mask)
        assert parse_formula(format_formula(f), GD) == f


# --- connectives -------------------------------------------------------------


def test_connective_functions():
    g = parse_formula("g", GD)
    d = parse_formula("d", GD)
    assert g & d == parse_formula("g & d", GD)
    assert g | d == parse_formula("g | d", GD)
    assert ~g == parse_formula("~g", GD)
    assert (g | ~g).is_true
    assert (g & ~g).is_false


def test_formula_bitmask_must_be_in_range():
    for atoms in (16, -1):
        with pytest.raises(ValidationError) as err:
            Formula(GD, atoms)
        assert str(err.value) == f"atom bitmask {atoms} out of range"


def test_connectives_reject_language_mixes():
    other = Language(("g", "e"))
    with pytest.raises(LanguageMismatchError):
        parse_formula("g", GD) & parse_formula("g", other)
    with pytest.raises(LanguageMismatchError):
        parse_formula("g", GD) | parse_formula("g", other)


def test_implies_is_atom_subset():
    narrow = parse_formula("g & d", GD)
    wide = parse_formula("g", GD)
    assert narrow.implies(wide)
    assert not wide.implies(narrow)
    assert false_formula(GD).implies(narrow)
    assert wide.implies(true_formula(GD))


def test_de_morgan_exhaustive_two_props():
    for a in range(16):
        for b in range(16):
            fa, fb = Formula(GD, a), Formula(GD, b)
            assert ~(fa & fb) == ~fa | ~fb
            assert ~(fa | fb) == ~fa & ~fb


@st.composite
def formulas(draw, max_props: int = 3):
    n = draw(st.integers(min_value=1, max_value=max_props))
    lang = Language(tuple(f"p{i + 1}" for i in range(n)))
    mask = draw(st.integers(min_value=0, max_value=lang.full_mask))
    return Formula(lang, mask)


@given(formulas())
def test_complement_involution(f):
    assert ~~f == f
    assert (f | ~f).is_true
    assert (f & ~f).is_false


@given(formulas())
def test_format_parse_round_trip(f):
    assert parse_formula(format_formula(f), f.lang) == f


@given(formulas(max_props=2), st.integers(min_value=0, max_value=15))
def test_de_morgan_random(f, mask):
    other = Formula(f.lang, mask & f.lang.full_mask)
    assert ~(f & other) == ~f | ~other


# --- algebras ----------------------------------------------------------------


def test_algebra_basis_must_partition():
    g = parse_formula("g", GD)
    with pytest.raises(ValidationError) as err:
        FormulaAlgebra(GD, (g, parse_formula("g | d", GD)))  # overlap
    assert str(err.value) == (
        "basis blocks overlap: (g & ~d) | (~g & d) | (g & d) is not disjoint from earlier blocks"
    )
    with pytest.raises(ValidationError) as err:
        FormulaAlgebra(GD, (g,))  # atoms uncovered
    assert str(err.value) == "basis blocks do not cover every atom"
    with pytest.raises(ValidationError) as err:
        FormulaAlgebra(GD, (g, ~g, false_formula(GD)))  # empty block
    assert str(err.value) == "basis blocks must be nonempty"


def test_trivial_and_full_algebras():
    assert [f.atoms for f in trivial_algebra(GD).members()] == [0, 15]
    assert len(list(full_algebra(GD).members())) == 16


@pytest.mark.parametrize("n", range(1, 13))
def test_full_algebra_equals_the_checked_construction(n):
    lang = Language(tuple(f"p{j}" for j in range(n)))
    algebra = full_algebra(lang)
    assert algebra == FormulaAlgebra(lang, [Formula(lang, 1 << k) for k in range(lang.n_atoms)])
    assert type(algebra.basis) is tuple
    assert all(block.lang is lang for block in algebra.basis)


def test_full_algebra_refuses_a_language_that_is_not_one():
    for lang in (5, ("g", "d"), None):
        with pytest.raises(ValidationError, match="algebra language must be Language"):
            full_algebra(lang)


def test_generate_algebra_from_two_singleton_blocks():
    # separating two atoms lumps the rest into one block
    gens = [Formula(GD, 0b0100), Formula(GD, 0b0001)]
    algebra = generate_algebra(gens, GD)
    assert [b.atoms for b in algebra.basis] == [0b0001, 0b1010, 0b0100]
    assert sorted(f.atoms for f in algebra.members()) == [0, 1, 4, 5, 10, 11, 14, 15]


def test_generate_algebra_no_generators_is_trivial():
    assert generate_algebra([], GD).basis == trivial_algebra(GD).basis


def test_generate_algebra_fixpoint():
    algebra = generate_algebra([parse_formula("g", GD), parse_formula("g & d", GD)], GD)
    again = generate_algebra(list(algebra.members()), GD)
    assert again.basis == algebra.basis


def _algebra_by_atom_signature(gens, lang):
    """The per-atom reference for ``generate_algebra``: the atoms inside
    exactly the same generators make one block."""
    classes: dict[int, int] = {}
    for k in range(lang.n_atoms):
        sig = 0
        for i, g in enumerate(gens):
            if (g.atoms >> k) & 1:
                sig |= 1 << i
        classes[sig] = classes.get(sig, 0) | (1 << k)
    return FormulaAlgebra(lang, _sorted_blocks(classes.values(), lang))


def _random_generator(rng, lang):
    """Any atom set, a few atoms, or ``false`` or ``true``."""
    kind = rng.randrange(3)
    if kind == 0:
        return Formula(lang, rng.getrandbits(lang.n_atoms))
    if kind == 1:
        return Formula(lang, sum({1 << rng.randrange(lang.n_atoms) for _ in range(3)}))
    return Formula(lang, rng.choice((0, lang.full_mask)))


@pytest.mark.parametrize("n", range(1, 13))
def test_generate_algebra_matches_the_atom_signature_oracle(n):
    rng = random.Random(1700 + n)
    lang = Language(tuple(f"p{j}" for j in range(n)))
    for _ in range(20):
        gens = [_random_generator(rng, lang) for _ in range(rng.randint(0, 5))]
        assert generate_algebra(gens, lang) == _algebra_by_atom_signature(gens, lang)


def test_generate_algebra_matches_the_atom_signature_oracle_at_16_propositions():
    rng = random.Random(1716)
    lang = Language(tuple(f"p{j}" for j in range(16)))
    gens = [Formula(lang, mask) for mask in _prop_masks(lang)[:2]]
    gens += [_random_generator(rng, lang), Formula(lang, rng.getrandbits(lang.n_atoms))]
    algebra = generate_algebra(gens, lang)
    assert algebra == _algebra_by_atom_signature(gens, lang)
    assert len(algebra.basis) > 4


def test_generate_algebra_refuses_a_generator_of_another_language():
    with pytest.raises(LanguageMismatchError) as err:
        generate_algebra([parse_formula("g", GD), parse_formula("g", Language(("g",)))], GD)
    assert str(err.value) == "generator belongs to a different language"


def test_algebra_member():
    algebra = generate_algebra([Formula(GD, 0b0100), Formula(GD, 0b0001)], GD)
    assert algebra.member(parse_formula("~g & ~d", GD))
    assert algebra.member(parse_formula("(g & ~d) | (g & d)", GD))
    assert algebra.member(true_formula(GD))
    assert algebra.member(false_formula(GD))
    assert not algebra.member(parse_formula("~d", GD))
    with pytest.raises(LanguageMismatchError):
        algebra.member(parse_formula("p", Language(("p",))))


def test_basis_of_explicit_listing():
    texts = [
        "false",
        "~g & d",
        "~g & ~d",
        "(g & ~d) | (g & d)",
        "(~g & ~d) | (~g & d)",
        "(~g & d) | (g & ~d) | (g & d)",
        "(~g & ~d) | (g & ~d) | (g & d)",
        "true",
    ]
    algebra = basis_of([parse_formula(t, GD) for t in texts])
    assert [format_formula(b) for b in algebra.basis] == [
        "(~g & ~d)",
        "(g & ~d) | (g & d)",
        "(~g & d)",
    ]
    assert {f.atoms for f in algebra.members()} == {
        parse_formula(t, GD).atoms for t in texts
    }


def test_basis_of_requires_false_and_true():
    with pytest.raises(ValidationError, match="false"):
        basis_of([true_formula(GD), parse_formula("g", GD), parse_formula("~g", GD)])
    with pytest.raises(ValidationError, match="true"):
        basis_of([false_formula(GD), parse_formula("g", GD), parse_formula("~g", GD)])
    with pytest.raises(ValidationError):
        basis_of([])


def test_basis_of_requires_closure():
    with pytest.raises(ValidationError, match="not closed under negation"):
        basis_of([false_formula(GD), parse_formula("g", GD), true_formula(GD)])
    with pytest.raises(ValidationError, match="not closed under"):
        basis_of(
            [
                parse_formula(t, GD)
                for t in ["false", "~g & ~d", "g & ~d", "~(~g & ~d)", "~(g & ~d)", "true"]
            ]
        )
    # each fault named with the first member found missing
    lang = Language(("a0", "a1"))
    for texts, message in (
        (["false", "a0 & a1", "true"], "negation: missing (~a0 & ~a1) | (a0 & ~a1) | (~a0 & a1)"),
        (["false", "true", "a0", "~a0", "a1", "~a1"], "conjunction: missing (~a0 & ~a1)"),
        (
            ["false", "true", "~a0 & ~a1", "a0 & ~a1", "a0 | a1", "~a0 | a1"],
            "disjunction: missing (~a0 & ~a1) | (a0 & ~a1)",
        ),
    ):
        with pytest.raises(ValidationError) as err:
            basis_of([parse_formula(t, lang) for t in texts])
        assert str(err.value) == "algebra is not closed under " + message


def test_basis_of_refuses_members_of_two_languages():
    with pytest.raises(LanguageMismatchError) as err:
        basis_of([false_formula(GD), true_formula(GD), true_formula(Language(("g",)))])
    assert str(err.value) == "members belong to different languages"


def test_basis_partition_properties():
    algebra = generate_algebra([parse_formula("g | d", GD)], GD)
    covered = 0
    for block in algebra.basis:
        assert block.atoms
        assert covered & block.atoms == 0
        covered |= block.atoms
    assert covered == GD.full_mask
