"""The benchmark's workloads, and the calls they make into probstruct.

Each workload makes its inputs from the seed (module `gen`), sets up
program state through the public API (`setup`, timed as setup_s) and holds
a fixed list of operations.  An operation has an untraced form, the public
call a user would make, and a traced form, which makes the public calls
that call is made of one at a time, each inside a span.  Its check compares
the output with the oracle; checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import probstruct as ps
from probstruct.cli import main as cli_main

import gen
import oracle
from oracle import Model
from speed import Speed


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]  # state -> output
    traced: Callable[[Any, Any], Any]  # (state, tracer) -> output
    check: Callable[[Any], Optional[str]]  # output -> problem, or None
    known_fault: bool = False  # a problem here counts as a failed operation


# --- traced forms of the public calls ------------------------------------------


def load(text: str, tr=None):
    """`from_json`; traced, the stdlib decode floor, then the unchecked
    build and `validate`, which together are `from_json`."""
    if tr is None:
        return ps.from_json(text)
    tr.count("docio.bytes_in", len(text.encode()))
    tr.call("docio.json_decode", json.loads, text)
    with tr.span("docio.from_json"):
        st = tr.call("docio.from_json.build", ps.from_json, text, check=False)
        report = tr.call("structures.validate", ps.validate, st)
    if not report.ok:
        raise ps.DocumentError("invalid structure: " + "; ".join(report.problems))
    return st


def dump(st, tr=None) -> str:
    if tr is None:
        return ps.to_json(st)
    text = tr.call("docio.to_json", ps.to_json, st)
    tr.count("docio.bytes_out", len(text.encode()))
    return text


def parse(text: str, lang, tr=None):
    if tr is None:
        return ps.parse_formula(text, lang)
    tr.count("logic.parse_calls")
    return tr.call("logic.parse_formula", ps.parse_formula, text, lang)


def t_bel(st, xi, tr):
    """`bel` is `inner_measure` of `incidence`."""
    with tr.span("structures.bel"):
        inc = tr.call("structures.incidence", ps.incidence, st, xi)
        return tr.call("measure.inner_measure", ps.inner_measure, st.ps, inc)


def t_plb(st, xi, tr):
    """`plb` is 1 - `bel` of the negation."""
    with tr.span("structures.plb"):
        return 1 - t_bel(st, ~xi, tr)


def t_interval(st, kind: str, xi, tr):
    """ds: [bel, plb]; ic: the measures of the lower incidence and of the
    complement of the negation's lower incidence."""
    with tr.span("structures.interval"):
        if kind == "ds":
            return ps.Interval(t_bel(st, xi, tr), t_plb(st, xi, tr))
        low = tr.call("structures.incidence", ps.lower_incidence, st, xi)
        not_high = tr.call("structures.incidence", ps.lower_incidence, st, ~xi)
        return ps.Interval(
            tr.call("measure.measure", ps.measure, st.ps, low),
            tr.call("measure.measure", ps.measure, st.ps, ~not_high),
        )


def t_equivalent(a, b, tr):
    report = tr.call("translate.equivalent", ps.equivalent, a, b)
    tr.count("translate.formulas_checked", report.checked_count)
    return report


def t_round_trip(st, kind: str, tr):
    """`round_trip_check`: translate out and back, then `equivalent`.  The
    `is_total` precondition of `ds_to_ic` is called on its own first."""

    def to_ic(ds):
        tr.call("structures.is_total", ps.is_total, ds)
        return tr.call("translate.ds_to_ic", ps.ds_to_ic, ds)

    def to_ds(ic):
        return tr.call("translate.ic_to_ds", ps.ic_to_ds, ic)

    back = to_ic(to_ds(st)) if kind == "ic" else to_ds(to_ic(st))
    return t_equivalent(st, back, tr)


def build(model: Model, tr=None):
    """Structure construction through the public constructors."""
    lang = ps.Language(model.props)
    space = ps.SampleSpace(model.worlds)

    def sets(masks):
        return [ps.WorldSet(space, bits) for bits in masks]

    if model.kind == "ds":
        st = ps.ProbabilityStructure.ds(space, sets(model.mblocks), model.weights, lang, sets(model.images))
    else:
        psi = ps.FormulaAlgebra(lang, tuple(ps.Formula(lang, b) for b in model.fblocks))
        st = ps.ProbabilityStructure.ic(space, model.weights, psi, sets(model.images))
    report = ps.validate(st) if tr is None else tr.call("structures.validate", ps.validate, st)
    if not report.ok:
        raise ps.DocumentError("generated an invalid structure: " + "; ".join(report.problems))
    return st


def count_sizes(models, tr) -> None:
    if tr is not None:
        for m in models:
            tr.count("structures.psi_blocks", len(m.fblocks))
            tr.count("structures.chi_blocks", len(m.mblocks))


def _pair(iv) -> tuple:
    return iv.lo, iv.hi


# --- processes -----------------------------------------------------------------


class Processes:
    """Runs `python -m probstruct.cli` with the working tree's `src` first
    on the path, in a scratch directory of the checkout."""

    def __init__(self, src: Path, work: Path, env: dict):
        self.work = work
        self.env = dict(env)
        self.env["PYTHONPATH"] = str(src) + ("" if "PYTHONPATH" not in env else ":" + env["PYTHONPATH"])

    def python(self, *argv: str) -> tuple[int, str, str]:
        done = subprocess.run(
            [sys.executable, *argv], cwd=self.work, env=self.env, capture_output=True, text=True, timeout=120
        )
        return done.returncode, done.stdout, done.stderr

    def cli(self, argv) -> tuple[int, str, str]:
        return self.python("-m", "probstruct.cli", *argv)

    def floors(self, tr, times: int) -> None:
        """The bare interpreter, and the interpreter importing the CLI."""
        for _ in range(times):
            with tr.span("cli.interpreter"):
                self.python("-c", "pass")
            with tr.span("cli.import"):
                self.python("-c", "import probstruct.cli")


def main_in_process(argv) -> tuple[Optional[int], str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(list(argv))
        except RecursionError:
            rc = None
    return rc, out.getvalue()


# --- workloads -----------------------------------------------------------------


class Workload:
    rusage = resource.RUSAGE_SELF  # whose peak memory is reported

    def speed(self) -> Speed:
        """The reference the untraced run's times are scaled by."""
        return Speed()

    def setup(self, tr=None):
        raise NotImplementedError

    def prepare(self, state) -> None:
        """The benchmark's own work between set-up and the rounds, untimed."""

    def check_setup(self) -> list[str]:
        return []

    def floors(self, tr) -> None:
        """Traced run only: floor measurements made once per round."""

    def post(self, state, tr, problems: list) -> None:
        """Traced run only: per-call layer timings not made by the ops."""


NESTED_NOTS = 3000


class Cli(Workload):
    """CLI processes one after another on documents of at most 3
    propositions: the coats fixtures and generated documents."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, seed: int, procs: Processes):
        rng = random.Random(seed)
        self.procs = procs
        self.models = {
            "A": gen.ds_model(rng, 3, 8, 6, 3),
            "B": gen.ds_model(rng, 3, 8, 6, 3),
            "C": gen.ic_model(rng, 3, 8, 8, 4),
            "D": gen.ic_model(rng, 3, 8, 8, 4),
            "coats-ds": oracle.read(oracle.COATS_DS),
            "coats-ic": oracle.read(oracle.COATS_IC),
        }
        self.paths = {name: str(procs.work / f"{name}.json") for name in self.models}
        ops = []

        def query(cmd, doc):
            text = gen.formula(rng, self.models[doc].props)
            lo, hi = oracle.interval(self.models[doc], oracle.evaluate(text, self.models[doc].props))
            out = {"interval": oracle.interval_text(lo, hi), "bel": str(lo), "plb": str(hi)}[cmd]
            ops.append(self._op(cmd, [cmd, self.paths[doc], text], self._expect(0, out + "\n")))

        for doc in ("coats-ds", "coats-ic", "A", "B", "C"):
            query("interval", doc)
        for cmd, docs in (("bel", ("coats-ds", "A")), ("plb", ("coats-ds", "B"))):
            for doc in docs:
                query(cmd, doc)
        for doc in ("B", "D"):
            ops.append(self._op("validate", ["validate", self.paths[doc]], self._expect(0, "OK\n")))
        for doc, flag in (("A", "--to-ic"), ("C", "--to-ds")):
            ops.append(self._op("translate", ["translate", self.paths[doc], flag], self._translated(doc)))
        for a, b in (("coats-ds", "coats-ic"), ("A", "C"), ("B", "D")):
            ops.append(self._op("equiv", ["equiv", self.paths[a], self.paths[b]], self._equiv(a, b)))
        props = self.models["A"].props
        for _ in range(2):
            text = gen.formula(rng, props)
            canon = oracle.formula_text(props, oracle.evaluate(text, props))
            ops.append(self._op("parse", ["parse", text, "--props", ",".join(props)], self._expect(0, canon + "\n")))
        fuzz_seed = rng.randrange(1 << 32)
        ops.append(
            self._op(
                "fuzz",
                ["fuzz", "--iters", "1", "--props", "2", "--seed", str(fuzz_seed)],
                self._expect(0, "2/2 translation checks passed\n"),
            )
        )
        # Fails today: the parser recurses once per `~` and the process
        # exits 1 with a RecursionError traceback.  Bad input should exit 2
        # with an `error:` line; a parser without the recursion prints `a`.
        ops.append(
            self._op("parse", ["parse", "~" * NESTED_NOTS + "a", "--props", "a"], self._nested, known_fault=True)
        )
        rng.shuffle(ops)
        self.ops = ops

    def speed(self) -> Speed:
        """A bare interpreter start every second, about 70 ms: processes
        slow down in spells that leave in-process work as fast as before,
        and the interpreter start slows with them."""
        return Speed(lambda: self.procs.python("-c", "pass"), every=1.0, scale_s=0.07)

    def _op(self, kind, argv, check, known_fault=False) -> Op:
        def traced(state, tr):
            with tr.span("cli.process"):
                out = self.procs.cli(argv)
            with tr.span("cli.main"):
                rc, stdout = main_in_process(argv)
            return out + (rc, stdout)

        def check_both(out):
            problem = check(out[:3])
            if problem is None and len(out) > 3 and out[3:] != out[:2]:
                problem = f"in-process main gave {out[3:]!r}, the process {out[:2]!r}"
            return problem

        return Op(kind, lambda state: self.procs.cli(argv), traced, check_both, known_fault)

    @staticmethod
    def _expect(rc: int, stdout: str):
        def check(out):
            if out != (rc, stdout, ""):
                return f"expected exit {rc} and {stdout!r}, got {out!r}"
            return None

        return check

    def _translated(self, doc: str):
        src = self.models[doc]

        def check(out):
            rc, text, err = out
            if rc != 0 or err:
                return f"exit {rc}: {err!r}"
            got = oracle.read(text)
            if got.kind == src.kind or oracle.canonical(got) != text:
                return "output is not a canonical document of the other kind"
            if any(oracle.interval(src, m) != oracle.interval(got, m) for m in range(src.full + 1)):
                return "translation changed an interval"
            return None

        return check

    def _equiv(self, a: str, b: str):
        same, count, witness = oracle.compare(self.models[a], self.models[b])
        if same:
            return self._expect(0, f"EQUIVALENT ({count} formulas checked)\n")
        m, ia, ib = witness
        text = oracle.formula_text(self.models[a].props, m)
        line = f"NOT EQUIVALENT: witness {text}: {oracle.interval_text(*ia)} vs {oracle.interval_text(*ib)}\n"
        return self._expect(1, line)

    @staticmethod
    def _nested(out):
        rc, stdout, err = out
        if rc == 0 and stdout == "a\n" or rc == 2 and not stdout and err.startswith("error:"):
            return None
        return f"exit {rc}, stderr ends {err.strip().splitlines()[-1:]!r}"

    def setup(self, tr=None):
        """Every input document, through `to_json`."""
        count_sizes(self.models.values(), tr)
        structures = {"coats-ds": ps.coats_ds(), "coats-ic": ps.coats_ic()}
        return {name: dump(structures.get(name) or build(model, tr), tr) for name, model in self.models.items()}

    def prepare(self, texts) -> None:
        for name, text in texts.items():
            with open(self.paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)

    def check_setup(self) -> list[str]:
        problems = []
        for name, model in self.models.items():
            with open(self.paths[name], encoding="utf-8") as fh:
                if fh.read() != oracle.canonical(model):
                    problems.append(f"{name}.json is not the oracle's canonical text")
        return problems

    def floors(self, tr) -> None:
        self.procs.floors(tr, 4)


class Query(Workload):
    """One process loads documents of 12 propositions and 64 worlds and
    streams short formulas through `parse_formula` and the queries."""

    def __init__(self, seed: int, procs: Processes):
        rng = random.Random(seed)
        self.models = [gen.ds_model(rng, 12, 64, 48, 16) for _ in range(2)]
        self.models += [gen.ic_model(rng, 12, 64, 4096 - 448, 64) for _ in range(2)]
        self.texts = [oracle.canonical(m) for m in self.models]
        self.lang = ps.Language(self.models[0].props)
        # 90% ds queries (about 6 ms) and 10% ic queries (about 1.3 ms), so
        # the p50 (the ds queries' 44th percentile) and the p90 both fall
        # among the ds queries.  A round holds 400 formulas, so that a run's
        # percentiles rest on many.
        plan = []
        for doc in (0, 1):
            plan += [(doc, "interval")] * 100 + [(doc, "belplb")] * 80
        plan += [(2, "interval")] * 20 + [(3, "interval")] * 20
        self.ops = [self._op(doc, what, gen.formula(rng, self.models[doc].props)) for doc, what in plan]
        rng.shuffle(self.ops)

    def _op(self, doc: int, what: str, text: str) -> Op:
        model, lang = self.models[doc], self.lang
        expected = oracle.interval(model, oracle.evaluate(text, model.props))

        if what == "interval":

            def run(state):
                return ps.interval(state[doc], ps.parse_formula(text, lang))

            def traced(state, tr):
                return t_interval(state[doc], model.kind, parse(text, lang, tr), tr)

            kind = f"{model.kind}-interval"
            got = _pair
        else:

            def run(state):
                xi = ps.parse_formula(text, lang)
                return ps.bel(state[doc], xi), ps.plb(state[doc], xi)

            def traced(state, tr):
                xi = parse(text, lang, tr)
                return t_bel(state[doc], xi, tr), t_plb(state[doc], xi, tr)

            kind = "ds-bel-plb"
            got = tuple

        def check(out):
            return None if got(out) == expected else f"{text!r}: got {got(out)}, oracle {expected}"

        return Op(kind, run, traced, check)

    def setup(self, tr=None):
        count_sizes(self.models, tr)
        return [load(text, tr) for text in self.texts]


class Verify(Workload):
    """Round trips, equivalence with a witness, and Mobius inversion on
    structures of 3 propositions and 8 worlds."""

    def __init__(self, seed: int, procs: Processes):
        rng = random.Random(seed)
        self.models = [gen.ds_model(rng, 3, 8, 6, 3) for _ in range(4)]
        self.models += [gen.ic_model(rng, 3, 8, 8, 4) for _ in range(4)]
        ops = [self._round_trip(4 + i % 4) for i in range(5)]
        ops += [self._round_trip(i % 4) for i in range(6)]
        ops += [self._equivalent(*rng.sample(range(8), 2)) for _ in range(5)]
        ops += [self._mobius(i) for i in range(4)]
        rng.shuffle(ops)
        self.ops = ops

    def _round_trip(self, i: int) -> Op:
        kind = self.models[i].kind
        full = self.models[i].full

        def check(report):
            if report.equivalent and report.checked_count == full + 1:
                return None
            return f"round trip of structure {i}: {report}"

        return Op(
            f"round-trip-{kind}",
            lambda state: ps.round_trip_check(state[i]),
            lambda state, tr: t_round_trip(state[i], kind, tr),
            check,
        )

    def _equivalent(self, i: int, j: int) -> Op:
        same, count, witness = oracle.compare(self.models[i], self.models[j])

        def check(report):
            got_witness = None
            if report.witness is not None:
                f, ia, ib = report.witness
                got_witness = (f.atoms, _pair(ia), _pair(ib))
            if (report.equivalent, report.checked_count, got_witness) == (same, count, witness):
                return None
            return f"equivalent({i}, {j}): got {report}, oracle {(same, count, witness)}"

        return Op(
            "equivalent",
            lambda state: ps.equivalent(state[i], state[j]),
            lambda state, tr: t_equivalent(state[i], state[j], tr),
            check,
        )

    def _mobius(self, i: int) -> Op:
        def check(masses):
            problems = oracle.mass_problems(self.models[i], {f.atoms: v for f, v in masses.items()})
            return "; ".join(problems) or None

        return Op(
            "mobius",
            lambda state: ps.mobius_mass(state[i]),
            lambda state, tr: tr.call("structures.mobius_mass", ps.mobius_mass, state[i]),
            check,
        )

    def setup(self, tr=None):
        count_sizes(self.models, tr)
        return [build(m, tr) for m in self.models]


class Docs(Workload):
    """`from_json` then `to_json` on documents of 8 propositions and 64
    worlds, as canonical text and as valid text that is not canonical."""

    def __init__(self, seed: int, procs: Processes):
        rng = random.Random(seed)
        self.models = [gen.ds_model(rng, 8, 64, 48, 16) for _ in range(7)]
        self.models += [gen.ic_model(rng, 8, 64, 128, 64) for _ in range(3)]
        self.texts = [oracle.canonical(m) for m in self.models]
        ops = []
        for model, canon in zip(self.models, self.texts):
            for variant, text in (("canonical", canon), ("noncanonical", gen.noncanonical(model, rng))):
                ops.append(self._op(f"{model.kind}-{variant}", text, canon))
        rng.shuffle(ops)
        self.ops = ops

    @staticmethod
    def _op(kind: str, text: str, canon: str) -> Op:
        def check(out):
            return None if out == canon else f"{kind}: saved text differs from the canonical text"

        return Op(kind, lambda state: ps.to_json(ps.from_json(text)), lambda state, tr: dump(load(text, tr), tr), check)

    def setup(self, tr=None):
        """Load each document once, so lazy set-up is done before timing."""
        count_sizes(self.models, tr)
        for text in self.texts:
            load(text, tr)
        return None

    def post(self, state, tr, problems: list) -> None:
        """Parse every formula text of each document and format every
        formula block, one call at a time."""
        for model, text in zip(self.models, self.texts):
            lang = ps.Language(model.props)
            doc = json.loads(text)
            for key in doc.get("psi_basis", []) + list(doc["incidence"]):
                if parse(key, lang, tr).atoms != oracle.evaluate(key, model.props):
                    problems.append(f"parse_formula({key!r}) disagrees with the oracle")
            for block in model.fblocks:
                out = tr.call("logic.format_formula", ps.format_formula, ps.Formula(lang, block))
                if out != oracle.formula_text(model.props, block):
                    problems.append(f"format_formula gave {out!r}")


WORKLOADS = {"cli": Cli, "query": Query, "verify": Verify, "docs": Docs}


def probe(tr, procs: Processes, problems: list) -> None:
    """A fixed session on the coats fixtures that calls every layer.

    A traced run takes from here the layers its own operations never call,
    so that every run reports every layer metric.
    """
    ds_text, ic_text = ps.to_json(ps.coats_ds()), ps.to_json(ps.coats_ic())
    path = str(procs.work / "coats-ds.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ds_text)
    lang = ps.Language(("g", "d"))
    count_sizes([oracle.read(ds_text), oracle.read(ic_text)], tr)
    argv = ["interval", path, "~d"]
    for rep in range(5):
        tr.op_id = f"probe.{rep}"
        tr.counting = rep == 0
        ds, ic = load(ds_text, tr), load(ic_text, tr)
        dump(ds, tr)
        dump(ic, tr)
        xi = parse("~d", lang, tr)
        tr.call("logic.format_formula", ps.format_formula, xi)
        got = [
            _pair(t_interval(ds, "ds", xi, tr)),
            _pair(t_interval(ic, "ic", xi, tr)),
            (t_bel(ds, xi, tr), t_plb(ds, xi, tr)),
        ]
        tr.call("structures.mobius_mass", ps.mobius_mass, ds)
        reports = [t_round_trip(ds, "ds", tr), t_round_trip(ic, "ic", tr), t_equivalent(ds, ic, tr)]
        with tr.span("cli.process"):
            out = procs.cli(argv)
        with tr.span("cli.main"):
            in_process = main_in_process(argv)
        procs.floors(tr, 1)
        if got != [(Fraction(1, 2), 1)] * 3 or any((r.equivalent, r.checked_count) != (True, 16) for r in reports):
            problems.append(f"probe: coats answers {got}, {reports}")
        if out != (0, "[1/2, 1]\n", "") or in_process != (0, "[1/2, 1]\n"):
            problems.append(f"probe: interval coats-ds.json ~d gave {out}, in process {in_process}")
