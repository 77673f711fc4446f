"""Command-line behaviour: outputs, exit codes, file handling."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import probstruct
from probstruct import (
    Formula,
    GenParams,
    Language,
    ProbabilityStructure,
    SampleSpace,
    coats_ds,
    coats_ic,
    format_formula,
    interval,
    load,
    random_ic,
    random_total_ds,
    save,
    to_json,
    trivial_algebra,
)
from probstruct.cli import main
import probstruct.translate as translate


@pytest.fixture
def coats_files(tmp_path):
    ds = tmp_path / "coats-ds.json"
    ic = tmp_path / "coats-ic.json"
    assert main(["example", "coats-ds", "-o", str(ds)]) == 0
    assert main(["example", "coats-ic", "-o", str(ic)]) == 0
    return ds, ic


def test_example_writes_canonical_fixtures(coats_files):
    ds, ic = coats_files
    assert ds.read_text() == to_json(coats_ds())
    assert ic.read_text() == to_json(coats_ic())


def test_example_default_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["example", "coats-ds"]) == 0
    assert capsys.readouterr().out.strip() == "coats-ds.json"
    assert (tmp_path / "coats-ds.json").exists()


def test_example_unknown_name(capsys):
    assert main(["example", "hats"]) == 2
    err = capsys.readouterr().err
    assert "coats-ds" in err and "coats-ic" in err


def test_validate_ok(coats_files, capsys):
    ds, ic = coats_files
    assert main(["validate", str(ds)]) == 0
    assert main(["validate", str(ic)]) == 0
    assert capsys.readouterr().out.splitlines() == ["OK", "OK"]


def test_validate_reports_problems(tmp_path, capsys):
    doc = json.loads(to_json(coats_ds()))
    doc["measure"]["0"] = "1/4"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    assert "sum to 3/4" in capsys.readouterr().err


def test_interval_output(coats_files, capsys):
    ds, ic = coats_files
    assert main(["interval", str(ds), "~d"]) == 0
    assert main(["interval", str(ic), "~d"]) == 0
    assert capsys.readouterr().out.splitlines() == ["[1/2, 1]", "[1/2, 1]"]


def test_bel_plb_output(coats_files, capsys):
    ds, _ = coats_files
    assert main(["bel", str(ds), "~d"]) == 0
    assert main(["plb", str(ds), "~d"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1/2", "1"]


def test_bel_rejects_ic_files(coats_files, capsys):
    _, ic = coats_files
    assert main(["bel", str(ic), "~d"]) == 2
    assert "requires a ds structure" in capsys.readouterr().err


def test_formula_syntax_error_exit(coats_files, capsys):
    ds, _ = coats_files
    assert main(["interval", str(ds), "g &"]) == 2
    assert "position" in capsys.readouterr().err


def test_missing_file_exit(capsys):
    assert main(["interval", "/nonexistent.json", "g"]) == 2


def test_translate_to_ic_stdout(coats_files, capsys):
    ds, _ = coats_files
    assert main(["translate", str(ds), "--to-ic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "ic"
    assert doc["worlds"] == ["w1", "w2"]
    assert doc["measure"] == {"0": "1/2", "1": "1/2"}
    assert doc["psi_basis"] == ["(~g & ~d)", "(g & ~d) | (g & d)", "(~g & d)"]


def test_translate_to_ds_file(coats_files, tmp_path, capsys):
    _, ic = coats_files
    out = tmp_path / "lifted.json"
    assert main(["translate", str(ic), "--to-ds", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out)
    lifted = load(out)
    assert lifted.kind.value == "ds"
    assert main(["equiv", str(ic), str(out)]) == 0


def test_translate_wrong_direction(coats_files, capsys):
    ds, ic = coats_files
    assert main(["translate", str(ds), "--to-ds"]) == 2
    assert main(["translate", str(ic), "--to-ic"]) == 2


def test_translate_not_total_exits_3(tmp_path, capsys):
    doc = json.loads(to_json(coats_ds()))
    doc["chi_basis"] = [["s1"], ["s2", "s3", "s4"]]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0  # well formed, just not total
    assert main(["translate", str(path), "--to-ic"]) == 3
    err = capsys.readouterr().err
    assert "total" in err
    assert err == (
        "error: ds_to_ic requires a total structure, but the focal masks of measurable blocks "
        "{s1} and {s2, s3, s4} share the atoms (~g & ~d)\n"
    )


def test_translate_refuses_a_weight_too_long_to_write(tmp_path, capsys):
    # each world's weight is within the digit limit; the sum over p's block is not
    a, b = 10**4289 + 1, 10**4289 + 3
    weights = [Fraction(1, a), Fraction(1, b), Fraction(1, 2) - Fraction(1, a), Fraction(1, 2) - Fraction(1, b)]
    doc = {
        "kind": "ic",
        "propositions": ["p"],
        "worlds": ["w1", "w2", "w3", "w4"],
        "measure": {str(i): str(w) for i, w in enumerate(weights)},
        "psi_basis": ["~p", "p"],
        "incidence": {"~p": ["w3", "w4"], "p": ["w1", "w2"]},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["translate", str(path), "--to-ds"]) == 2
    assert capsys.readouterr() == ("", "error: rational too long to write out (past the digit limit)\n")


def test_equiv_output(coats_files, capsys):
    ds, ic = coats_files
    assert main(["equiv", str(ds), str(ic)]) == 0
    assert capsys.readouterr().out.strip() == "EQUIVALENT (16 formulas checked)"


def test_equiv_counts_past_four_propositions(tmp_path, capsys):
    # 2**(2**n) formulas: in full up to 13 propositions (2,467 digits); from
    # 14 on, past the interpreter's limit on digits, as a power of two
    for n_props, count in ((5, "4294967296"), (14, "2^16384")):
        lang = Language(tuple(f"p{i}" for i in range(n_props)))
        space = SampleSpace(("w1",))
        st = ProbabilityStructure.ic(space, (Fraction(1),), trivial_algebra(lang), (space.everything(),))
        path = tmp_path / f"vacuous-{n_props}.json"
        save(st, str(path))
        assert main(["equiv", str(path), str(path)]) == 0
        assert capsys.readouterr() == (f"EQUIVALENT ({count} formulas checked)\n", "")


def test_equiv_witness(coats_files, tmp_path, capsys):
    ds, _ = coats_files
    doc = json.loads(to_json(coats_ds()))
    doc["measure"] = {"0": "1/4", "1": "3/4"}
    skewed = tmp_path / "skewed.json"
    skewed.write_text(json.dumps(doc))
    assert main(["equiv", str(ds), str(skewed)]) == 1
    out = capsys.readouterr().out
    assert out.strip() == "NOT EQUIVALENT: witness (~g & ~d): [1/2, 1/2] vs [1/4, 1/4]"


def test_equiv_language_mismatch(coats_files, tmp_path, capsys):
    ds, _ = coats_files
    doc = json.loads(to_json(coats_ds()))
    doc["propositions"] = ["d", "g"]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert main(["equiv", str(ds), str(other)]) == 2


def test_fuzz_passes(capsys):
    assert main(["fuzz", "--props", "2", "--worlds", "4", "--iters", "100", "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == "200/200 translation checks passed"


def test_fuzz_reports_each_translation_that_moves_weight(capsys, monkeypatch):
    real = translate.ic_to_ds

    def moves_weight(ic):  # the blocks' weights reversed
        ds = real(ic)
        weights = ds.ps.mu.weights[::-1]
        return ProbabilityStructure.ds(ds.ps.space, ds.ps.algebra.basis, weights, ds.lang, ds.inc.images)

    # the ic rounds fail one way, the ds rounds on the way back
    monkeypatch.setattr(translate, "ic_to_ds", moves_weight)
    assert main(["fuzz", "--props", "2", "--worlds", "3", "--iters", "4", "--seed", "1"]) == 1
    assert capsys.readouterr() == (
        "2/8 translation checks passed\n",
        "seed 1 (ic round): witness (~p1 & ~p2): [0, 0] vs [0, 1]\n"
        "seed 1 (ds round): witness (~p1 & ~p2): [0, 1] vs [0, 0]\n"
        "seed 2 (ds round): witness (~p1 & ~p2): [1, 1] vs [0, 0]\n"
        "seed 3 (ic round): witness (~p1 & ~p2): [0, 9/17] vs [0, 8/17]\n"
        "seed 4 (ic round): witness (~p1 & ~p2): [0, 1] vs [0, 0]\n"
        "seed 4 (ds round): witness (~p1 & ~p2): [0, 1/2] vs [0, 0]\n",
    )


def test_fuzz_rejects_zero_iters(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--iters", "0"])
    assert exc.value.code == 2


def test_fuzz_rejects_out_of_range_params(capsys):
    # the generators stop where ic_to_ds gives each atom a world, and at 64 worlds
    assert main(["fuzz", "--props", "7", "--iters", "1"]) == 2
    assert capsys.readouterr() == ("", "error: n_props must be 1..6, got 7\n")
    assert main(["fuzz", "--worlds", "65", "--iters", "1"]) == 2
    assert capsys.readouterr() == ("", "error: n_worlds must be 1..64, got 65\n")
    assert main(["fuzz", "--props", "6", "--worlds", "64", "--iters", "2"]) == 0
    assert capsys.readouterr().out == "4/4 translation checks passed\n"


def test_fuzz_refuses_seeds_past_64_bits_before_any_check(capsys, monkeypatch):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(translate, "equivalent", no_check)
    last = 1 << 64
    assert main(["fuzz", "--iters", "2", "--seed", str(last - 1)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: last seed {last} must be a 64-bit nonnegative integer\n")
    monkeypatch.undo()
    assert main(["fuzz", "--props", "1", "--worlds", "1", "--iters", "1", "--seed", str(last - 1)]) == 0
    assert capsys.readouterr().out == "2/2 translation checks passed\n"


def test_parse_command(capsys):
    assert main(["parse", "--props", "g,d", "~d"]) == 0
    assert capsys.readouterr().out.strip() == "(~g & ~d) | (g & ~d)"


def test_parse_command_bad_formula(capsys):
    assert main(["parse", "--props", "g,d", "q"]) == 2
    assert "unknown proposition" in capsys.readouterr().err


def test_cli_interval_matches_library(tmp_path, capsys):
    # one random formula per structure, across 100 random structures
    structures = [coats_ds(), coats_ic()]
    for seed in range(50):
        structures.append(random_ic(GenParams(1 + seed % 3, 1 + seed % 8, 5000 + seed)))
        structures.append(random_total_ds(GenParams(1 + seed % 3, 1 + seed % 8, 5500 + seed)))
    for i, st in enumerate(structures):
        path = tmp_path / f"st{i}.json"
        save(st, path)
        f = Formula(st.lang, (i * 2654435761) % (st.lang.full_mask + 1))
        assert main(["interval", str(path), format_formula(f)]) == 0
        assert capsys.readouterr().out.strip() == str(interval(st, f))


def modules_after(code: str) -> set[str]:
    """The modules loaded in a fresh interpreter once ``code`` has run."""
    # -I -S: no site, environment or user paths, so only ``code`` loads
    # modules; -B: write no bytecode next to the sources
    src = str(Path(probstruct.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); {code}; print(); print(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


# what the command functions import, and importing the CLI does not
LOADED_BY_COMMANDS = {"probstruct.docio", "probstruct.structures", "probstruct.translate", "probstruct.fixtures", "json"}


def test_cli_import_skips_dataclasses_and_inspect(coats_files):
    ds, _ = coats_files
    assert not ({"dataclasses", "inspect"} | LOADED_BY_COMMANDS) & modules_after("import probstruct.cli")
    # each command imports what it runs and no more
    read = {"probstruct.docio", "probstruct.structures", "json"}
    unused = {"probstruct.translate", "probstruct.fixtures", "dataclasses", "inspect"}
    for argv, present, absent in (
        (["interval", str(ds), "g"], read, unused),
        (["validate", str(ds)], read, unused),
        (["parse", "--props", "g,d", "~(g | d)"], {"probstruct.logic"}, unused | LOADED_BY_COMMANDS),
        (["equiv", str(ds), str(ds)], read | {"probstruct.translate"}, unused - {"probstruct.translate"}),
    ):
        loaded = modules_after(f"from probstruct.cli import main; main({argv!r})")
        assert present <= loaded, argv
        assert not absent & loaded, argv


# The help texts and usage errors as the CLI printed them while it still
# imported every module up front: COLUMNS=80, under the Python named in the file.
GOLDEN = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason=f"argparse words its help differently outside Python {GOLDEN['python']}",
)
@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "no-command")
def test_help_and_usage_errors_are_byte_identical(case, tmp_path):
    src = str(Path(probstruct.__file__).resolve().parent.parent)
    env = dict(os.environ, COLUMNS=str(GOLDEN["columns"]), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "probstruct.cli", *case["argv"]], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (case["exit"], case["stdout"], case["stderr"])


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != GOLDEN["python"],
    reason=f"argparse words its help differently outside Python {GOLDEN['python']}",
)
def test_help_and_usage_errors_are_the_same_under_every_hash_seed(under_hash_seeds):
    golden = [(case["exit"], case["stdout"], case["stderr"]) for case in GOLDEN["cases"]]
    runs = under_hash_seeds([case["argv"] for case in GOLDEN["cases"]], COLUMNS=str(GOLDEN["columns"]))
    for seed, got in runs.items():
        assert got == golden, seed


# documents with several field faults: the report once depended on set order
SEVERAL_FIELD_FAULTS = {
    '{"kind": "ds"}': "error: missing field 'propositions'\n",
    '{"kind": "ic", "note": 1, "psi_basis": [], "zeta": 2}': "error: unknown field 'note'\n",
}


def test_output_is_the_same_under_every_hash_seed(coats_files, tmp_path):
    ds, ic = coats_files
    commands = []
    for i, text in enumerate(SEVERAL_FIELD_FAULTS):
        (tmp_path / f"faults{i}.json").write_text(text)
        commands.append(["validate", str(tmp_path / f"faults{i}.json")])
    commands += [
        ["interval", str(ds), "g | ~d"],
        ["interval", str(ic), "~d"],
        ["equiv", str(ds), str(ic)],
        ["fuzz", "--props", "2", "--worlds", "3", "--iters", "20", "--seed", "5"],
    ]
    src = str(Path(probstruct.__file__).resolve().parent.parent)
    for argv in commands:
        # one process per hash seed, the three running side by side
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "probstruct.cli", *argv],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "1", "2")
        ]
        results = {(*run.communicate(), run.returncode) for run in runs}
        assert len(results) == 1, (argv, results)
        [(out, err, code)] = results
        if argv[0] == "validate":
            assert (out, err, code) == ("", SEVERAL_FIELD_FAULTS[Path(argv[1]).read_text()], 2)
        else:
            assert (err, code) == ("", 0), argv
