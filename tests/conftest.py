"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probstruct

SRC = str(Path(probstruct.__file__).resolve().parent.parent)

# Runs the CLI commands given as a JSON list in this one process, in order,
# and prints each one's exit code, standard output and standard error.
CHILD = """
import contextlib, io, json, sys
from probstruct.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


@pytest.fixture
def under_hash_seeds(tmp_path_factory):
    """Run a list of CLI commands in one child process per ``PYTHONHASHSEED``
    (0, 1 and 2), the three side by side, each in a directory of its own.
    Returns, per seed, each command's (exit code, stdout, stderr)."""

    def run(argvs, **env):
        children = {
            seed: subprocess.Popen(
                [sys.executable, "-c", CHILD, json.dumps(argvs)],
                cwd=tmp_path_factory.mktemp(f"hashseed{seed}"),
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC, **env),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for seed in ("0", "1", "2")
        }
        results = {}
        for seed, child in children.items():
            out, err = child.communicate()
            assert (child.returncode, err) == (0, ""), seed
            results[seed] = [tuple(step) for step in json.loads(out)]
        return results

    return run
