"""The mutant list of tests/mutants.py stays runnable: each mutant's edit
still applies, and each node id it must fail still names a test."""

import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / "src" / "cocostream" / mutant.file).read_text()
    assert text.count(mutant.old) == 1


def test_must_fail_node_ids_are_collected():
    wanted = {n for m in MUTANTS for n in m.must_fail}
    files = sorted({n.split("::")[0] for n in wanted})
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
               *files]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    collected = set(out.splitlines())
    # a parametrized test's node id without its parameters runs them all
    collected |= {n.partition("[")[0] for n in collected}
    assert wanted - collected == set()
