"""The mutant table of tests/mutants.py applies to the current source.

Each row's old text occurs exactly once in its module, and its module's
own test file exists, so a row that a change has made stale fails here,
not only when the whole table is run.  mutants.py leaves this file out of
its runs, since every mutated copy would fail it.
"""

import os

import pytest

import mutants
from mutants import LEFT_OUT, MUTANTS, ROOT, suite_files


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: "%s: %s" % (row[0], row[3]))
def test_row_applies_once(row):
    module, old, new, _ = row
    with open(os.path.join(ROOT, "src", "kronphase", module + ".py"), encoding="utf-8") as fh:
        assert fh.read().count(old) == 1
    assert new != old


@pytest.mark.parametrize("module", sorted({row[0] for row in MUTANTS}))
def test_every_file_of_a_mutant_run_exists(module):
    files = suite_files(module, os.path.join(ROOT, "tests"))
    assert [f for f in files if not os.path.isfile(os.path.join(ROOT, f))] == []
    assert not set(LEFT_OUT) & {os.path.basename(f) for f in files}


def test_a_run_that_tests_nothing_kills_nothing(monkeypatch):
    # a row whose module's own test file is missing: pytest exits 4 at once
    monkeypatch.setitem(mutants.OWN_TESTS, "cli", "test_missing.py")
    row = next(row for row in MUTANTS if row[0] == "cli")
    assert mutants.run_mutant(row)[:2] == ("error", "pytest exit 4")
