"""The mutant table of `mutants.py` still applies to the code: each snippet
occurs exactly once in its file, and each row names tests that exist.
Running the mutants takes minutes and stays outside this suite
(`python tests/mutants.py`)."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "modasp" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            keyword = "class" if name[0].isupper() else "def"
            assert f"{keyword} {name.partition('[')[0]}" in text, test


def test_names_are_distinct():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
