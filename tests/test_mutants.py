"""The seeded mutant table (``tests/mutants.py``) stays applicable: each
old text occurs exactly once in its file, and each killing test exists."""

import pytest

from mutants import MUTANTS, ROOT, SURVIVES


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new not in text
    if mutant.kill != SURVIVES:
        for node in mutant.kill:
            path, name = node.split("::")
            assert f"def {name}(" in (ROOT / path).read_text()
