"""Source layout rules that hold for every module of the package and
every test file."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ellipstab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_line_is_longer_than_the_limit(path):
    long = [f"{path.name}:{n} ({len(line)} characters)"
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long, f"lines over {MAX_LINE} characters: {', '.join(long)}"
