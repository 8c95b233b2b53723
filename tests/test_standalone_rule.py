"""The standalone-occurrence rule is stated in one place.

Mock expansion and occurrence indexes must agree on what a standalone
occurrence of an abbreviation is, or `eval-expansion` matches pairs against
the wrong gold occurrence. Both compile through `align.standalone_pattern`,
and this test fails when a guard class turns up in another module.
"""

from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "acrocode"
GUARD_CLASSES = (r"[^\W_]", "A-Za-z0-9")


def test_the_guard_class_is_written_once_in_align():
    found = [
        (path.name, guard)
        for path in sorted(SOURCE.glob("*.py"))
        for guard in GUARD_CLASSES
        for _ in range(path.read_text(encoding="utf-8").count(guard))
    ]
    assert found == [("align.py", r"[^\W_]")]
