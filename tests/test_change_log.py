"""The change log stays small enough for an editor, a diff and a review to open."""
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"


def test_change_log_is_under_one_mib():
    # one commit once inserted a 964-byte sentence before every character of the log,
    # growing it from 188 KiB to 175 MiB
    assert CHANGES.stat().st_size < 1 << 20, CHANGES.stat().st_size
