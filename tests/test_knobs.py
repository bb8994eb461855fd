"""Every ``REPRO_*`` environment variable the package reads is
documented in README.md, and README.md documents no variable the
package no longer reads."""

import pathlib
import re

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_KNOB = re.compile(r"REPRO_[A-Z_]+")


def _names(paths):
    names = set()
    for path in paths:
        names.update(_KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def test_env_knobs_match_readme():
    source = sorted(
        p for p in (_ROOT / "src" / "repro").rglob("*")
        if p.suffix in (".py", ".c")
    )
    read = _names(source)
    documented = _names([_ROOT / "README.md"])
    assert read == documented, (
        f"read but undocumented: {sorted(read - documented)}; "
        f"documented but not read: {sorted(documented - read)}"
    )
