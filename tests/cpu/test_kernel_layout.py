"""The marshaled layout the C cycle kernel shares with its driver.

``cpu/_kernel.c`` indexes the config block, the counter block and the
two input-pointer tables by enum; :mod:`repro.cpu.kerneldriver` and
:mod:`repro.cpu.nativebuild` build them by position.  A table that
drifts on one side is read out of bounds or misread without any error,
so every enum is checked, in order, against the Python side.  Parsing
the source needs no compiler.
"""

import re
from pathlib import Path

import pytest

from repro.cpu import kerneldriver, nativebuild

SOURCE = Path(kerneldriver.__file__).with_name("_kernel.c").read_text()


def _c_enums():
    """Each anonymous enum's member names, keyed by their prefix."""
    text = re.sub(r"/\*.*?\*/", "", SOURCE, flags=re.S)
    enums = {}
    for body in re.findall(r"enum\s*\{(.*?)\}\s*;", text, flags=re.S):
        names = [m.split("=")[0].strip() for m in body.split(",")]
        names = [n for n in names if n]
        enums[names[0].split("_")[0] + "_"] = names
    return enums


def _driver_names(prefix):
    """kerneldriver's ``prefix`` constants, in value order."""
    values = {
        name: getattr(kerneldriver, name)
        for name in dir(kerneldriver)
        if name.startswith(prefix) and name[len(prefix):].isupper()
    }
    names = sorted(values, key=values.get)
    assert [values[n] for n in names] == list(range(len(names)))
    return names


@pytest.mark.parametrize("prefix", ["C_", "O_", "K_", "CTRL_", "STATUS_"])
def test_driver_blocks_match_kernel_enums(prefix):
    assert _driver_names(prefix) == _c_enums()[prefix]


@pytest.mark.parametrize(
    "prefix, length",
    [("I_", nativebuild.I_LEN), ("B_", nativebuild.B_LEN)],
)
def test_pointer_tables_match_kernel_enums(prefix, length):
    names = _c_enums()[prefix]
    assert names[-1] == f"{prefix}LEN"
    assert names.index(f"{prefix}LEN") == length


def test_kernel_abi_matches():
    abi = re.search(r"^#define KERNEL_ABI (\d+)$", SOURCE, flags=re.M)
    assert int(abi.group(1)) == nativebuild.KERNEL_ABI
