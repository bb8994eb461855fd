"""Opportunistic build + ctypes loader for the compiled cycle kernel.

The ``native`` sim backend runs ``_kernel.c`` (a direct transliteration
of ``_kernel.py``) as a shared library whenever one can be loaded, and
the pure-Python kernel otherwise.  This module owns the library's
lifecycle:

- :func:`load` compiles the C source on first use -- if a C compiler is
  on PATH -- into a content-addressed cache directory and returns the
  ``ctypes`` handle, or ``None`` when no artifact can be produced (no
  toolchain, build failure, ABI mismatch).  The outcome is memoized per
  process either way, so probing is cheap.
- :func:`native_available` / :func:`native_error` report whether the
  compiled kernel runs and, if not, *why* the Python kernel does.
- ``python -m repro.cpu.nativebuild`` builds eagerly and reports.

Environment knobs:

- ``REPRO_NATIVE_DIR`` -- artifact cache directory (default
  ``~/.cache/repro-native``);
- ``REPRO_NATIVE=0`` -- never load the compiled kernel (probes report
  unavailable and every simulation runs the pure-Python kernel);
- ``REPRO_NATIVE_CC`` -- compiler executable to use (default: first of
  ``cc``, ``gcc``, ``clang`` on PATH).

The artifact file name embeds a SHA-256 of the C source, so source
edits never load a stale library; the exported ``repro_kernel_abi()``
is additionally checked against :data:`repro.cpu._kernel.KERNEL_ABI`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from repro.cpu._kernel import KERNEL_ABI

#: int64 input-pointer table layout (must match _kernel.c's I_* enum).
I_LEN = 24
#: uint8 input-pointer table layout (must match _kernel.c's B_* enum).
B_LEN = 8

_SOURCE = Path(__file__).with_name("_kernel.c")

_BUILD_TIMEOUT_S = 120

# Memoized probe result: unset / (lib, None) / (None, reason).
_probe: Optional[tuple] = None


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_NATIVE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-native"


def _find_compiler() -> Optional[str]:
    env = os.environ.get("REPRO_NATIVE_CC")
    if env:
        return env if shutil.which(env) else None
    for cc in ("cc", "gcc", "clang"):
        if shutil.which(cc):
            return cc
    return None


def _artifact_path(source_text: bytes) -> Path:
    digest = hashlib.sha256(source_text).hexdigest()[:16]
    return _cache_dir() / f"repro_kernel_{digest}_abi{KERNEL_ABI}.so"


#: The kernel's progress hook: ``(cycles, committed, spawns_started)``.
PROGRESS_FN = ctypes.CFUNCTYPE(
    None, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64
)


def _configure(lib: ctypes.CDLL) -> None:
    i64p = ctypes.POINTER(ctypes.c_int64)
    lib.repro_kernel_abi.restype = ctypes.c_int64
    lib.repro_kernel_abi.argtypes = []
    lib.repro_kernel_run.restype = ctypes.c_int
    lib.repro_kernel_run.argtypes = [
        i64p,                                     # cfg
        ctypes.POINTER(i64p),                     # I table
        ctypes.POINTER(ctypes.POINTER(ctypes.c_uint8)),  # B table
        i64p,                                     # out
        i64p,                                     # missed_out
        i64p,                                     # misspc_out
        i64p,                                     # fa_out
        PROGRESS_FN,                              # progress (or None)
    ]


def _try_load(path: Path):
    """Load + ABI-check an existing artifact; returns (lib, reason)."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"failed to load {path}: {exc}"
    try:
        _configure(lib)
        abi = lib.repro_kernel_abi()
    except AttributeError as exc:
        return None, f"artifact {path} lacks kernel symbols: {exc}"
    if abi != KERNEL_ABI:
        return None, (
            f"artifact {path} reports ABI {abi}, expected {KERNEL_ABI}"
        )
    return lib, None


def _build(source_text: bytes, artifact: Path):
    """Compile the kernel; returns (lib, reason)."""
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found on PATH (cc/gcc/clang)"
    artifact.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix=".build-", dir=str(artifact.parent)
    )
    os.close(fd)
    cmd = [
        cc, "-O2", "-fPIC", "-shared", "-o", tmp, str(_SOURCE),
    ]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        os.unlink(tmp)
        return None, f"compiler invocation failed: {exc}"
    if proc.returncode != 0:
        os.unlink(tmp)
        tail = (proc.stderr or proc.stdout or "").strip()[-400:]
        return None, f"{cc} exited {proc.returncode}: {tail}"
    os.replace(tmp, artifact)  # atomic publish
    return _try_load(artifact)


def load():
    """Return the ctypes handle to the compiled kernel, or ``None``.

    First call per process probes (and builds if possible); the result
    -- including a failure -- is memoized so later calls are free.
    """
    global _probe
    if _probe is not None:
        return _probe[0]
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        _probe = (None, "disabled via REPRO_NATIVE=0")
        return None
    if not _SOURCE.exists():
        _probe = (None, f"kernel source missing: {_SOURCE}")
        return None
    source_text = _SOURCE.read_bytes()
    artifact = _artifact_path(source_text)
    if artifact.exists():
        lib, reason = _try_load(artifact)
        if lib is not None:
            _probe = (lib, None)
            return lib
        # Stale or broken artifact: fall through to a rebuild.
    lib, reason = _build(source_text, artifact)
    _probe = (lib, reason)
    return lib


def native_available() -> bool:
    """True when the compiled kernel is loadable (building if needed)."""
    return load() is not None


def native_error() -> Optional[str]:
    """Why the native kernel is unavailable (None when it is loaded)."""
    load()
    return _probe[1] if _probe else None


def reset_probe() -> None:
    """Forget the memoized probe (tests only)."""
    global _probe
    _probe = None


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.cpu.nativebuild",
        description="Build the compiled cycle kernel eagerly.",
    )
    parser.parse_args()
    lib = load()
    if lib is None:
        print(f"native kernel unavailable: {native_error()}")
        return 1
    source_text = _SOURCE.read_bytes()
    print(f"native kernel ready: {_artifact_path(source_text)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
