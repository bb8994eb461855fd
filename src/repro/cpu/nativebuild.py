"""Opportunistic build + ctypes loader for the compiled C sources.

Four hot loops are compiled C that runs whenever its library can be
loaded:

- ``kernel``: ``cpu/_kernel.c``, the flat-array cycle kernel behind
  :func:`repro.cpu.pipeline.simulate`; without it every simulation runs
  on the reference :class:`repro.cpu.pipeline.Pipeline`
  (:func:`repro.cpu.pipeline.use_reference`);
- ``slicetree``: ``slicer/_slicetree.c``, the slice-tree miner behind
  :func:`repro.slicer.slicetree.build_slice_tree`, with the Python
  miner running otherwise;
- ``interp``: ``frontend/_interp.c``, the functional interpreter behind
  :func:`repro.frontend.interpreter.interpret`, which also expands
  p-thread spawns for :func:`repro.ddmt.augment.expand_pthreads`, with
  the reference interpreter and Python expansion running otherwise;
- ``critpath``: ``critpath/_critpath.c``, the dependence-graph forward
  pass behind :meth:`repro.critpath.graph.ForwardPass.run`, which prices
  the load-cost functions, with the Python loop running otherwise.

This module owns every library's lifecycle through one build-and-load
path:

- :func:`load` compiles a library's C source on first use -- if a C
  compiler is on PATH -- into a content-addressed cache directory and
  returns the ``ctypes`` handle, or ``None`` when no artifact can be
  produced (no toolchain, build failure, ABI mismatch).  The outcome is
  memoized per library and process either way, so probing is cheap,
  and a library is only built when its first caller asks for it.
- :func:`native_available` / :func:`native_error` report whether a
  compiled library runs and, if not, *why* the Python path runs.
- ``python -m repro.cpu.nativebuild`` builds every library eagerly and
  reports; it exits non-zero if any of them fails.

Environment knobs (shared by every library):

- ``REPRO_NATIVE_DIR`` -- artifact cache directory, one artifact per
  library and source version (default ``~/.cache/repro-native``);
- ``REPRO_NATIVE=0`` -- never load a compiled library (probes report
  unavailable; every simulation runs on the reference ``Pipeline``,
  every slice tree is mined by the Python loop, every program is
  interpreted by the reference interpreter and every spawn expanded in
  Python, and every forward pass runs the Python loop);
- ``REPRO_NATIVE_CC`` -- compiler executable to use (default: first of
  ``cc``, ``gcc``, ``clang`` on PATH).

Each artifact's file name embeds a SHA-256 of its C source, so source
edits never load a stale library; the library's exported
``repro_<name>_abi()`` is additionally checked against the ABI number
its Python caller expects.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

#: int64 input-pointer table layout (must match _kernel.c's I_* enum).
I_LEN = 17
#: uint8 input-pointer table layout (must match _kernel.c's B_* enum).
B_LEN = 6

#: Must match _kernel.c's KERNEL_ABI; bumped whenever the marshaled
#: layout (kerneldriver's C_*/O_* blocks, array meanings, packing)
#: changes.
KERNEL_ABI = 4

#: Must match _slicetree.c's SLICETREE_ABI.
SLICETREE_ABI = 1

#: Must match _interp.c's INTERP_ABI.
INTERP_ABI = 1

#: Must match _critpath.c's CRITPATH_ABI.
CRITPATH_ABI = 1

_BUILD_TIMEOUT_S = 120

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_I8P = ctypes.POINTER(ctypes.c_int8)
_F64P = ctypes.POINTER(ctypes.c_double)


def _configure_kernel(lib: ctypes.CDLL) -> None:
    lib.repro_kernel_simulate.restype = ctypes.c_int
    lib.repro_kernel_simulate.argtypes = [
        _I64P,                                    # cfg
        ctypes.POINTER(_I64P),                    # I table
        ctypes.POINTER(_U8P),                     # B table
        _I64P,                                    # out
        _I64P,                                    # missed_out
        _I64P,                                    # misspc_out
        _I64P,                                    # fa_out
    ]


def _configure_slicetree(lib: ctypes.CDLL) -> None:
    lib.repro_slicetree_mine.restype = ctypes.c_int
    lib.repro_slicetree_mine.argtypes = [
        _I64P, _I64P, _I64P, ctypes.c_int64,      # pc, src1, src2, n
        _I64P, ctypes.c_char_p, ctypes.c_int64,   # occ, missed, n_occ
        ctypes.c_int64, ctypes.c_int64,           # window, max_insts
        ctypes.POINTER(ctypes.c_void_p),          # handle out
    ]
    lib.repro_slicetree_nodes.restype = ctypes.c_int64
    lib.repro_slicetree_nodes.argtypes = [ctypes.c_void_p]
    lib.repro_slicetree_export.restype = None
    lib.repro_slicetree_export.argtypes = [ctypes.c_void_p, _I64P]
    lib.repro_slicetree_free.restype = None
    lib.repro_slicetree_free.argtypes = [ctypes.c_void_p]


def _configure_interp(lib: ctypes.CDLL) -> None:
    lib.repro_interp_new.restype = ctypes.c_void_p
    lib.repro_interp_new.argtypes = [
        _I64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # program
        _I64P, _I64P, _I64P, ctypes.c_int64,                    # regs, data
        _I64P, _I64P, _I64P, _I64P, _I64P, ctypes.c_int64,      # bodies
    ]
    lib.repro_interp_run.restype = ctypes.c_int
    lib.repro_interp_run.argtypes = [
        ctypes.c_void_p, _I64P, _I8P, _I64P, _I64P, _I64P, _I8P, _I64P,
        ctypes.c_int64, _I64P,
    ]
    lib.repro_interp_spawn_counts.restype = None
    lib.repro_interp_spawn_counts.argtypes = [ctypes.c_void_p, _I64P]
    lib.repro_interp_spawn_export.restype = None
    lib.repro_interp_spawn_export.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(_I64P), ctypes.POINTER(_I8P),
    ]
    lib.repro_interp_free.restype = None
    lib.repro_interp_free.argtypes = [ctypes.c_void_p]


def _configure_critpath(lib: ctypes.CDLL) -> None:
    lib.repro_critpath_run.restype = ctypes.c_double
    lib.repro_critpath_run.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64P, _I64P,  # n, start, src1/2
        _F64P, ctypes.c_char_p,                       # lat, mispred
        ctypes.c_double, ctypes.c_double,             # inv_width/commit
        ctypes.c_int64, ctypes.c_double,              # rob, refill
        _F64P, _F64P,                                 # comp, commit
    ]


class NativeLibrary(NamedTuple):
    """One compiled C source: where it lives and what it must export."""

    name: str
    source: Path
    abi: int
    configure: Callable[[ctypes.CDLL], None]


_PKG = Path(__file__).parent.parent

#: Every library, by name.
LIBRARIES: Dict[str, NativeLibrary] = {
    lib.name: lib
    for lib in (
        NativeLibrary(
            "kernel", _PKG / "cpu" / "_kernel.c", KERNEL_ABI,
            _configure_kernel,
        ),
        NativeLibrary(
            "slicetree", _PKG / "slicer" / "_slicetree.c", SLICETREE_ABI,
            _configure_slicetree,
        ),
        NativeLibrary(
            "interp", _PKG / "frontend" / "_interp.c", INTERP_ABI,
            _configure_interp,
        ),
        NativeLibrary(
            "critpath", _PKG / "critpath" / "_critpath.c", CRITPATH_ABI,
            _configure_critpath,
        ),
    )
}

# Memoized probe results by library name: (lib, None) / (None, reason).
_probes: Dict[str, tuple] = {}


def int64_ptr(arr: Optional[array]):
    """A C ``int64_t *`` into an ``array('q')`` (NULL for None/empty).

    The array must stay referenced for as long as C reads through the
    pointer; nothing is copied.
    """
    if arr is None or not len(arr):
        return ctypes.cast(None, _I64P)
    if arr.typecode != "q":
        raise TypeError(f"int64 native input has typecode {arr.typecode!r}")
    return ctypes.cast(arr.buffer_info()[0], _I64P)


def float64_ptr(arr: Optional[array]):
    """A C ``double *`` into an ``array('d')`` (NULL for None/empty).

    The same contract as :func:`int64_ptr`.
    """
    if arr is None or not len(arr):
        return ctypes.cast(None, _F64P)
    if arr.typecode != "d":
        raise TypeError(f"float64 native input has typecode {arr.typecode!r}")
    return ctypes.cast(arr.buffer_info()[0], _F64P)


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


def _artifact_path(spec: NativeLibrary, source_text: bytes) -> Path:
    digest = hashlib.sha256(source_text).hexdigest()[:16]
    return _cache_dir() / f"repro_{spec.name}_{digest}_abi{spec.abi}.so"


def _try_load(spec: NativeLibrary, path: Path):
    """Load + ABI-check an existing artifact; returns (lib, reason)."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        return None, f"failed to load {path}: {exc}"
    try:
        abi_fn = getattr(lib, f"repro_{spec.name}_abi")
        abi_fn.restype = ctypes.c_int64
        abi_fn.argtypes = []
        spec.configure(lib)
        abi = abi_fn()
    except AttributeError as exc:
        return None, f"artifact {path} lacks {spec.name} symbols: {exc}"
    if abi != spec.abi:
        return None, (
            f"artifact {path} reports ABI {abi}, expected {spec.abi}"
        )
    return lib, None


def _build(spec: NativeLibrary, artifact: Path):
    """Compile one library; returns (lib, reason)."""
    cc = _find_compiler()
    if cc is None:
        return None, "no C compiler found on PATH (cc/gcc/clang)"
    artifact.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix=".build-", dir=str(artifact.parent)
    )
    os.close(fd)
    cmd = [
        cc, "-O2", "-fPIC", "-shared", "-o", tmp, str(spec.source),
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
    return _try_load(spec, artifact)


def _probe(spec: NativeLibrary) -> tuple:
    if os.environ.get("REPRO_NATIVE", "").strip() == "0":
        return None, "disabled via REPRO_NATIVE=0"
    if not spec.source.exists():
        return None, f"{spec.name} source missing: {spec.source}"
    artifact = _artifact_path(spec, spec.source.read_bytes())
    if artifact.exists():
        lib, _ = _try_load(spec, artifact)
        if lib is not None:
            return lib, None
        # Stale or broken artifact: fall through to a rebuild.
    return _build(spec, artifact)


def load(name: str = "kernel"):
    """Return the ctypes handle to library ``name``, or ``None``.

    First call per library and process probes (and builds if possible);
    the result -- including a failure -- is memoized so later calls are
    free.
    """
    probe = _probes.get(name)
    if probe is None:
        probe = _probes[name] = _probe(LIBRARIES[name])
    return probe[0]


def native_available(name: str = "kernel") -> bool:
    """True when library ``name`` is loadable (building if needed)."""
    return load(name) is not None


def native_error(name: str = "kernel") -> Optional[str]:
    """Why library ``name`` is unavailable (None when it is loaded)."""
    load(name)
    return _probes[name][1]


def reset_probe() -> None:
    """Forget every library's memoized probe (tests only)."""
    _probes.clear()


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.cpu.nativebuild",
        description="Build every compiled C library eagerly.",
    )
    parser.parse_args()
    failed = 0
    for name, spec in LIBRARIES.items():
        if load(name) is None:
            print(f"native {name} unavailable: {native_error(name)}")
            failed += 1
        else:
            path = _artifact_path(spec, spec.source.read_bytes())
            print(f"native {name} ready: {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
