"""Run record: thread pins, library versions, machine, host steal time, and
the identity of the code under test.

`pin_threads` must run before NumPy is first imported; everything else here
imports NumPy lazily so that importing this module does not defeat the pin.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from pathlib import Path

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Pin every BLAS/OpenMP pool to one thread (call before importing NumPy)."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def _openblas_library():
    # The loaded OpenBLAS build is found through this process's own memory map.
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if path.endswith(".so") or ".so." in path:
            try:
                return ctypes.CDLL(path)
            except OSError:
                continue
    return None


def _symbol(lib, stem):
    for name in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_", f"openblas_{stem}"):
        if hasattr(lib, name):
            return getattr(lib, name)
    return None


def blas_state():
    """Thread count and configuration string reported by the loaded OpenBLAS.

    The thread count is None when no OpenBLAS is loaded or it exposes no
    query, in which case the pin is recorded as unverified.
    """
    import numpy as np  # noqa: F401  (loads the BLAS library)

    lib = _openblas_library()
    if lib is None:
        return {"threads": None, "config": "unknown"}
    threads_fn = _symbol(lib, "get_num_threads")
    config_fn = _symbol(lib, "get_config")
    threads = None
    if threads_fn is not None:
        threads_fn.restype = ctypes.c_int
        threads = int(threads_fn())
    config = "unknown"
    if config_fn is not None:
        config_fn.restype = ctypes.c_char_p
        config = config_fn().decode("ascii", errors="replace").strip()
    return {"threads": threads, "config": config}


def steal_ticks():
    """Host steal ticks summed over all CPUs, from /proc/stat (None if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit(root):
    """HEAD commit read from the .git directory, without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_identity(root):
    """Line count and content digest of the program's Python sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def machine_record(root):
    """Everything about the run that does not change while it measures."""
    import numpy as np

    blas = blas_state()
    return {"numpy": np.__version__,
            "openblas": blas["config"],
            "blas_threads": blas["threads"],
            "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "commit": _commit(root),
            **source_identity(root)}


def check_pins(record):
    """Problems with the thread pin; an unverifiable BLAS count is not one."""
    problems = [f"{name}={value!r}" for name, value in record["thread_env"].items()
                if value != "1"]
    if record["blas_threads"] not in (None, 1):
        problems.append(f"OpenBLAS reports {record['blas_threads']} threads")
    return problems
