"""Process-tree CPU and memory, host steal time and the run context,
read from /proc so the benchmark needs nothing beyond the engine's own
dependencies."""

from __future__ import annotations

import os
import platform
import subprocess
import threading

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return s[s.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """``root`` and every process below it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie counts as ended)."""
    f = _stat_fields(pid)
    return f is not None and f[0] != "Z"


def commands(pids: list[int]) -> dict[int, str]:
    """The command line of each live process, for the log."""
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                out[pid] = f.read().replace(b"\0", b" ").decode(errors="replace")[:120]
        except OSError:
            pass
    return out


def cpu_seconds(pids: list[int]) -> float:
    """User + system CPU of the given live processes."""
    total = 0
    for pid in pids:
        f = _stat_fields(pid)
        if f is not None:
            total += int(f[11]) + int(f[12])
    return total / _TICK


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE
        except OSError:
            pass
    return total


class TreeSampler:
    """Samples the summed RSS of this process's tree in a background
    thread; the tree itself is rescanned once a second."""

    def __init__(self, period_s: float = 0.2):
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "TreeSampler":
        self.peak = 0
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample(descendants(os.getpid()))

    def _sample(self, pids: list[int]) -> None:
        self.peak = max(self.peak, rss_bytes(pids))

    def _loop(self) -> None:
        pids, n = descendants(os.getpid()), 0
        while not self._stop.wait(self.period_s):
            n += 1
            if n % 5 == 0:
                pids = descendants(os.getpid())
            self._sample(pids)


def steal_ticks() -> int:
    """Host steal time since boot, in clock ticks (all CPUs)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def _cmd(*argv: str) -> str:
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()


def nproc() -> int:
    return int(_cmd("nproc"))


def context(num_cpus: int) -> dict:
    """Machine and library facts that let two runs be compared."""
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "nproc_all": int(_cmd("nproc", "--all")),
        "ray_num_cpus": num_cpus,
        "openblas_core": _openblas_core(),
        "openblas_coretype_env": os.environ.get("OPENBLAS_CORETYPE"),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__,
        "ray": ray.__version__,
    }


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def _openblas_core() -> str:
    """Core type OpenBLAS picked at load time, via its C entry point."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "libopenblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_corename", "scipy_openblas_get_corename64_",
                    "openblas_get_corename64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"
