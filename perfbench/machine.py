"""Facts about the machine and the code under test, stored with every result."""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from importlib import metadata
from pathlib import Path


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _sysconf(name: str) -> int | None:
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _cache_sizes() -> dict[int, str]:
    """Unified or data cache size per level for cpu0, as sysfs states it."""
    sizes: dict[int, str] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            sizes[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return sizes


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout at root, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's Python sources, so results name the code
    they measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((src / "binsum").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def nproc() -> int:
    """Cores this process may run on, as the nproc command reports them."""
    return len(os.sched_getaffinity(0))


def facts(root: Path, threads: int) -> dict:
    caches = _cache_sizes()
    page = _sysconf("SC_PAGE_SIZE")
    pages = _sysconf("SC_PHYS_PAGES")
    return {
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": _version("numpy"),
        "click": _version("click"),
        # installed, though unused: the harness times with perf_counter
        "pytest_benchmark": _version("pytest-benchmark"),
        "nproc": nproc(),
        "threads": threads,
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get(2),
        "l3_cache": caches.get(3),
        "mem_total_bytes": page * pages if page and pages else None,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root / "src"),
    }
