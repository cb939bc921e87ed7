"""The session benchmark recorder and shared atomic file writes.

:class:`BenchRecorder` collects :class:`~repro.bench.sample.Sample`
records per benchmark name and, when the benchmark registers its human
table, atomically publishes both artifacts:

* ``<results_dir>/<name>.txt`` — the unchanged human-readable table,
  newline-terminated;
* ``<json_dir>/BENCH_<name>.json`` — the canonical sample document.

Writes go through :func:`atomic_write_text` (temp file + ``os.replace``
with ``parents=True``), so an interrupted run never leaves a partial
table or document addressable, and a fresh checkout with no
``results/`` directory just works.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import time
from typing import Any, Dict, List, Optional

from .sample import Sample, canonical_dumps, document_from_samples


def atomic_write_text(path: pathlib.Path, text: str) -> pathlib.Path:
    """Atomically write ``text`` (newline-terminated) to ``path``.

    Creates missing parent directories, writes to a same-directory temp
    file, then publishes with ``os.replace`` so readers never observe a
    partial file.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not text.endswith("\n"):
        text += "\n"
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed replace
            tmp.unlink()
    return path


def git_revision(cwd: Optional[pathlib.Path] = None) -> str:
    """Short git rev of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


class BenchRecorder:
    """Collects samples + tables per benchmark and publishes both.

    ``common_metadata`` (git rev, timestamp, cpu count, smoke flag) is
    folded into every sample; per-sample keyword metadata wins on
    collision.
    """

    def __init__(
        self,
        results_dir: pathlib.Path,
        json_dir: pathlib.Path,
        common_metadata: Optional[Dict[str, Any]] = None,
    ):
        self.results_dir = pathlib.Path(results_dir)
        self.json_dir = pathlib.Path(json_dir)
        if common_metadata is None:
            common_metadata = default_common_metadata()
        self.common_metadata = dict(common_metadata)
        self._samples: Dict[str, List[Sample]] = {}
        self._published: Dict[str, pathlib.Path] = {}

    # -- registration --------------------------------------------------
    def sample(
        self,
        bench: str,
        metric: str,
        value: float,
        unit: str,
        /,
        **metadata: Any,
    ) -> Sample:
        """Register one measurement for benchmark ``bench``.

        The leading parameters are positional-only so metadata keys
        may reuse their names — ``unit="alu"`` (the design unit) is a
        metadata key on half the paper-table benchmarks, distinct from
        the sample's measurement unit.
        """
        merged = dict(self.common_metadata)
        merged.update(metadata)
        sample = Sample(metric=metric, value=value, unit=unit,
                        metadata=merged)
        self._samples.setdefault(bench, []).append(sample)
        return sample

    # -- publication ---------------------------------------------------
    def table(self, bench: str, text: str) -> None:
        """Register the human table and flush both artifacts."""
        atomic_write_text(self.results_dir / f"{bench}.txt", text)
        print(f"\n=== {bench} ===\n{text}")
        self.flush(bench)

    def flush(self, bench: str) -> pathlib.Path:
        """Write (or rewrite) BENCH_<bench>.json from registered samples."""
        document = document_from_samples(bench, self._samples.get(bench, []))
        path = atomic_write_text(
            self.json_dir / f"BENCH_{bench}.json", canonical_dumps(document)
        )
        self._published[bench] = path
        return path

    def flush_all(self) -> List[pathlib.Path]:
        """Publish every benchmark that registered samples but no table."""
        return [
            self.flush(bench)
            for bench in sorted(self._samples)
            if bench not in self._published
        ]


def default_common_metadata() -> Dict[str, Any]:
    return {
        "git_rev": git_revision(),
        "timestamp": int(time.time()),
        "cpus": os.cpu_count() or 1,
        "smoke": os.environ.get("VEGA_SMOKE") == "1",
    }
