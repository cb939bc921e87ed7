"""Artifact export and the content-addressed artifact cache.

The paper's third contribution: "We provide a set of circuit-level
failure models for the analyzed hardware to facilitate future research
into silent data corruptions."  Those models are the *failing netlists*
produced by failure-model instrumentation — standalone Verilog files
that behave like the aged circuit and can be simulated or mapped to an
FPGA.

:func:`export_failure_models` writes one ``.v`` per (endpoint pair, C
mode) plus a JSON index describing each model's violation, trigger
condition, and provenance; :func:`export_suite_artifacts` writes the
software side (assembly suite, C library, spliceable routine).

:class:`ArtifactCache` is the phase-1 memo store: SP profiles and aged
delay models are *pure functions* of (netlist structure, workload
content, cycle count, aging parameters, corner), so they are cached on
disk under a sha256 of exactly those inputs.  Repeated
``VegaWorkflow.run_aging_analysis`` or benchmark invocations then reuse
the artifacts instead of re-simulating the workload.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import warnings
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from . import telemetry
from ..integration.library_gen import AgingLibrary
from ..lifting.instrument import FailingNetlist


@dataclass
class ArtifactIndex:
    """Manifest of an exported artifact directory."""

    unit: str
    netlist_name: str
    models: List[Dict] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "unit": self.unit,
                "netlist": self.netlist_name,
                "models": self.models,
                "files": self.files,
            },
            indent=2,
        )


class ArtifactCache:
    """Content-addressed on-disk store for phase-1 artifacts.

    Entries live at ``<root>/<kind>/<key[:2]>/<key>.json`` where ``key``
    is :meth:`digest` over every input the artifact depends on.  There
    is deliberately no invalidation protocol: a changed input changes
    the key, and stale entries simply stop being addressed.

    ``hits``/``misses`` count lookups for reporting and tests.
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- keys ----------------------------------------------------------
    @staticmethod
    def digest(*parts: Any) -> str:
        """sha256 over the canonical JSON encoding of ``parts``."""
        payload = json.dumps(parts, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def stream_digest(operands: Sequence[Mapping[str, int]]) -> str:
        """Content id of an operand stream (workload identity).

        Hashes the per-operation port values in order, so the same
        recorded workload addresses the same cache entry in any process.
        """
        h = hashlib.sha256()
        for op in operands:
            for name in sorted(op):
                h.update(f"{name}={op[name]};".encode())
            h.update(b"\n")
        return h.hexdigest()

    # -- raw text entries ----------------------------------------------
    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def load(self, kind: str, key: str) -> Optional[str]:
        path = self._path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        self.hits += 1
        return text

    def store(self, kind: str, key: str, text: str) -> pathlib.Path:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text)
        tmp.replace(path)  # atomic publish: readers never see partials
        return path

    # -- pickled phase checkpoints --------------------------------------
    def _checkpoint_path(self, key: str) -> pathlib.Path:
        return self.root / "checkpoint" / key[:2] / f"{key}.pkl"

    def load_checkpoint(self, key: str) -> Optional[Any]:
        """A previously published phase result, or None.

        Corrupt or truncated checkpoints (a crash mid-``replace`` is
        impossible, but a damaged disk entry is not) count as misses
        rather than raising — resume then recomputes the phase.  The
        corruption is *loud*, though: the bad file is quarantined as
        ``<key>.pkl.corrupt`` (so the evidence survives and the key
        stops addressing it), a ``cache.checkpoint_corrupt`` telemetry
        event fires, and a :class:`UserWarning` is emitted.  Silently
        re-running a multi-minute phase with no signal was a bug.
        """
        import pickle

        path = self._checkpoint_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = pickle.loads(data)
        except (
            pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, KeyError, ValueError, TypeError,
        ) as exc:
            self.misses += 1
            self._quarantine_checkpoint(path, key, exc)
            return None
        self.hits += 1
        return value

    def _quarantine_checkpoint(
        self, path: pathlib.Path, key: str, exc: BaseException
    ) -> Optional[pathlib.Path]:
        """Move a corrupt checkpoint aside and report it."""
        quarantine: Optional[pathlib.Path]
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            path.replace(quarantine)
        except OSError:  # e.g. raced delete; nothing left to keep
            quarantine = None
        telemetry.add("cache.checkpoint_corrupt")
        telemetry.event(
            "cache.checkpoint_corrupt",
            key=key,
            error=f"{type(exc).__name__}: {exc}",
            quarantined=str(quarantine) if quarantine else None,
        )
        warnings.warn(
            f"corrupt checkpoint {path.name} ({type(exc).__name__}: {exc}); "
            + (
                f"quarantined as {quarantine.name}, "
                if quarantine
                else ""
            )
            + "the phase will be recomputed",
            stacklevel=3,
        )
        return quarantine

    def store_checkpoint(self, key: str, value: Any) -> pathlib.Path:
        """Atomically publish a phase result for later resume.

        Checkpoints are pickled (phase results are plain dataclasses),
        written to a temp file and renamed, so a killed run never leaves
        a partially-written checkpoint addressable.
        """
        import pickle

        path = self._checkpoint_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        tmp.replace(path)
        return path

    # -- typed entries -------------------------------------------------
    def load_profile(self, key: str):
        from ..sim.probes import SPProfile

        text = self.load("sp-profile", key)
        return SPProfile.from_json(text) if text is not None else None

    def store_profile(self, key: str, profile) -> None:
        self.store("sp-profile", key, profile.to_json())

    def load_delay_model(self, key: str):
        """Cached (DelayModel, delay_increase) or None.

        An entry whose stored corner does not carry exactly
        :class:`OperatingCorner`'s fields was written by an older
        corner layout; it counts as a miss, so the caller recomputes
        and re-stores it.
        """
        from ..aging.corners import OperatingCorner
        from ..sta.timing import DelayModel

        text = self.load("aged-delays", key)
        if text is None:
            return None
        data = json.loads(text)
        if set(data["corner"]) != {f.name for f in fields(OperatingCorner)}:
            self.hits -= 1
            self.misses += 1
            return None
        model = DelayModel(
            delays={
                name: (pair[0], pair[1])
                for name, pair in data["delays"].items()
            },
            clock_early=dict(data["clock_early"]),
            clock_late=dict(data["clock_late"]),
            corner=OperatingCorner(**data["corner"]),
        )
        return model, dict(data["increase"])

    def store_delay_model(self, key: str, model, increase: Dict[str, float]) -> None:
        import dataclasses

        payload = {
            "delays": {
                name: [tmin, tmax]
                for name, (tmin, tmax) in model.delays.items()
            },
            "clock_early": model.clock_early,
            "clock_late": model.clock_late,
            "corner": dataclasses.asdict(model.corner),
            "increase": increase,
        }
        self.store("aged-delays", key, json.dumps(payload, sort_keys=True))


def export_failure_models(
    failing: Sequence[FailingNetlist],
    directory: str,
    unit: str = "unit",
) -> ArtifactIndex:
    """Write each failing netlist as Verilog plus a JSON manifest.

    Returns the index (also written as ``index.json``).
    """
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = ArtifactIndex(
        unit=unit,
        netlist_name=failing[0].netlist.name.split("__")[0] if failing else "",
    )
    for model in failing:
        filename = f"{model.model.label}.v"
        (out_dir / filename).write_text(model.to_verilog())
        index.files.append(filename)
        index.models.append(
            {
                "file": filename,
                "kind": model.model.kind.value,
                "start": model.model.start,
                "end": model.model.end,
                "c_mode": model.model.c_mode.value,
                "edge": model.model.edge.value,
                "cells": model.netlist.stats()["_cells"],
            }
        )
    (out_dir / "index.json").write_text(index.to_json())
    return index


def export_suite_artifacts(
    library: AgingLibrary,
    directory: str,
) -> List[str]:
    """Write the software aging library's three artifact flavours."""
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        (f"{library.name}.s", library.suite_source()),
        (f"{library.name}.c", library.c_source()),
        (f"{library.name}_routine.s", library.routine_source()),
    ):
        (out_dir / name).write_text(text)
        written.append(name)
    return written
