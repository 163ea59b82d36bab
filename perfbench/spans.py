"""In-memory span tracing installed from the benchmark's own files.

A :class:`Tracer` records one span per call of a wrapped callable: its
name, start, end and parent (the span open when it began).  Spans live in
parallel lists until the run ends; :meth:`Tracer.write` saves them.  A
span's self time is its duration minus the time its children cover.

:class:`Instrumentation` swaps public callables of the program (methods
on classes, functions bound in modules) for traced wrappers and restores
every attribute exactly on :meth:`~Instrumentation.remove`, so untraced
runs execute the program untouched.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

_MISSING = object()


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: span index -> value returned by the wrapper's ``note`` callable.
        self.notes: Dict[int, Any] = {}
        #: span index -> request ids the span served (step spans).
        self.request_ids: Dict[int, List[str]] = {}
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``note(*args, **kwargs)``, when given, is evaluated before the call
        and its value kept in :attr:`notes` under the span's index.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        notes = self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if note is not None:
                notes[index] = note(*args, **kwargs)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return traced

    def annotate(self, index: int, request_ids: Sequence[str]) -> None:
        self.request_ids[index] = list(request_ids)

    def arrays(self):
        """``(names, durations, self_times, parents)`` as NumPy arrays."""
        names = np.asarray(self.names, dtype=object)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        return names, durations, self_times(durations, parents), parents

    def write(self, path: Path) -> None:
        """Save every span (name, start, end, parent) and the step request ids."""
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.asarray(table),
            name=np.asarray([code[n] for n in self.names], dtype=np.int32),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
            parent=np.asarray(self.parents, dtype=np.int64),
            request_ids=np.asarray(
                json.dumps({str(k): v for k, v in self.request_ids.items()})
            ),
        )


def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


@dataclass(frozen=True)
class Patch:
    """One callable to trace: ``owner.attr`` (a class or a module)."""

    owner: Any
    attr: str
    span: str
    note: Optional[Callable] = None


class Instrumentation:
    """Install traced wrappers for a set of patches; remove them exactly."""

    def __init__(self, tracer: Tracer, patches: Sequence[Patch]) -> None:
        self.tracer = tracer
        self.patches = list(patches)
        self._saved: List[tuple] = []

    def install(self) -> "Instrumentation":
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for patch in self.patches:
            own = vars(patch.owner).get(patch.attr, _MISSING)
            self._saved.append((patch.owner, patch.attr, own))
            original = getattr(patch.owner, patch.attr)
            setattr(patch.owner, patch.attr, self.tracer.wrap(patch.span, original, patch.note))
        return self

    def remove(self) -> None:
        """Restore every patched attribute, including where it was inherited."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
