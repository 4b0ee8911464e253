"""Spans and counters around the public functions of each ``qsslab`` layer.

The tracer patches from outside: every module namespace under ``qsslab``
that binds a traced function gets the wrapper (``qss.apply_semigroup`` as
well as ``model.apply_semigroup``), and ``uninstall`` restores the
originals.  A name that no longer exists is listed in ``absent`` instead of
failing, so the same benchmark runs on later commits.

Only work inside a command counts: ``command`` opens the root span ``cli``
around one call of ``qsslab.cli.main`` and all spans of that call share its
run id.  Spans are kept in memory.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# layer module -> public functions timed as spans
SPANS = {
    "operators": ("expm", "eig_general"),
    "model": ("build_generator", "apply_semigroup"),
    "structure": ("check_subharmonic", "restrict", "absorption_operator", "check_irreducible"),
    "qss": ("real_eigen_candidates", "extract_qss", "perron_structure", "verify_qss"),
    "trajectory": ("build_kernel", "sample_trajectories", "sample_trajectory", "jump_statistics"),
    "classical": ("crosscheck", "classical_qsd"),
    "modelio": ("load_model", "dumps"),
}
# leaf calls that are only counted, with the spans they are also counted under
COUNTS = {
    "numpy.linalg.eig": (),
    "numpy.linalg.eigvalsh": ("qss.extract_qss",),
    "scipy.linalg.expm": ("operators.expm",),
    "qsslab.trajectory._Propagator.trace_curve": (),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "child_time")

    def __init__(self, id, name, start, parent, run):
        self.id, self.name, self.start, self.parent, self.run = id, name, start, parent, run
        self.end = None
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run": self.run}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.bytes_out = 0
        self.absent = []
        self._stack = []
        self._active = Counter()
        self._restore = []

    # -- recording -------------------------------------------------------

    def reset(self):
        self.spans, self.counts, self.bytes_out = [], Counter(), 0

    def _enter(self, name, run=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(),
                    None if parent is None else parent.id,
                    parent.run if parent is not None else run)
        self.spans.append(span)
        self._stack.append(span)
        self._active[name] += 1
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._active[span.name] -= 1
        if self._stack:
            self._stack[-1].child_time += span.end - span.start

    def command(self, run_id, fn, *args):
        """Call ``fn(*args)`` under the root span ``cli`` with run id ``run_id``."""
        span = self._enter("cli", run_id)
        try:
            return fn(*args)
        finally:
            self._exit(span)

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            # outside a command, or a recursive call (modelio.dumps): no span
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if name == "modelio.dumps":
                self.bytes_out += len(result)
            return result
        return wrapper

    def _count_wrapper(self, key, scopes, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                run = self._stack[0].run
                self.counts[run, key] += 1
                for scope in scopes:
                    if self._active[scope]:
                        self.counts[run, f"{key}@{scope}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qsslab" or mod_name.startswith("qsslab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        self.absent = []
        for layer, names in SPANS.items():
            mod = _import(f"qsslab.{layer}")
            for name in names:
                original = getattr(mod, name, None) if mod else None
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._patch_everywhere(original, self._span_wrapper(f"{layer}.{name}", original))
        for key, scopes in COUNTS.items():
            owner_path, attr = key.rsplit(".", 1)
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._count_wrapper(key, scopes, original)
            self._set(owner, attr, wrapper)
            self._patch_everywhere(original, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- metrics ---------------------------------------------------------

    def calls(self, name, run=None) -> int:
        """Spans called ``name``, in all commands or in command ``run``."""
        return sum(1 for s in self.spans if s.name == name and run in (None, s.run))

    def count(self, key, run=None) -> int:
        """Counted leaf calls ``key`` (``leaf@span`` for calls inside a span)."""
        return sum(n for (r, k), n in self.counts.items() if k == key and run in (None, r))

    def self_s(self, *names, scales=None) -> float:
        """Summed self time of spans ``names``, each scaled by ``scales[run]``."""
        scales = scales or {}
        return sum(s.self_time * scales.get(s.run, 1.0) for s in self.spans if s.name in names)


def _import(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _resolve(path):
    """Module or class at a dotted path, or None when it does not exist."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        obj = _import(".".join(parts[:i]))
        if obj is not None:
            for attr in parts[i:]:
                obj = getattr(obj, attr, None)
                if obj is None:
                    return None
            return obj
    return None
