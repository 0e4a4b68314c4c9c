"""Per-layer tracing by wrapping lelab's public functions from outside.

No lelab source is edited.  ``Tracer.install`` replaces each traced
function, wherever a lelab module holds a reference to it, by a wrapper
that records a span (name, start, end, parent, thread) in memory, plus
``numpy.linalg.eigh``/``eigvalsh`` as the kernel layer under them.
``Tracer.uninstall`` puts the originals back.

Self time.  A span's self time is its duration minus the part of it that
its child spans cover (the union of their intervals, so children running
in parallel worker threads are not subtracted twice).  Spans opened by a
worker thread with nothing open in that thread are children of the span
open in the tracing thread, which is the one waiting on the pool.
``linalg.*`` spans are kernel spans: they are not subtracted from their
caller, so a layer's self time includes the LAPACK calls it makes, and
``linalg.*_s`` says how much of that is LAPACK.  The self times of all
other spans then sum to the root's duration plus ``trace.overlap_s``,
the thread-seconds that ran in parallel.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# (module, function name, layer); methods are handled in install().
FUNCTION_LAYERS = (
    ("cli", "main", "cli.main"),
    ("config", "validate_config", "config.validate"),
    ("basis", "build_basis", "basis.build"),
    ("basis", "build_basis_1d", "basis.build"),
    ("dynamics", "build_hamiltonian", "dynamics.hamiltonian"),
    ("states", "random_pure_state", "states.init"),
    ("states", "pure_to_density", "states.init"),
    ("states", "random_effectively_pure_state", "states.init"),
    ("states", "effectively_pure_state", "states.init"),
    ("states", "global_entropy", "states.global_entropy"),
    ("states", "global_purity", "states.global_purity"),
    ("reduction", "entropy_trace", "reduction.trace"),
    ("reduction", "reduce", "reduction.reduce"),
    ("reduction", "shell_entropies", "reduction.shell_entropies"),
    ("reduction", "is_effectively_pure", "reduction.effectively_pure"),
    ("reduction", "alpha_decompose", "reduction.alpha_decompose"),
    ("reduction", "free_phase_law", "reduction.free_phase"),
    ("koopman", "single_p_row_density", "koopman.init"),
    ("koopman", "density_from_values", "koopman.init"),
    ("koopman", "classical_free_flow", "koopman.free_flow"),
    ("koopman", "apply_kick", "koopman.kick"),
    ("koopman", "classical_reduce", "koopman.reduce"),
    ("koopman", "classical_effective_entropy", "koopman.entropy"),
    ("harness", "run", "harness.run"),
)
# Layers whose self time is reported as ``<layer>_s``.
TIMED_LAYERS = sorted({layer for _, _, layer in FUNCTION_LAYERS} - {"harness.run"} | {
    "dynamics.eigh", "dynamics.evolve", "states.validate", "reduction.reconstruct",
    "linalg.eigh", "linalg.eigvalsh",
})
# Layers whose call count is reported as ``<layer>_calls``.
COUNTED_LAYERS = ("dynamics.eigh", "dynamics.evolve", "states.validate", "koopman.free_flow",
                  "linalg.eigh", "linalg.eigvalsh")


@dataclass(slots=True, eq=False)
class Span:
    name: str
    parent: Span | None
    thread: int
    start: float = 0.0
    end: float = 0.0


class Tracer:
    """Spans and counts of one traced in-process run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home) if tid != self._home else None
            parent = home[-1] if home else None
        span = Span(name, parent, tid)
        stack.append(span)
        with self._lock:
            self.spans.append(span)
            self.counts[name] += 1
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    def add(self, key: str, value) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every loaded lelab module."""
        from lelab import dynamics, reduction, states

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "lelab" or name.startswith("lelab.")}
        after = {
            "basis.build": _after_basis,
            "reduction.trace": _after_trace,
            "reduction.alpha_decompose": _after_decompose,
        }
        wrappers = {}
        for mod, fname, layer in FUNCTION_LAYERS:
            fn = getattr(mods[f"lelab.{mod}"], fname)
            wrappers[id(fn)] = (fn, self.wrap(layer, fn, after.get(layer)))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

        prop = dynamics.Propagator
        from_h = prop.__dict__["from_hamiltonian"].__func__
        self._set(prop, "from_hamiltonian", classmethod(self.wrap("dynamics.eigh", from_h)))
        self._set(prop, "evolve", self.wrap("dynamics.evolve", prop.evolve))
        dm = states.DensityMatrix
        self._set(dm, "__post_init__", self.wrap("states.validate", dm.__post_init__))
        ad = reduction.AlphaDecomposition
        self._set(ad, "reconstruct", self.wrap("reduction.reconstruct", ad.reconstruct))
        for fname in ("eigh", "eigvalsh"):
            self._set(np.linalg, fname,
                      self.wrap(f"linalg.{fname}", getattr(np.linalg, fname), _after_linalg))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name (see the module docstring)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None and not s.name.startswith("linalg."):
                children[id(s.parent)].append(s)
        out = defaultdict(float)
        for s in self.spans:
            out[s.name] += (s.end - s.start) - _covered(s, children[id(s)])
        return dict(out)

    def durations(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def export(self) -> list:
        """Spans as [name, start, end, parent index, thread], times from the first start."""
        t0 = min((s.start for s in self.spans), default=0.0)
        index = {id(s): i for i, s in enumerate(self.spans)}
        threads = {}
        return [[s.name, s.start - t0, s.end - t0,
                 None if s.parent is None else index[id(s.parent)],
                 threads.setdefault(s.thread, len(threads))] for s in self.spans]


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total, reach = 0.0, span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _after_basis(tracer, args, kwargs, basis):
    tracer.counts["basis.points"] = basis.size
    tracer.counts["basis.shells"] = basis.n_shells


def _after_trace(tracer, args, kwargs, rows):
    tracer.counts["reduction.workers"] = kwargs.get("workers") or 1
    tracer.add("reduction.rows", len(rows))


def _after_decompose(tracer, args, kwargs, dec):
    n = dec.components[0].shape[0]
    sectors = max(tracer.counts["reduction.sectors"], len(dec.alphas))
    tracer.counts["reduction.sectors"] = sectors
    tracer.counts["reduction.sector_mb"] = sectors * n * n * 16 / 1e6


def _after_linalg(tracer, args, kwargs, result):
    tracer.add("linalg.flops_est", int(np.shape(args[0])[-1]) ** 3)
