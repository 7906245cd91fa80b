"""In-memory span recorder for the benchmark's traced runs.

The recorder times calls into the program's layers from the outside:
:meth:`SpanRecorder.wrap` replaces a function or method *where its
caller looks it up* (a class attribute, or a module global such as
``repro.serve.broker.encode_frame``) with a wrapper that records one
span per call.  Nothing under ``src/`` changes.

A span is ``(name, start, end, parent, request)``.  Spans live in
compact parallel arrays while the run goes on and are written out
once, when the run ends (:meth:`SpanRecorder.save`).  Only synchronous
functions are wrapped: a synchronous call cannot interleave with
another task's, so one global stack gives every span its parent even
under asyncio.

Self time is a span's duration minus the part covered by its direct
children (:func:`self_times`).  Because children nest inside their
parent, the self times of all spans in a window never exceed the
window's wall time; the rest is reported as ``unattributed_s``.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpanRecorder", "self_times", "layer_table"]


class SpanRecorder:
    """Records spans for wrapped callables while :attr:`active`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("q")
        #: Request the next spans belong to (contact index, message id).
        self.request_id = -1
        #: Per-name sums of a measured argument property (keys, bytes).
        self.totals: Dict[str, float] = {}
        #: Per-name maxima of a measured after-call property.
        self.maxima: Dict[str, float] = {}
        self.active = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- registration --------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        layer: str,
        request: Optional[Callable[[tuple], int]] = None,
        measure: Optional[Callable[[tuple], float]] = None,
        after: Optional[Callable[[tuple], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``request(args)`` sets :attr:`request_id` before the call (the
        contact index or message id the call starts); ``measure(args)``
        is summed into ``totals[name]``; ``after(args)`` is evaluated
        after the call and its maximum kept in ``maxima[name]``.
        """
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # Keep the raw class attribute so restore() puts back
            # exactly what was there (functions, not bound methods).
            original_raw = owner.__dict__.get(attr, original)
        else:
            original_raw = original
        nid = self._name(name, layer)
        rec = self
        stack = self._stack
        names, starts, ends = self.name_id, self.start, self.end
        parents, requests = self.parent, self.request
        clock = time.perf_counter
        totals, maxima = self.totals, self.maxima

        def wrapper(*args, **kwargs):
            if not rec.active:
                return original(*args, **kwargs)
            if request is not None:
                rec.request_id = request(args)
            if measure is not None:
                totals[name] = totals.get(name, 0.0) + measure(args)
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(rec.request_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = clock()
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
                if after is not None:
                    value = after(args)
                    if value > maxima.get(name, 0.0):
                        maxima[name] = value

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper, original_raw)

    def patch(self, owner: object, attr: str, replacement: object,
              original: object = None) -> None:
        """Set ``owner.attr`` to *replacement* until :meth:`restore`."""
        if original is None:
            original = getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped callable (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_id)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            **self.arrays(),
        )

    def summarize(self, window: Tuple[float, float]) -> Dict[str, dict]:
        """Per-name ``{"layer", "calls", "self_s"}`` over spans starting
        inside ``window`` (a ``(t0, t1)`` pair of perf_counter stamps)."""
        spans = self.arrays()
        return layer_table(
            self.names, self.layers, spans["name_id"], spans["start"],
            spans["end"], spans["parent"], window,
        )


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct
    children.  ``parent[i]`` is the index of span *i*'s parent, or -1."""
    duration = np.asarray(end, dtype=np.float64) - np.asarray(
        start, dtype=np.float64
    )
    parent = np.asarray(parent)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_table(
    names: Sequence[str],
    layers: Sequence[str],
    name_id: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
    window: Tuple[float, float],
) -> Dict[str, dict]:
    """Per-name calls and self time for spans starting in *window*."""
    own = self_times(start, end, parent)
    inside = (start >= window[0]) & (start < window[1])
    calls = np.bincount(name_id[inside], minlength=len(names))
    seconds = np.bincount(
        name_id[inside], weights=own[inside], minlength=len(names)
    )
    return {
        name: {
            "layer": layers[i],
            "calls": int(calls[i]),
            "self_s": float(seconds[i]),
        }
        for i, name in enumerate(names)
    }
