"""In-memory spans recorded around the calls into each romga layer.

The tracer wraps public functions from outside the package, under the module
attribute their callers look up (``romga.genetic.interpolate_reduced`` is the
name the genetic search calls, ``romga.cli.interpolate_reduced`` the one the
predict command calls). Each call records a span with a name, start, end,
parent span and request id. Spans stay in memory and are written out once,
when the run ends. Nothing inside ``src/romga`` is changed.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str            # "<layer>.<function>"
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at the top
    request: str         # workload phase, target or query this call serves
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its children cover.

    Children are clipped to the parent interval and overlapping children are
    merged first, so a self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(max(span.duration - covered, 0.0))
    return result


class Tracer:
    """Records spans for calls made while it is installed.

    ``install`` replaces module attributes by recording wrappers and
    ``uninstall`` puts the originals back, so the untraced measurements of the
    same run call the library unwrapped.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, func, annotate=None, prepare=None, via=""):
        """Wrap ``func`` so each call records a span named ``name``.

        ``prepare(args, kwargs)`` returns attributes read before the call;
        ``annotate(attrs, args, kwargs, result)`` may add more after a
        successful call. A call that raises gets ``attrs["raised"]``.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            attrs = {"via": via, **(prepare(args, kwargs) if prepare else {})}
            record = Span(name, self.clock(), 0.0, parent, self.request, attrs)
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                record.end = self.clock()
                record.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            record.end = self.clock()
            if annotate is not None:
                annotate(record.attrs, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """``targets``: (owner, attribute, span name, annotate, prepare) tuples.

        The owner is a module or a class; its module name becomes ``via``.
        """
        for owner, attr, name, annotate, prepare in targets:
            original = getattr(owner, attr)
            via = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, annotate, prepare, via))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (span, own) in enumerate(zip(self.spans, selfs)):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self": own,
                            "parent": span.parent,
                            "request": span.request,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )
