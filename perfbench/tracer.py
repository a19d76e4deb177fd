"""Spans around the public names the pipeline calls through.

A hook is a module attribute (``"platoonsec.cli_runner:run_control_step"``)
or a class attribute (``"platoonsec.v2v_channel:V2VChannel.corrupt"``).
Installing it swaps the attribute for a wrapper that records call count,
busy time (the span) and self time (the span minus its child spans).
A hook whose module, class or attribute no longer exists is recorded as
missing and skipped, so the traced run keeps working after a refactor
removes the name; metrics built on it are reported as absent.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _resolve(spec: str) -> Optional[tuple[Any, str]]:
    """The (owner, attribute) a hook spec names, or None if any part is gone."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans in memory; ``uninstall`` restores every wrapped name.

    ``top_busy_s`` sums the spans that had no traced parent, which is the
    part of a pass the hooked layers account for.
    """

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self.top_busy_s = 0.0
        self._stack: list[list[float]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def install(
        self, key: str, spec: str, on_result: Optional[Callable[[Any, tuple], None]] = None
    ) -> bool:
        """Wrap the named callable, recording spans under ``key``.

        ``on_result(result, args)`` runs after the span closes, for counts
        read from a call's arguments or return value.
        """
        target = _resolve(spec)
        if target is None:
            self.missing.append(spec)
            return False
        owner, attr = target
        # On a class this is the plain function; the wrapper binds self.
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(key, SpanStats())
        stack = self._stack

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                else:
                    self.top_busy_s += span
                stats.calls += 1
                stats.busy_s += span
                stats.self_s += span - children[0]
            if on_result is not None:
                on_result(result, args)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
