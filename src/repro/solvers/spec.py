"""Solver spec strings — the string-addressable form of a parameterized solver.

A *spec* names a registered solver plus its parameter overrides in one
plain string::

    haste-offline
    haste-offline:c=4,smooth=0
    online-haste:tau=2
    greedy-utility:utility=log

The grammar is ``name[:key=value[,key=value…]]``.  Values are parsed as
Python literals where unambiguous — ``int``, ``float``, ``true``/``false``
(case-insensitive) — and kept as strings otherwise.  Because a spec is a
plain string it crosses process boundaries for free: sweep workers receive
spec strings and resolve them against the (module-level, importable)
registry inside the worker, which is what removed the old
"algorithm tables must be module-level picklable callables" constraint.

:func:`parse_spec` and :meth:`SolverSpec.canonical` round-trip: canonical
form sorts parameters and renders booleans as ``1``/``0``, so two spellings
of the same configuration compare (and hash) equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SolverSpec", "SpecError", "parse_spec"]


class SpecError(ValueError):
    """A solver spec string that cannot be parsed."""


def _parse_value(raw: str):
    """``"4"`` → 4, ``"0.5"`` → 0.5, ``"true"`` → True, else the string."""
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


@dataclass(frozen=True)
class SolverSpec:
    """A parsed solver spec: registry name plus parameter overrides."""

    name: str
    params: dict = field(default_factory=dict)

    def canonical(self) -> str:
        """The normalized spec string (sorted params, bools as 1/0)."""
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{k}={_render_value(self.params[k])}" for k in sorted(self.params)
        )
        return f"{self.name}:{rendered}"

    def __str__(self) -> str:
        return self.canonical()


def parse_spec(spec: "str | SolverSpec") -> SolverSpec:
    """Parse ``name[:k=v,…]`` into a :class:`SolverSpec` (idempotent)."""
    if isinstance(spec, SolverSpec):
        return spec
    if not isinstance(spec, str):
        raise SpecError(f"solver spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if not text:
        raise SpecError("empty solver spec")
    name, sep, tail = text.partition(":")
    name = name.strip()
    if not name:
        raise SpecError(f"solver spec {spec!r} has no name")
    params: dict = {}
    if sep and tail.strip():
        for item in tail.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, raw = item.partition("=")
            key = key.strip()
            if not eq or not key or not raw.strip():
                raise SpecError(
                    f"malformed parameter {item!r} in spec {spec!r} "
                    "(expected key=value)"
                )
            if key in params:
                raise SpecError(f"duplicate parameter {key!r} in spec {spec!r}")
            params[key] = _parse_value(raw)
    elif sep and not tail.strip():
        raise SpecError(f"spec {spec!r} ends with ':' but has no parameters")
    return SolverSpec(name=name, params=params)
