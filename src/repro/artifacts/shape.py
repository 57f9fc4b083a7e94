"""The payload shape checker: one declarative check for every artifact kind.

Each kind declares its payload shape as a plain nested literal next to
the builder that produces it, and :func:`check` walks a payload against
it.  The vocabulary:

==============================  =============================================
shape                           matches
==============================  =============================================
``int``/``float``/``str``/      a value of that type; ``float`` takes any
``bool``/``dict``/``list``      number, and ``bool`` never passes as one
``("a", "b")``                  exactly one of the listed values (an enum)
``[elem]``                      a list whose items all match ``elem``
``{"key": s, "opt?": s}``       an object carrying every key (extra keys
                                are fine); a ``?`` suffix marks a key that
                                may be absent or null
``{str: s}``                    a name-keyed map: every value matches ``s``
``{("a", "b"): s}``             the same, with keys drawn from the tuple
==============================  =============================================

Problems name the full path of the offending field
(``pool.per_worker[0]: expected object, got integer``), so a malformed
document is reported, never crashed on.  Semantic invariants (counts
that must add up, cross-references) stay as per-kind code and run only
after the shape has passed — see
:meth:`repro.artifacts.registry.ArtifactKind.validate_payload`.
"""

from __future__ import annotations

from typing import Any

_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean",
          dict: "object", list: "list"}

#: the summary a :class:`repro.obs.core.Histogram` reports, shared by
#: every payload that carries latency or value distributions
HISTOGRAM = {"count": int, "total": float, "min": float, "max": float,
             "mean": float, "p50": float, "p95": float, "p99": float}


def _is(value: Any, typ: type) -> bool:
    if isinstance(value, bool):
        return typ is bool
    return isinstance(value, (int, float) if typ is float else typ)


def check(value: Any, shape: Any, path: str = "") -> list[str]:
    """Problems with ``value`` against ``shape`` (empty = it matches)."""
    where = path or "document"
    if isinstance(shape, tuple):
        if value in shape:
            return []
        want = ", ".join(map(str, shape))
        return [f"{where}: unknown value {value!r} (want one of {want})"]
    typ = type(shape) if isinstance(shape, (dict, list)) else shape
    if not _is(value, typ):
        got = _NAMES.get(type(value), "null" if value is None else "other")
        return [f"{where}: expected {_NAMES[typ]}, got {got}"]
    if isinstance(shape, list):
        return [p for i, item in enumerate(value)
                for p in check(item, shape[0], f"{path}[{i}]")]
    problems: list[str] = []
    for key, sub in (shape.items() if isinstance(shape, dict) else ()):
        if not isinstance(key, str):  # a name-keyed map
            for name, item in value.items():
                at = f"{path}[{name!r}]"
                if key is str or name in key:
                    problems.extend(check(item, sub, at))
                else:
                    want = ", ".join(map(str, key))
                    problems.append(f"{at}: unknown key (want one of {want})")
            continue
        optional = key.endswith("?")
        name = key[:-1] if optional else key
        at = f"{path}.{name}" if path else name
        if name not in value or (optional and value[name] is None):
            if not optional:
                problems.append(f"{at}: missing")
            continue
        problems.extend(check(value[name], sub, at))
    return problems
