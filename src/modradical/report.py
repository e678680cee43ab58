"""Deterministic report rendering.

Structured mode flattens a report tree into ``path = value`` lines sorted by
path: dictionary keys become dotted path segments, numeric ones first and by
value, list items get 1-based numeric segments, and scalar lists render
inline as ``[a,b,c]``.  One walk writes the lines in that order.  The
encoding is stable byte-for-byte for equal data, which is what the
golden-file tests and the determinism checks rely on.
"""

from __future__ import annotations


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (str, int, bool))


def _scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return v.replace("\\", "\\\\").replace("\n", "\\n")
    return str(v)


def _segment_key(seg: str):
    return (0, int(seg), "") if seg.isdigit() else (1, 0, seg)


def _render(value, prefix: str, out: list) -> None:
    """Append the lines of ``value`` at the path ``prefix`` less its final dot,
    in path order: dict keys by :func:`_segment_key`, list items as listed."""
    if isinstance(value, dict):
        if not value:
            out.append(prefix[:-1] + " = {}\n")
        for key, v in sorted(((str(k), v) for k, v in value.items()),
                             key=lambda item: _segment_key(item[0])):
            _render(v, prefix + key + ".", out)
    elif isinstance(value, (list, tuple)):
        if all(_is_scalar(v) for v in value):
            out.append(prefix[:-1] + " = [" + ",".join(map(_scalar, value)) + "]\n")
        else:
            for i, v in enumerate(value, start=1):
                _render(v, f"{prefix}{i}.", out)
    else:
        out.append(prefix[:-1] + " = " + _scalar(value) + "\n")


def render_structured(data: dict) -> str:
    """Flat ``path = value`` lines in sorted path order, written in one walk."""
    out: list[str] = []
    _render(data, "", out)
    return "".join(out)
