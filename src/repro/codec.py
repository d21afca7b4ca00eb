"""One JSON form for every archived record.

Scenario specs, their fault events and load/SLO specs, scenario results,
failure signatures, minimization results and corpus entries are all frozen
(or plain) dataclasses that the dispatch cache, the fuzz archives and the
regression corpus store as JSON.  :class:`JsonRecord` derives both
directions of that form from the dataclass fields, so a new field is
written, read and defaulted by declaring it once:

* **encode** — every field in declaration order; tuples become lists and a
  nested record becomes its own JSON object.  A class whose ``JSON_FORMAT``
  is set also writes it as ``"format"``;
* **decode** — always through the constructor, so ``__post_init__``
  validation still runs on hand-edited or corrupted archives.  The field's
  type hint rebuilds ``Optional[X]``, ``Tuple[X, ...]``, ``Dict[str, X]``
  and nested records; ``Any`` and scalars pass through.  A missing field
  with a default takes it (archives written before the field existed stay
  readable); a missing field without one raises ``KeyError``; an unknown
  key or another ``"format"`` raises ``ValueError``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, ClassVar, Dict, Optional, Tuple


class JsonRecord:
    """Dataclass mixin: ``to_json_dict`` / ``from_json_dict`` from the fields."""

    #: Schema version written as ``"format"``; ``None`` writes no version.
    JSON_FORMAT: ClassVar[Optional[int]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable form: the fields in declaration order."""
        data: Dict[str, Any] = {} if self.JSON_FORMAT is None else {"format": self.JSON_FORMAT}
        for name, _, _ in _schema(type(self)):
            data[name] = _encode(getattr(self, name))
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> Any:
        """Rebuild a record from :meth:`to_json_dict` output (validates)."""
        schema = _schema(cls)
        names = {name for name, _, _ in schema}
        if cls.JSON_FORMAT is not None:
            version = data.get("format", cls.JSON_FORMAT)
            if version != cls.JSON_FORMAT:
                raise ValueError(
                    f"unsupported {cls.__name__} format {version!r} (expected {cls.JSON_FORMAT})"
                )
            names.add("format")
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        return cls(
            **{
                name: _decode(hint, data[name])
                for name, hint, required in schema
                if required or name in data
            }
        )


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, Any, bool], ...]:
    """``(name, resolved type hint, required)`` per field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            field.name,
            hints[field.name],
            field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    )


def _encode(value: Any) -> Any:
    if isinstance(value, JsonRecord):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _decode(hint: Any, value: Any) -> Any:
    if value is None:
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        # Optional[X]: None was handled above, so decode as the X.
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value)
    if origin is tuple:
        return tuple(_decode(args[0], item) for item in value)
    if origin is dict:
        return {key: _decode(args[1], item) for key, item in value.items()}
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        return hint.from_json_dict(value)
    return value


__all__ = ["JsonRecord"]
