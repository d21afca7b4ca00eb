"""Frozen records whose constructor stores each field directly.

The objects a run builds most often are the ones built per message, block or
transaction: every protocol's messages, the records they carry, blocks and
their proofs, transactions and their operations, signatures and
certificates, SpotLess's commit records.  ``@dataclass(frozen=True)`` gives
them an ``__init__`` that writes each field through ``object.__setattr__``
(the class's own ``__setattr__`` raises), one call per field.  :func:`record`
is that decorator with another ``__init__``: it stores each field straight
into the instance ``__dict__``, or through the field's slot descriptor on a
slotted class, which halves what a construction costs.  The class is made by
``dataclass(..., init=False)``, so nothing is generated twice, and all else is
the dataclass's own: equality, hashing, ``repr``, ``fields()``,
``dataclasses.replace`` and ``FrozenInstanceError`` on assignment.
Configurations and results, built a few times per run, stay plain
dataclasses.

The generated ``__init__`` of class ``C`` in module ``m`` reports its source
file as ``<record m.C>``, so a profile shows one row per class where it would
show one ``<string>`` row for every dataclass.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, Dict, List, Optional, TypeVar

T = TypeVar("T", bound=type)

#: Prefix of the source file name every generated ``__init__`` reports.
RECORD_FILE_PREFIX = "<record "


def record(cls: Optional[T] = None, /, *, slots: bool = False) -> Any:
    """``@dataclass(frozen=True[, slots=True])`` with a direct-store ``__init__``.

    Use as ``@record`` or ``@record(slots=True)``.  Fields with a
    ``default_factory``, keyword-only fields and ``__post_init__`` are not
    supported (no record needs them).
    """

    def wrap(cls: T) -> T:
        if "__post_init__" in cls.__dict__:
            raise TypeError(f"{cls.__name__}: record does not run __post_init__")
        cls = dataclass(cls, frozen=True, slots=slots, init=False)
        cls.__init__ = _direct_init(cls, slots)
        return cls

    return wrap if cls is None else wrap(cls)


def _slot_setter(cls: type, name: str) -> Callable[[object, object], None]:
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass.__dict__[name].__set__
    raise TypeError(f"{cls.__name__}.{name} has no slot")


def _direct_init(cls: type, slots: bool) -> Callable[..., None]:
    """The ``__init__`` a frozen dataclass would get, storing directly.

    It takes the same parameters with the same defaults.  A field left out
    of ``__init__`` is stored with its default on a slotted class (a slot has
    no class-level default) and left to the class attribute otherwise,
    exactly as the dataclass does.
    """
    namespace: Dict[str, Any] = {"__name__": cls.__module__}
    params: List[str] = ["self"]
    stores: List[str] = []
    for f in fields(cls):
        if f.default_factory is not MISSING or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: record supports plain defaults only")
        default = f"_default_{f.name}"
        if f.init:
            if f.default is MISSING:
                params.append(f.name)
            else:
                namespace[default] = f.default
                params.append(f"{f.name}={default}")
            value = f.name
        elif slots and f.default is not MISSING:
            namespace[default] = f.default
            value = default
        else:
            continue
        if slots:
            namespace[f"_set_{f.name}"] = _slot_setter(cls, f.name)
            stores.append(f"    _set_{f.name}(self, {value})")
        else:
            stores.append(f"    _fields[{f.name!r}] = {value}")
    if stores and not slots:
        stores.insert(0, "    _fields = self.__dict__")
    source = f"def __init__({', '.join(params)}):\n" + ("\n".join(stores) or "    pass") + "\n"
    exec(compile(source, f"{RECORD_FILE_PREFIX}{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls) if f.init}
    init.__annotations__["return"] = None
    return init


__all__ = ["RECORD_FILE_PREFIX", "record"]
