"""The one type rule and the declared domains of config values.

Every value that sets a config field or a CLI option passes `check_value`:
first the one type rule (`_fits`; README's CLI section states it in JSON
terms), then the field's domain. A value that fails either is a
`ConfigError`. Each config dataclass calls `check_fields` from its
`__post_init__`, which stores what `check_value` returns (a float field a
float), so a config that exists is valid, also one made by
`dataclasses.replace`.

Fields are declared with `option`, so each default, help text and domain
(the values a field allows: `at_least(n)`, `POSITIVE`, `within(low, high)`
or a tuple of choices) lives in one place, and the CLI derives its flags
from `dataclasses.fields`. A domain holds for each item of a tuple or list.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import typing

from .errors import ConfigError


@dataclasses.dataclass(frozen=True)
class Bounds:
    """A numeric domain: `holds` tests a value, `text` describes the domain in an error."""

    text: str
    holds: typing.Callable[[float], bool]


def at_least(low) -> Bounds:
    return Bounds(f">= {low}", lambda value: value >= low)


POSITIVE = Bounds("> 0", lambda value: value > 0)


def within(low, high, low_open: bool = False, high_open: bool = False) -> Bounds:
    """[low, high]; `low_open` and `high_open` leave out that end."""
    return Bounds(f"within {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}",
                  lambda value: (low < value if low_open else low <= value)
                  and (value < high if high_open else value <= high))


def option(default, help_text: str | None = None, key: str | None = None, domain=None):
    """A dataclass field that is also a CLI option; `key` renames its flag and snapshot key."""
    metadata = {"help": help_text, "key": key, "domain": domain}
    return dataclasses.field(default=default, metadata=metadata)


def check_value(name: str, kind, value, domain=None, error=ConfigError):
    """Return `value` as a field of type `kind` stores it.

    ConfigError if it has another type; `error`, a ConfigError type, if it is
    a float field's NaN or infinity or lies outside `domain`.
    """
    if not _fits(kind, value):
        kind_name = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ConfigError(f"{name} must be of type {kind_name}, got {value!r}")
    stored = _as_float(value) if kind is float else value
    if kind is float and not math.isfinite(stored):
        raise error(f"{name} must be finite, got {value!r}")
    for item in stored if isinstance(stored, (tuple, list)) else (stored,):
        if isinstance(domain, Bounds) and not domain.holds(item):
            raise error(f"{name} must be {domain.text}")
        if isinstance(domain, tuple) and item not in domain:
            raise error(f"{name} {item!r} is not one of {' | '.join(domain)}")
    return stored


@functools.cache
def field_types(cls) -> dict:
    """Field name -> type of dataclass `cls`, with its string annotations evaluated."""
    return typing.get_type_hints(cls)


def check_fields(config, error=ConfigError) -> None:
    """`check_value` every field of the frozen dataclass `config` and store what it returns.

    `error` is its owner's error type. A field declared without `option` has no domain.
    """
    types = field_types(type(config))
    for f in dataclasses.fields(config):
        value = check_value(f.name, types[f.name], getattr(config, f.name),
                            f.metadata.get("domain"), error)
        object.__setattr__(config, f.name, value)


def _as_float(value) -> float:
    """A real number as a float; infinity for an int beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _fits(kind, value) -> bool:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        return isinstance(value, tuple) and len(value) == len(args) and all(map(_fits, args, value))
    if origin is list:
        return isinstance(value, list) and all(_fits(args[0], item) for item in value)
    if isinstance(value, bool):
        return kind is bool
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, kind)
