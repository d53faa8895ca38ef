"""The shape rules for everything linefix reads from outside.

Records files, config files, mock scripts and server answers are checked by
these rules and no copies of them: a type, a mapping's keys, a number, a
list of one item type, and an item given twice. Each raises ValueError with a
message that names the setting or field; a caller that knows where the value
came from (a file and line) adds that itself. No type rule passes a bool.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Mapping


def check_type(name: str, value: object, types: tuple[type, ...], expected: str) -> None:
    """Raise ValueError unless ``value`` is an instance of ``types``; bools never pass."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


def check_mapping(name: str, value: object, known: tuple[str, ...]) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a mapping of ``known`` keys."""
    check_type(name, value, (Mapping,), "a mapping")
    for key in value:
        if key not in known:
            raise ValueError(f"{name}: unknown key {key!r}; expected one of {', '.join(known)}")


def integral(value: object) -> object:
    """An integral float as the int it holds; any other value unchanged."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def check_number(name: str, value: object, *, integer: bool = False,
                 low: float | None = None, above: bool = False, null: bool = False):
    """The one rule for every numeric setting; returns ``value`` as an int or a float.

    ``integer`` asks for an int, which may be given as an integral float;
    otherwise any real number a float can hold is returned as a float. ``low``
    is the least value allowed, or the bound to stay ``above``, and ``null``
    lets None through. Anything else raises ValueError; bools never pass.
    """
    if null and value is None:
        return None
    kind = "an integer" if integer else "a number"
    expected = f"{kind} or null" if null else kind
    if integer:
        value = number = integral(value)
        check_type(name, value, (int,), expected)
    else:
        check_type(name, value, (int, float), expected)
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name}: expected a finite number, got an int too large for a float")
        if not math.isfinite(number):
            raise ValueError(f"{name}: expected a finite number, got {number!r}")
    if low is not None and (number <= low if above else number < low):
        raise ValueError(f"{name}: expected {kind} {'>' if above else '>='} {low}, got {value!r}")
    return number


def check_list(name: str, value: object, item: type, expected: str) -> None:
    """Raise ValueError unless ``value`` is a list or tuple of ``item``s; bools never pass."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, item) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{name}: expected {expected}, got {value!r}")


def repeats(items: Iterable[Hashable]) -> list:
    """The items that equal an earlier item, in order; empty when every item is given once."""
    first: dict = {}  # item -> the index it is first given at
    return [x for i, x in enumerate(items) if first.setdefault(x, i) != i]
