"""Symbolic feature values.

A feature value is one of:

* an atom -- a plain ``str`` token,
* a value set -- a ``frozenset`` of tokens (multi-entity features),
* missing -- ``None``.

An empty set is never a legal value; it normalizes to missing.
"""

from __future__ import annotations

from typing import Iterable, Union

FeatureValue = Union[str, frozenset, None]


def normalize_value(raw: Union[str, Iterable[str], None]) -> FeatureValue:
    """Coerce a raw value (atom, iterable of atoms, or None) to a FeatureValue."""
    if raw is None:
        return None
    if isinstance(raw, str):
        if not raw:
            raise ValueError("empty token is not a valid value")
        return raw
    toks = list(raw)
    for tok in toks:  # checked before hashing: a list member cannot be hashed
        if not isinstance(tok, str) or not tok:
            raise ValueError(f"value set member {tok!r} is not a non-empty token")
    # a singleton stays a set: set-ness is part of the value's identity
    return frozenset(toks) or None


def value_sort_key(v: FeatureValue) -> tuple:
    """Total order over feature values: missing < atoms < sets, each lexicographic."""
    if v is None:
        return (0, "")
    if isinstance(v, str):
        return (1, v)
    return (2, "\x1f".join(sorted(v)))


def value_to_json(v: FeatureValue):
    """JSON form: null for missing, string for atoms, sorted list for sets."""
    if v is None:
        return None
    if isinstance(v, str):
        return v
    return sorted(v)


def value_from_json(obj) -> FeatureValue:
    if obj is None:
        return None
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list):
        return normalize_value(obj)
    raise ValueError(f"cannot decode feature value from {obj!r}")


def iter_atoms(v: FeatureValue) -> Iterable[str]:
    """The individual tokens inside a value; empty for missing."""
    if v is None:
        return ()
    if isinstance(v, str):
        return (v,)
    return sorted(v)


def atom_or_set(objects: Iterable[str]) -> FeatureValue:
    """Pack looked-up objects into a value: one -> atom, several -> set, none -> missing."""
    objs = sorted(set(objects))
    if not objs:
        return None
    if len(objs) == 1:
        return objs[0]
    return frozenset(objs)
