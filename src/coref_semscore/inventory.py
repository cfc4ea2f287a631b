"""Category inventory: the bundled 29-way tagset and alias resolution.

The default inventory covers named entities and nominal concepts alike.
Long-form names (PERSON, LOCATION, ...) are resolved to the short
canonical labels through an explicit alias table; alternate inventories
can be supplied as a JSON file via the COREF_SEMSCORE_INVENTORY
environment variable.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Union

from .model import _Value, normalize_label

ENV_INVENTORY_VAR = "COREF_SEMSCORE_INVENTORY"


class UnknownLabelError(ValueError):
    """A category label that the active inventory cannot resolve."""


class RepeatedKeyError(ValueError):
    """A JSON object that names one key twice."""


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A json object_pairs_hook that refuses a repeated key, which json
    would otherwise resolve silently to its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise RepeatedKeyError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


@contextmanager
def opened(source: Union[str, Path, IO[str]], mode: str = "r") -> Iterator[IO[str]]:
    """`source` itself when it is an open text handle for `mode`, else the
    file at that path opened in `mode` as UTF-8 and closed on exit."""
    if hasattr(source, "read" if mode == "r" else "write"):
        yield source
    else:
        with open(source, mode, encoding="utf-8") as handle:
            yield handle


class Category(NamedTuple):
    label: str
    description: str = ""
    aliases: tuple[str, ...] = ()


class CategoryInventory(_Value):
    """Categories plus the lookup tables derived from them; equal, and
    rebuilt by pickle, copy and _replace, by the categories alone."""

    __slots__ = ("categories", "_canonical", "_alias_map")
    _fields = ("categories",)

    def __init__(self, categories: Iterable[Category]) -> None:
        categories = tuple(categories)
        canonical = frozenset(c.label for c in categories)
        if len(canonical) != len(categories):
            raise ValueError("duplicate labels in category inventory")
        alias_map: dict[str, str] = {}
        for cat in categories:
            for alias in cat.aliases:
                target = alias_map.setdefault(alias, cat.label)
                if target != cat.label:
                    raise ValueError(f"alias {alias!r} maps to both {target} and {cat.label}")
                if alias in canonical and alias != cat.label:
                    raise ValueError(f"alias {alias!r} of {cat.label} is the label of "
                                     f"category {alias}, so it would never apply")
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "_canonical", canonical)
        object.__setattr__(self, "_alias_map", alias_map)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.categories)

    def resolve(self, raw: str) -> str:
        """Normalize a raw label string and map aliases to canonical labels."""
        label = normalize_label(raw)
        if label in self._canonical:
            return label
        if label in self._alias_map:
            return self._alias_map[label]
        raise UnknownLabelError(f"unknown category label {raw!r}")

    @classmethod
    def default(cls) -> "CategoryInventory":
        return _DEFAULT

    @classmethod
    def from_json(cls, source: Union[str, Path, IO[str]]) -> "CategoryInventory":
        """Load an inventory from a JSON list of {label, description, aliases}."""
        with opened(source) as handle:
            entries = json.load(handle, object_pairs_hook=unique_keys)
        if not isinstance(entries, list):
            raise ValueError("inventory file must contain a JSON list")
        categories = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
                raise ValueError(f"inventory entry {index}: expected an object with a string label")
            aliases = entry.get("aliases", [])
            if not isinstance(aliases, list) or not all(isinstance(a, str) for a in aliases):
                raise ValueError(f"inventory entry {index}: aliases must be a list of strings")
            categories.append(
                Category(
                    label=normalize_label(entry["label"]),
                    description=entry.get("description", ""),
                    aliases=tuple(normalize_label(a) for a in aliases),
                )
            )
        return cls(tuple(categories))

    @classmethod
    def from_env(cls) -> "CategoryInventory":
        """The default inventory, or the file named by COREF_SEMSCORE_INVENTORY."""
        path = os.environ.get(ENV_INVENTORY_VAR)
        if path:
            return cls.from_json(path)
        return cls.default()


def _cat(label: str, description: str, *aliases: str) -> Category:
    return Category(label, description, aliases)


DEFAULT_CATEGORIES: tuple[Category, ...] = (
    _cat("ANIMAL", "non-human living creatures"),
    _cat("ARTIFACT", "human-made objects, tools, and products"),
    _cat("ASSET", "owned resources and holdings of economic value"),
    _cat("BIOLOGY", "organisms, cells, and other biological entities"),
    _cat("CELESTIAL", "astronomical bodies and objects"),
    _cat("CULTURE", "belief systems, traditions, and social practices"),
    _cat("DATETIME", "points and stretches of time"),
    _cat("DISCIPLINE", "fields of study, sports, and professional domains"),
    _cat("DISEASE", "illnesses and medical conditions"),
    _cat("EVENT", "happenings and activities tied to a time or place"),
    _cat("FEELING", "emotions and subjective sensations"),
    _cat("FOOD", "edible and drinkable items"),
    _cat("GROUP", "collections of people or animals"),
    _cat("LANGUAGE", "words, phrases, and other linguistic items"),
    _cat("LAW", "legal rules, rights, and principles"),
    _cat("LOC", "geographic places and natural features", "LOCATION"),
    _cat("MEASURE", "quantities, units, and numeric values"),
    _cat("MEDIA", "communication and entertainment content"),
    _cat("MONEY", "currencies and monetary amounts"),
    _cat("ORG", "organizations, institutions, and companies", "ORGANIZATION"),
    _cat("PART", "components of larger wholes"),
    _cat("PER", "individual people", "PERSON"),
    _cat("PLANT", "plants and plant species"),
    _cat("PROPERTY", "attributes of things, such as size, shape, or age"),
    _cat("PSYCH", "mental states and cognitive phenomena"),
    _cat("RELATION", "connections and associations between entities"),
    _cat("STRUCT", "buildings and other constructed works"),
    _cat("SUBSTANCE", "chemical and material substances"),
    _cat("SUPER", "mythological and religious figures", "SUPERNATURAL"),
)

_DEFAULT = CategoryInventory(DEFAULT_CATEGORIES)

