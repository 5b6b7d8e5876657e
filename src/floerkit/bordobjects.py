"""Objects of the connected 2+1 bordism category: the empty set and
closed oriented surfaces classified by genus."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidObject


@dataclass(frozen=True)
class BordObject:
    kind: str  # "empty" or "surface"
    genus: int = 0

    def __post_init__(self):
        if self.kind not in ("empty", "surface"):
            raise InvalidObject(f"unknown object kind {self.kind!r}", witness=self.kind)
        if self.genus < 0:
            raise InvalidObject("genus must be non-negative", witness=self.genus)

    @property
    def is_surface(self):
        return self.kind == "surface"

    def __repr__(self):
        return "Empty" if self.kind == "empty" else f"Sigma_{self.genus}"

    def to_json(self):
        if self.kind == "empty":
            return {"kind": "empty"}
        return {"kind": "surface", "genus": self.genus}


def surface(genus):
    return BordObject("surface", genus)


EMPTY = BordObject("empty")


def bordobject_from_json(data):
    if data["kind"] == "empty":
        return EMPTY
    return surface(data["genus"])
