"""Canonical modality names and presence masks shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

MODALITIES = (
    "title",
    "thumbnail",
    "comments",
    "audio_transcript",
    "tags",
    "statistics",
)

TEXT_MODALITIES = ("title", "comments", "audio_transcript", "tags")


@dataclass(frozen=True)
class ModalityMask:
    """Presence flags for the six modalities.

    The popcount of the mask is the divisor used by the fusion average,
    so an all-false mask is rejected wherever a fused vector is required.
    """

    title: bool = False
    thumbnail: bool = False
    comments: bool = False
    audio_transcript: bool = False
    tags: bool = False
    statistics: bool = False

    @classmethod
    def all(cls) -> "ModalityMask":
        return cls(**{m: True for m in MODALITIES})

    @classmethod
    def from_names(cls, names) -> "ModalityMask":
        names = list(names)
        for n in names:
            if n not in MODALITIES:
                raise ValueError(f"unknown modality {n!r}; expected one of {MODALITIES}")
        return cls(**{m: (m in names) for m in MODALITIES})

    def names(self) -> tuple[str, ...]:
        return tuple(m for m in MODALITIES if getattr(self, m))

    def count(self) -> int:
        return sum(1 for m in MODALITIES if getattr(self, m))

    def intersect(self, other: "ModalityMask") -> "ModalityMask":
        return ModalityMask(**{m: getattr(self, m) and getattr(other, m) for m in MODALITIES})

    def drop(self, name: str) -> "ModalityMask":
        if name not in MODALITIES:
            raise ValueError(f"unknown modality {name!r}")
        return ModalityMask(**{m: getattr(self, m) and m != name for m in MODALITIES})


def parse_modalities(text: str) -> tuple[str, ...]:
    """Parse a nonempty comma- or plus-separated list of modality names."""
    parts = [p.strip() for p in text.replace("+", ",").split(",") if p.strip()]
    if not parts:
        raise ValueError(f"no modality named in {text!r}; expected some of {MODALITIES}")
    return ModalityMask.from_names(parts).names()
