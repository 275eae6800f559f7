"""Atom index transformations and candidate transformation vectors.

Supports across views are related by per-view transformations that act on
atom indices: view j's support is the image of the reference (view 1)
support under transform j.  A transform is a partial injective map on the
dictionary's atom indices, stored as an integer array with -1 marking
atoms outside the domain (for example, translations that would move an
atom's center off the grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .dictionary import _CENTER_FIELDS, Dictionary


class AtomTransform:
    """Partial injective map on atom indices.

    ``mapping[i]`` is the index of the image of atom i, or -1 when atom i
    lies outside the transform's domain.  Equality compares mappings, not
    labels, so a zero translation equals the identity.
    """

    __slots__ = ("label", "mapping", "_spec")

    def __init__(self, label: str, mapping, spec=None):
        mapping = np.asarray(mapping, dtype=np.int64)
        if mapping.ndim != 1 or mapping.size == 0:
            raise ValueError("mapping must be a nonempty 1D index array")
        if mapping.max() >= mapping.size or mapping.min() < -1:
            raise ValueError("mapping targets must lie in -1..K-1")
        if np.bincount(mapping[mapping >= 0], minlength=1).max() > 1:
            raise ValueError("mapping must be injective on its domain")
        mapping = mapping.copy()
        mapping.setflags(write=False)
        self.label = label
        self.mapping = mapping
        self._spec = spec

    @property
    def n_atoms(self) -> int:
        return self.mapping.size

    @property
    def domain_mask(self) -> np.ndarray:
        return self.mapping >= 0

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mapping, np.arange(self.n_atoms)))

    def spec(self):
        """JSON-serializable description, or None for ad-hoc mappings."""
        return self._spec

    def __eq__(self, other):
        if not isinstance(other, AtomTransform):
            return NotImplemented
        return np.array_equal(self.mapping, other.mapping)

    def __hash__(self):
        return hash(self.mapping.tobytes())

    def __repr__(self):
        return f"AtomTransform({self.label!r})"


def identity_transform(dictionary: Dictionary) -> AtomTransform:
    """The identity map on the dictionary's atom indices (full domain)."""
    return AtomTransform("identity", np.arange(dictionary.n_atoms),
                         spec={"kind": "identity"})


def translation_shift(variant: str, offset) -> tuple[int, ...]:
    """The center shift that ``offset`` names: one integer per center
    field, [dx, dy] for images and an integer (or [dt]) for 1D.  Python
    and numpy integers count; anything else, bools too, raises ValueError."""
    if variant not in _CENTER_FIELDS:
        raise ValueError(
            f"translations are not defined for variant {variant!r}")
    n = len(_CENTER_FIELDS[variant])
    shift = offset.tolist() if isinstance(offset, np.ndarray) else offset
    shift = shift if isinstance(shift, (list, tuple)) or n > 1 else [shift]
    if not (isinstance(shift, (list, tuple)) and len(shift) == n
            and all(isinstance(v, (int, np.integer))
                    and not isinstance(v, bool) for v in shift)):
        what = "an integer" if n == 1 else f"a list of {n} integers"
        raise ValueError(f"translation offset {offset!r} must be {what} "
                         f"on a {variant} dictionary")
    return tuple(int(v) for v in shift)


def translation_transform(dictionary: Dictionary, offset) -> AtomTransform:
    """Translation of atom centers by ``offset``, realized as an index map:
    an atom maps to the atom with its shape (every other parameter) at the
    shifted center, or to -1 when no atom sits there."""
    (transform,) = _translations(dictionary, [offset]).values()
    return transform


def _translations(dictionary: Dictionary, offsets) -> dict:
    """Parsed shift -> translation transform for each offset, read from the
    dictionary's one (shape, center) grid of atom indices."""
    if dictionary.params is None:
        raise ValueError("translations need a dictionary with parameter records")
    shifts = {translation_shift(dictionary.variant, offset)
              for offset in offsets}
    if not shifts:
        return {}
    shape, cells, grid = dictionary._centers
    realized = {}
    for shift in shifts:
        # clamped into int64: a shift by the grid's extent already leaves it
        target = cells + [max(-n, min(s, n))
                          for s, n in zip(shift, grid.shape[1:])]
        inside = np.all((target >= 0) & (target < grid.shape[1:]), axis=1)
        mapping = np.full(dictionary.n_atoms, -1)
        mapping[inside] = grid[(shape[inside], *target[inside].T)]
        realized[shift] = AtomTransform(
            f"shift({','.join(f'{s:+d}' for s in shift)})", mapping,
            spec={"kind": "translation",
                  "offset": list(shift) if len(shift) > 1 else shift[0]})
    return realized


def apply_to_support(transform: AtomTransform, support) -> np.ndarray:
    """Map a support index array through the transform, preserving order.

    Raises ValueError when any support atom lies outside the transform's
    domain; decoders treat such candidates as invalid rather than erroring.
    """
    support = np.asarray(support, dtype=np.int64)
    if support.ndim != 1:
        raise ValueError("support must be a 1D index array")
    if support.size and (support.min() < 0 or support.max() >= transform.n_atoms):
        raise ValueError("support index out of range")
    image = transform.mapping[support]
    if np.any(image < 0):
        bad = support[image < 0]
        raise ValueError(
            f"support atoms {bad.tolist()} outside domain of {transform.label}")
    return image


@dataclass(frozen=True)
class TransformVector:
    """Per-view transforms (T_1, ..., T_J) with T_1 the identity."""

    transforms: tuple[AtomTransform, ...]

    def __post_init__(self):
        if len(self.transforms) < 1:
            raise ValueError("a transform vector needs at least one view")
        if not self.transforms[0].is_identity:
            raise ValueError("the first (reference view) transform must be identity")
        sizes = {t.n_atoms for t in self.transforms}
        if len(sizes) != 1:
            raise ValueError("all transforms must act on the same dictionary")

    @property
    def n_views(self) -> int:
        return len(self.transforms)

    def __len__(self):
        return len(self.transforms)

    def __iter__(self):
        return iter(self.transforms)

    def __getitem__(self, index):
        return self.transforms[index]


@dataclass(frozen=True)
class CandidateSet:
    """Candidate transforms per view: view 1 is pinned to the identity,
    views 2..J each carry a finite nonempty candidate list."""

    identity: AtomTransform
    per_view: tuple[tuple[AtomTransform, ...], ...]

    def __post_init__(self):
        if not self.identity.is_identity:
            raise ValueError("reference transform must be the identity")
        for cands in self.per_view:
            if len(cands) == 0:
                raise ValueError("each view needs at least one candidate")
            for t in cands:
                if t.n_atoms != self.identity.n_atoms:
                    raise ValueError("candidate acts on a different dictionary")

    @property
    def n_views(self) -> int:
        return len(self.per_view) + 1

    @property
    def size(self) -> int:
        """Number of candidate transformation vectors."""
        return prod(len(c) for c in self.per_view)

    @classmethod
    def from_uniform_offsets(cls, dictionary: Dictionary, offsets, n_views: int):
        """Same translation candidate list for every view 2..n_views.

        Offsets are parsed even when ``n_views`` is 1, and equal offsets
        are realized once and share one transform object.
        """
        if n_views < 1:
            raise ValueError("need at least one view")
        shifts = [translation_shift(dictionary.variant, offset)
                  for offset in offsets]
        realized = _translations(dictionary, shifts)
        row = tuple(map(realized.get, shifts))
        if not row:
            raise ValueError("each view needs at least one candidate")
        return cls(identity_transform(dictionary), (row,) * (n_views - 1))
