"""Multisets over a finite ground set and families of k-multisets.

A multiset F of the columns 1..n is stored as its multiplicity vector
(m(1,F), ..., m(n,F)); the cardinality |F| is the sum of multiplicities.
Columns are numbered from 1 in every public signature, matching the usual
mathematical convention for the ground set [n].

Equivalently, F is the staircase region {(i, j) : 1 <= j <= m(i,F)} inside
the rectangle with n columns and ell rows; :func:`rectangle` and
:func:`first_row` give the full rectangle and its bottom row as multisets.

All k-multisets of [n] come from one odometer in canonical order.
:func:`multiset_vectors` yields their multiplicity vectors as plain tuples;
it is the one to use where only the vectors are read, as in the searches,
the constructions and the corpus. :func:`enumerate_multisets` wraps each
vector as a validated :class:`Multiset`, for callers that want the members
themselves.

A :class:`Family` stores its members the same way, as a sorted tuple of
multiplicity vectors; :meth:`Family.mult_vectors` hands them to the checks
and operators, and iterating a family yields :class:`Multiset` views.
"""

from __future__ import annotations

import re
from operator import index
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import kernels
from .bounds import count_multisets, multiset_height  # noqa: F401 (count_multisets re-exported)
from .errors import DimensionError, FormatError, ParameterError


class Multiset:
    """An immutable multiset of the columns 1..n with total cardinality k.

    Instances hash and compare by their multiplicity vector; the ordering is
    lexicographic on that vector, which is the canonical order used for
    family members everywhere in this package.
    """

    __slots__ = ("mult", "k")

    mult: tuple[int, ...]
    k: int

    def __init__(self, mult: Iterable[int]):
        try:
            vec = tuple(map(index, mult))
        except TypeError as exc:
            raise ParameterError(f"multiplicities must be integers: {exc}") from None
        if not vec:
            raise ParameterError("a multiset needs at least one column")
        if min(vec) < 0:
            raise ParameterError(f"negative multiplicity in {vec!r}")
        object.__setattr__(self, "mult", vec)
        object.__setattr__(self, "k", sum(vec))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Multiset is immutable")

    @property
    def n(self) -> int:
        return len(self.mult)

    def __len__(self) -> int:
        return self.k

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self.mult == other.mult

    def __hash__(self) -> int:
        return hash(self.mult)

    def __lt__(self, other: "Multiset") -> bool:
        return self.mult < other.mult

    def __le__(self, other: "Multiset") -> bool:
        return self.mult <= other.mult

    def __repr__(self) -> str:
        return f"Multiset({self.mult!r})"

    def multiplicity(self, column: int) -> int:
        """Return m(column, F) for a 1-based column index."""
        if not 1 <= column <= self.n:
            raise ParameterError(f"column {column} outside 1..{self.n}")
        return self.mult[column - 1]

    def support(self) -> frozenset[int]:
        """Columns that appear at least once."""
        return frozenset(i + 1 for i, v in enumerate(self.mult) if v > 0)


def rectangle(n: int, height: int) -> Multiset:
    """The full rectangle with n columns and the given uniform height."""
    if n < 1 or height < 0:
        raise ParameterError("rectangle needs n >= 1 and height >= 0")
    return Multiset((height,) * n)


def first_row(n: int) -> Multiset:
    """The bottom row of the rectangle: every column with multiplicity 1."""
    return rectangle(n, 1)


def _check_same_n(a: Multiset, b: Multiset) -> None:
    if a.n != b.n:
        raise DimensionError(f"ground sets differ: n={a.n} vs n={b.n}")


def intersect(f: Multiset, g: Multiset) -> Multiset:
    """Coordinatewise minimum of the two multiplicity vectors."""
    _check_same_n(f, g)
    return Multiset(min(a, b) for a, b in zip(f.mult, g.mult))


def intersection_size(f: Multiset, g: Multiset) -> int:
    """|f intersect g|, the sum of coordinatewise minima."""
    _check_same_n(f, g)
    return sum(a if a < b else b for a, b in zip(f.mult, g.mult))


def l1_distance(f: Multiset, g: Multiset) -> int:
    """Sum of |m(i,F) - m(i,G)|.

    For two multisets of equal cardinality k this ties to the intersection
    by |F cap G| = k - d/2.
    """
    _check_same_n(f, g)
    return sum(abs(a - b) for a, b in zip(f.mult, g.mult))


def multiset_vectors(
    n: int, k: int, cap: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield every k-multiset of [n] as its multiplicity vector, in canonical
    order, each a fresh tuple.

    Canonical order is lexicographic on the vectors. With ``cap`` set, only
    vectors whose every entry is <= cap are produced; cap=1 reduces to plain
    k-subsets. The stream is empty when the constraints cannot be met, and
    bad arguments raise on the first ``next()``. Use this generator where
    only the vectors are read; :func:`enumerate_multisets` wraps each one as
    a validated :class:`Multiset` for callers that want the members.
    """
    top = multiset_height(n, k, cap)
    if k > top * n:
        return
    # the smallest vector packs the mass to the right, at most top per column
    vec = [0] * n
    last = -1  # last nonzero column
    if k:
        _pack_right(vec, k, top)
        last = n - 1
    while True:
        yield tuple(vec)
        # the successor raises the rightmost column below top that has mass
        # after it, then packs that mass less one to the right again
        if last <= 0:
            return
        moved = vec[last]
        i = last - 1
        while vec[i] == top:
            moved += top
            i -= 1
            if i < 0:
                return
        vec[i] += 1
        vec[i + 1 : last + 1] = [0] * (last - i)
        if moved > 1:
            _pack_right(vec, moved - 1, top)
            last = n - 1
        else:
            last = i


def enumerate_multisets(
    n: int, k: int, cap: Optional[int] = None
) -> Iterator[Multiset]:
    """Yield every k-multiset of [n] exactly once, in canonical order.

    This is :func:`multiset_vectors` with each vector wrapped as a
    :class:`Multiset`: the same order, the same ``cap`` rule, the same
    errors on the first ``next()``. Use it where the members are wanted as
    multisets; callers that only read the vectors take
    :func:`multiset_vectors` and build no ``Multiset`` per member.
    """
    # each vector is a fresh tuple of non-negative ints that sum to k, valid
    # by construction, so the members skip Multiset.__init__'s checks
    new, set_mult, set_k = object.__new__, Multiset.mult.__set__, Multiset.k.__set__
    for vec in multiset_vectors(n, k, cap):
        member = new(Multiset)
        set_mult(member, vec)
        set_k(member, k)
        yield member


def _pack_right(vec: list[int], mass: int, top: int) -> None:
    """Write ``mass`` into the zero tail of ``vec``: full columns of ``top``
    at the right end, the remainder in the column before them."""
    full, rest = divmod(mass, top)
    n = len(vec)
    vec[n - full :] = [top] * full
    if rest:
        vec[n - full - 1] = rest


class Family:
    """A duplicate-free, canonically ordered collection of k-multisets.

    All members share the same (n, k). Each member is validated as a
    :class:`Multiset` and stored as its multiplicity vector, in canonical
    (lexicographic) order; iteration yields :class:`Multiset` views of the
    vectors. Equal families have identical vector sequences, so they also
    serialize identically.
    """

    __slots__ = ("n", "k", "_vectors", "_member_set")

    n: int
    k: int

    def __init__(
        self,
        members: Iterable[Union[Multiset, Sequence[int]]],
        n: Optional[int] = None,
        k: Optional[int] = None,
    ):
        normalized = tuple(
            m if isinstance(m, Multiset) else Multiset(m) for m in members
        )
        if normalized:
            got_n, got_k = normalized[0].n, normalized[0].k
            if n is not None and n != got_n:
                raise DimensionError(f"declared n={n} but members have n={got_n}")
            if k is not None and k != got_k:
                raise ParameterError(f"declared k={k} but members have k={got_k}")
            n, k = got_n, got_k
        if n is None or k is None:
            raise ParameterError("an empty family needs explicit n and k")
        if n < 1 or k < 0:
            raise ParameterError("need n >= 1 and k >= 0")
        for m in normalized:
            if m.n != n:
                raise DimensionError("members mix different ground sets")
            if m.k != k:
                raise ParameterError("members mix different cardinalities")
        member_set = frozenset(m.mult for m in normalized)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_vectors", tuple(sorted(member_set)))
        object.__setattr__(self, "_member_set", member_set)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Family is immutable")

    @classmethod
    def empty(cls, n: int, k: int) -> "Family":
        return cls((), n=n, k=k)

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[Multiset]:
        return map(Multiset, self._vectors)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Multiset):
            return item.mult in self._member_set
        if isinstance(item, tuple):
            return item in self._member_set
        return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Family)
            and self.n == other.n
            and self.k == other.k
            and self._vectors == other._vectors
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._vectors))

    def __repr__(self) -> str:
        return f"Family(n={self.n}, k={self.k}, size={len(self._vectors)})"

    def mult_vectors(self) -> list[tuple[int, ...]]:
        """Raw multiplicity vectors, in canonical order."""
        return list(self._vectors)

    def max_height(self) -> int:
        """Largest multiplicity over all members and columns; 0 if empty."""
        return max(map(max, self._vectors), default=0)

    # --- interchange format ------------------------------------------------
    # header line "n=<n> k=<k>", then one member per line as comma-separated
    # multiplicities, in canonical order; a repeated member line is an error.

    def to_text(self) -> str:
        lines = [f"n={self.n} k={self.k}"]
        lines.extend(",".join(map(str, vec)) for vec in self._vectors)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Family":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty family file")
        header = re.fullmatch(r"n=(\d+)\s+k=(\d+)", lines[0])
        if header is None:
            raise FormatError(f"bad header line: {lines[0]!r}")
        n, k = int(header.group(1)), int(header.group(2))
        members = set()
        for ln in lines[1:]:
            try:
                vec = tuple(int(part) for part in ln.split(","))
            except ValueError as exc:
                raise FormatError(f"bad member line: {ln!r}") from exc
            if vec in members:
                raise FormatError(f"repeated member line: {ln!r}")
            members.add(vec)
        return cls(members, n=n, k=k)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "Family":
        with open(path, "r", encoding="ascii") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path} is not ASCII text: {exc}") from None
        return cls.from_text(text)


def is_t_intersecting(family: Family, t: int) -> bool:
    """True when |F1 cap F2| >= t for every ordered pair, F1 = F2 included.

    The diagonal pairs fail when t > k; the empty family is vacuously
    t-intersecting and every family is 0-intersecting.
    """
    if t < 0:
        raise ParameterError("need t >= 0")
    if t == 0 or len(family) == 0:
        return True
    return kernels.all_pairs_at_least(family.mult_vectors(), family.k, t)


def is_t_kernel(family: Family, region: Multiset, t: int) -> bool:
    """True when |F1 cap F2 cap region| >= t for every pair, diagonal included.

    The region's own cardinality is unconstrained; it only has to live on
    the same ground set.
    """
    if t < 0:
        raise ParameterError("need t >= 0")
    if region.n != family.n:
        raise DimensionError(
            f"region has n={region.n}, family has n={family.n}"
        )
    if t == 0 or len(family) == 0:
        return True
    return kernels.all_pairs_at_least_in_region(
        family.mult_vectors(), family.k, region.mult, t
    )
