"""Undirected simple graphs: representation, parsing and generation.

Vertices are contiguous 0-based internal ids; the original input labels are
kept on the graph so every user-facing output can report them. Adjacency is
stored CSR-style: ``indptr`` is a plain list, which the DFS-heavy code in the
rest of the package indexes most, while the neighbour slots and the edge
table are flat ``array("i")`` buffers of 4 bytes per entry instead of one
pointer plus one boxed int each, so a graph has at most
:data:`MAX_VERTICES` vertices. Labels are never a list of strings: graphs
whose labels are consecutive integers (DIMACS ids, ``Graph.from_edges`` given
a count, and :func:`generate`) hold a :class:`DecimalLabels`, which makes
each label when it is read, and graphs with string labels (edge lists, and
``Graph.from_edges`` given labels) a :class:`PackedLabels`, all labels in
one string. Every builder of given edges ends in one repeat check: a
repeated edge shows up in the built CSR as a vertex listing a neighbour
twice, and only then is the CSR built again; :func:`generate`, whose edges
cannot repeat, skips it. This module imports nothing else from the package.
"""

from __future__ import annotations

import io
import math
import os
import random
from array import array
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice, repeat, zip_longest
from operator import eq, sub
from typing import Iterable, Iterator, NamedTuple

GENERATOR_FAMILIES = ("gnm", "path", "star", "balanced-tree", "clique-chain")


class ParseError(ValueError):
    """Malformed graph input. ``line`` is the 1-based offending line, if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class _Labels(Sequence[str]):
    """An immutable sequence of labels that compares equal to any sequence of
    the same strings, in either direction, and is unhashable like a list."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == len(self) and all(map(eq, self, other))


class DecimalLabels(_Labels):
    """The labels ``str(first)``, ..., ``str(first + n - 1)``, each made when
    it is read: an immutable sequence that stores two ints, not n strings.
    It holds the one check of every integer vertex count: an ``n`` below 0
    or above :data:`MAX_VERTICES` raises ValueError.

    Iteration runs at C speed (``map(str, range(...))``), so code that reads
    every label should iterate, or take ``list(labels)`` once, rather than
    index per vertex. It pickles as ``(first, n)``.
    """

    __slots__ = ("_ids",)

    def __init__(self, first: int, n: int):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        self._ids = range(first, first + n)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(str, self._ids[i]))
        return str(self._ids[i])

    def __iter__(self) -> Iterator[str]:
        return map(str, self._ids)

    def __reduce__(self):
        return DecimalLabels, (self._ids.start, len(self._ids))

    def __repr__(self) -> str:
        return f"DecimalLabels({self._ids.start}, {len(self._ids)})"


class PackedLabels(_Labels):
    """Any strings, stored as one string of them all joined by newlines plus
    an ``array("q")`` of the n + 1 running totals of their lengths, ``ends``:
    label ``i`` is ``text[ends[i] + i:ends[i + 1] + i]``. An immutable
    sequence with no ``str`` object per label, so any string is a label,
    empty or holding whitespace. The joined string takes the widest character
    of any label, so one non-Latin-1 label widens them all.

    Iteration splits the text at its newlines about sqrt(n) labels at a time,
    at C speed and with only that many labels alive at once; a stretch with a
    label that holds a newline of its own is sliced label by label instead.
    So code that reads every label should iterate, or take ``list(labels)``
    once, rather than index per vertex. It pickles as the text and the label
    lengths, one byte each if every label is shorter than 256 characters.
    """

    __slots__ = ("_text", "_ends")

    def __init__(self, labels: Collection[str]):
        self._text = "\n".join(labels)
        self._ends = array("q", accumulate(map(len, labels), initial=0))

    def __len__(self) -> int:
        return len(self._ends) - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        i = range(len(self))[i]  # IndexError as a sequence raises it
        return self._text[self._ends[i] + i:self._ends[i + 1] + i]

    def __iter__(self) -> Iterator[str]:
        n = len(self)
        step = math.isqrt(n) or 1
        return chain.from_iterable(map(self._stretch, range(0, n, step), repeat(step)))

    def _stretch(self, lo: int, step: int) -> list[str]:
        hi = min(lo + step, len(self))
        part = self._text[self._ends[lo] + lo:self._ends[hi] + hi - 1].split("\n")
        return part if len(part) == hi - lo else self[lo:hi]

    def __reduce__(self):
        ends = self._ends
        lengths = list(map(sub, islice(ends, 1, None), ends))
        typecode = "B" if max(lengths, default=0) < 256 else "q"
        return PackedLabels, ((),), (self._text, array(typecode, lengths))

    def __setstate__(self, state: tuple[str, array]) -> None:
        self._text, lengths = state
        self._ends = array("q", accumulate(lengths, initial=0))

    def __repr__(self) -> str:
        return f"PackedLabels({list(self)!r})"


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected simple graph: CSR adjacency plus the edge table.

    The neighbors of vertex ``v`` are ``nbr[indptr[v]:indptr[v+1]]``; each
    edge appears there exactly twice, once per endpoint. Edge ``e`` is
    ``(ends[2*e], ends[2*e+1])`` as first recorded, and edge ids index
    ``ends`` alone: the adjacency does not carry them. ``nbr`` and ``ends``
    are ``array("i")``; ``indptr`` is a list, and ``labels`` a
    :class:`DecimalLabels` or a :class:`PackedLabels`, never a list. There
    are no self-loops and no parallel edges.
    """

    n: int
    m: int
    indptr: list[int]
    nbr: array  # typecode "i": neighbour slots, CSR order
    ends: array  # typecode "i": u0, w0, u1, w1, ... in recorded edge order
    labels: Sequence[str]  # internal id -> original label

    @classmethod
    def from_edges(
        cls, vertices: int | Sequence[str], edges: Iterable[tuple[int, int]]
    ) -> "Graph":
        """Build a graph from an edge list over 0-based vertex ids.

        ``vertices`` is either a vertex count (labels are the decimal ids,
        as a :class:`DecimalLabels`, which checks the count) or the full
        sequence of labels, kept as a :class:`PackedLabels`. Raises
        ValueError on a negative count or one above :data:`MAX_VERTICES`,
        repeated labels, out-of-range ids or self-loops (found before any
        repeat, wherever they sit), and on a repeated edge, named by its
        first repeating pair as given.
        """
        if isinstance(vertices, int):
            labels: Sequence[str] = DecimalLabels(0, vertices)
        else:
            labels = PackedLabels(vertices)
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate vertex labels")
        n = len(labels)

        ends = array("i")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            ends.append(u)
            ends.append(v)
        g, repeats = _without_repeats(labels, ends, 0)
        if repeats:
            # g.edges is the given pairs less the repeats: the first pair it lacks repeats.
            u, v = next(p for p, q in zip_longest(zip(ends[::2], ends[1::2]), g.edges) if p != q)
            raise ValueError(f"duplicate edge ({u}, {v})")
        return g

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edge id -> ``(u, v)`` as first recorded: a new list of pairs
        built from ``ends`` on every call, for callers that want tuples."""
        ends = self.ends
        return list(zip(ends[0::2], ends[1::2]))


class ParseResult(NamedTuple):
    graph: Graph
    dropped: int  # self-loop and duplicate-edge lines discarded


# Largest vertex count of any graph, which DecimalLabels checks every integer
# count against before any allocation: ids fit in 4-byte "i" slots, and physical
# memory holds 190 bytes per vertex (up to ~187 measured). 2**26 if not reported.
try:
    MAX_VERTICES = min(
        2**31 - 1, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 190)
except (AttributeError, ValueError, OSError):  # the platform does not report it
    MAX_VERTICES = 2**26


def _from_clean_edges(labels: Sequence[str], ends: array) -> Graph:
    """The CSR graph over the flat edge table ``ends`` (``u0, w0, u1, w1,
    ...``), whose edges must be in range and free of self-loops but may repeat
    (:func:`_without_repeats` finds repeats): the one CSR construction, which
    every builder of given edges reaches through that check and :func:`generate`
    directly. The graph keeps ``ends`` itself."""
    n = len(labels)
    deg = [0] * n
    for x in ends:
        deg[x] += 1
    indptr = [0, *accumulate(deg)]
    cursor = indptr[:n]
    nbr = array("i", [0]) * len(ends)
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        i = cursor[u]
        nbr[i] = v
        cursor[u] = i + 1
        i = cursor[v]
        nbr[i] = u
        cursor[v] = i + 1
    return Graph(n, len(ends) // 2, indptr, nbr, ends, labels)


def _lists_a_neighbour_twice(indptr: list[int], nbr: array) -> bool:
    """Whether some CSR slice holds a neighbour twice. Neighbour ``u`` of the slice
    at ``lo`` gets ``mark[u] = lo``: slices of 2+ entries start at distinct
    positions, so no mark is stale, and ``lo`` is ``indptr``'s own int."""
    mark = [-1] * (len(indptr) - 1)
    for lo, hi in zip(indptr, islice(indptr, 1, None)):
        if hi - lo > 1:
            for u in nbr[lo:hi]:
                if mark[u] == lo:
                    return True
                mark[u] = lo
    return False


def _without_repeats(labels: Sequence[str], ends: array, dropped: int) -> ParseResult:
    """A builder's result over its loop-free ``ends``: their CSR if no vertex lists
    a neighbour twice, else the CSR of each edge's first pair, repeats in ``dropped``."""
    g = _from_clean_edges(labels, ends)
    if not _lists_a_neighbour_twice(g.indptr, g.nbr):
        return ParseResult(g, dropped)
    del g  # free the first CSR before the filter allocates
    kept = array("i")
    seen: set[int] = set()  # smaller end << 32 | larger end, per kept edge
    pairs = iter(ends)
    for u, w in zip(pairs, pairs):
        key = (u << 32) | w if u < w else (w << 32) | u
        if key not in seen:
            seen.add(key)
            kept.extend((u, w))
    del seen
    return ParseResult(_from_clean_edges(labels, kept), dropped + (len(ends) - len(kept)) // 2)


def _numbered_lines(text: str | Iterable[str]) -> Iterator[tuple[int, str]]:
    # A string is split the way a text file is read: lines end at \n, \r\n
    # or \r only, so a string and a file holding it parse alike.
    lines = io.StringIO(text, newline=None) if isinstance(text, str) else text
    return enumerate(lines, start=1)


def parse_edge_list(text: str | Iterable[str]) -> ParseResult:
    """Parse whitespace-separated ``u v`` edge lines from a string or any
    iterable of lines, such as an open file.

    Blank lines and lines starting with ``#`` are ignored. A line whose first
    token is literally ``v`` declares the vertex named by its second token
    (the way isolated vertices are expressed). Labels are arbitrary
    non-whitespace tokens; internal ids follow first appearance. Self-loops
    and repeated edges (either orientation) are dropped and counted: loops
    as they are read, repeats when the built CSR shows a vertex listing the
    same neighbour twice (one marking pass, :func:`_lists_a_neighbour_twice`).
    """
    ids: dict[str, int] = {}  # label -> id, in first-appearance order
    intern = ids.setdefault
    ends = array("i")
    append = ends.append
    dropped = 0
    for lineno, line in _numbered_lines(text):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {len(parts)}", lineno)
        a, b = parts
        if a == "v":
            intern(b, len(ids))
            continue
        u = intern(a, len(ids))
        w = intern(b, len(ids))
        if u == w:
            dropped += 1
            continue
        append(u)
        append(w)
    # Free the label map before the CSR build allocates.
    labels = PackedLabels(ids)
    del ids, intern
    return _without_repeats(labels, ends, dropped)


def parse_dimacs(text: str | Iterable[str]) -> ParseResult:
    """Parse the DIMACS ``p edge`` format (1-based ``e u v`` lines) from a
    string or any iterable of lines, such as an open file.

    ``p`` and ``e`` lines are ASCII, their counts and ids decimal integers with
    no ``_`` or ``+``. The vertex count comes from the ``p`` line, so isolated
    vertices are kept; a count above :data:`MAX_VERTICES` is refused on that line.
    The declared edge count is advisory: after dropping self-loops and
    duplicates the retained count wins. Repeats are found as in :func:`parse_edge_list`.
    """
    n: int | None = None
    ends = array("i")
    append = ends.append
    dropped = 0
    for lineno, line in _numbered_lines(text):
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "e":
            if n is None:
                raise ParseError("'e' line before 'p' line", lineno)
            if len(parts) != 3:
                raise ParseError("malformed 'e' line (expected 'e <u> <v>')", lineno)
            if not line.isascii() or "_" in line or "+" in line:  # int() takes these
                raise ParseError("non-integer vertex id in 'e' line", lineno)
            try:
                u, w = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer vertex id in 'e' line", lineno) from None
            if not (1 <= u <= n) or not (1 <= w <= n):
                raise ParseError(f"vertex id out of range 1..{n}", lineno)
            if u == w:
                dropped += 1
                continue
            append(u - 1)
            append(w - 1)
        elif kind == "c":
            continue
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate 'p' line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("malformed 'p' line (expected 'p edge <n> <m>')", lineno)
            if not line.isascii() or "_" in line or "+" in line:
                raise ParseError("non-integer counts in 'p' line", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in 'p' line", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in 'p' line", lineno)
            try:
                labels = DecimalLabels(1, n)
            except ValueError as exc:  # the count is past MAX_VERTICES
                raise ParseError(f"declared {exc}", lineno) from None
        else:
            raise ParseError(f"unexpected line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' line")
    return _without_repeats(labels, ends, dropped)


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format accepted by :func:`parse_edge_list`.

    Isolated vertices come out as ``v <label>`` declarations. A label that
    would be misread in first position (``v``, or anything starting with
    ``#``) is placed second; such a label can never occur on both endpoints
    of a parsed edge, so parse -> format -> parse round-trips. Raises
    ValueError on a label that no line can carry (empty, or holding
    whitespace) and on an edge between two second-only labels.
    """
    labels = list(g.labels)  # read per edge endpoint below
    # One C-level pass: the split gives back exactly the labels iff every
    # label is one non-empty, whitespace-free token.
    if " ".join(labels).split() != labels:
        bad = next(lab for lab in labels if lab.split() != [lab])
        raise ValueError(f"label {bad!r} is not serializable")
    second = {i for i, lab in enumerate(labels) if lab == "v" or lab[0] == "#"}
    indptr = g.indptr
    out = [f"v {lab}" for lab, lo, hi in zip(labels, indptr, indptr[1:]) if lo == hi]
    append = out.append
    pairs = iter(g.ends)
    for u, w in zip(pairs, pairs):
        if u in second:
            if w in second:
                raise ValueError(f"edge {labels[u]!r} -- {labels[w]!r} is not serializable")
            u, w = w, u
        append(f"{labels[u]} {labels[w]}")
    return "\n".join(out) + ("\n" if out else "")


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """Description of a synthetic graph family; generation is a pure function
    of the spec (seed included)."""

    family: str
    n: int
    m: int | None = None  # gnm only
    k: int | None = None  # branching factor / clique size
    seed: int = 0


def _pair_from_index(idx: int, n: int) -> tuple[int, int]:
    # Unrank idx in the lexicographic list of pairs (u, v), u < v. Row u
    # starts at start(u) = u*n - u*(u+1)/2 and holds n-1-u pairs; idx's row is
    # the floor of the smaller root of start(x) = idx. isqrt rounds the square
    # root down by under 1, which moves that root up by under 1/2, so u is
    # idx's row or the row after it.
    a = 2 * n - 1
    u = (a - math.isqrt(a * a - 8 * idx)) // 2
    start = u * n - (u * (u + 1)) // 2
    if start > idx:
        u -= 1
        start -= n - 1 - u
    return u, u + 1 + (idx - start)


def generate(spec: GeneratorSpec) -> Graph:
    """Build one of the deterministic synthetic families.

    gnm samples exactly ``m`` distinct edges uniformly (no loops); path and
    star are what they say; balanced-tree attaches vertex i to (i-1)//k;
    clique-chain strings together k-cliques that share one vertex with their
    predecessor, so it needs (n-1) divisible by (k-1). Each family streams its
    pairs into the CSR build with no range, loop or repeat check: all are in
    range and loop-free, and none repeats (gnm's picks are distinct indices
    of the pair list), so the graph is what ``Graph.from_edges`` would build.
    The labels come right after the family check: a bad count makes no edge.
    """
    family, n = spec.family, spec.n
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {', '.join(GENERATOR_FAMILIES)})")
    labels = DecimalLabels(0, n)

    if family == "gnm":
        if spec.m is None:
            raise ValueError("gnm requires m")
        m = spec.m
        max_m = n * (n - 1) // 2
        if not (0 <= m <= max_m):
            raise ValueError(f"gnm needs 0 <= m <= n(n-1)/2 = {max_m}, got {m}")
        picks = random.Random(spec.seed).sample(range(max_m), m)
        pairs: Iterable[tuple[int, int]] = map(_pair_from_index, picks, repeat(n))
    elif family == "path":
        pairs = zip(range(n - 1), range(1, n))
    elif family == "star":
        pairs = zip(repeat(0), range(1, n))
    elif family == "balanced-tree":
        k = 2 if spec.k is None else spec.k
        if k < 1:
            raise ValueError("balanced-tree needs k >= 1")
        pairs = (((i - 1) // k, i) for i in range(1, n))
    else:  # clique-chain
        k = 3 if spec.k is None else spec.k
        if k < 2:
            raise ValueError("clique-chain needs k >= 2")
        if n > 0 and (n - 1) % (k - 1) != 0:
            raise ValueError(f"clique-chain needs (n-1) divisible by (k-1), got n={n}, k={k}")
        pairs = chain.from_iterable(combinations(range(b, b + k), 2) for b in range(0, n - 1, k - 1))
    return _from_clean_edges(labels, array("i", chain.from_iterable(pairs)))
