"""Undirected simple graphs: representation, parsing and generation.

Vertices are contiguous 0-based internal ids; the original input labels are
kept on the graph so every user-facing output can report them. Adjacency is
stored CSR-style: ``indptr`` is a plain list, which the DFS-heavy code in the
rest of the package indexes most, while the neighbour slots and the edge
table are flat ``array("q")`` buffers of 8 bytes per entry instead of one
pointer plus one boxed int each. Labels are a list of strings when they come
from an edge list; graphs whose labels are consecutive integers (DIMACS ids,
``Graph.from_edges`` given a count, and so :func:`generate`) hold a
:class:`DecimalLabels` instead, which makes each label when it is read. This
module imports nothing else from the package; the component labeling lives in
:mod:`blockimpact.impact`.
"""

from __future__ import annotations

import io
import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import eq
from typing import Iterable, Iterator, NamedTuple

GENERATOR_FAMILIES = ("gnm", "path", "star", "balanced-tree", "clique-chain")


class ParseError(ValueError):
    """Malformed graph input. ``line`` is the 1-based offending line, if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class DecimalLabels(Sequence[str]):
    """The labels ``str(first)``, ..., ``str(first + n - 1)``, each made when
    it is read: an immutable sequence that stores two ints, not n strings.

    Iteration runs at C speed (``map(str, range(...))``), so code that reads
    every label should iterate, or take ``list(labels)`` once, rather than
    index per vertex. ``index`` and ``in`` take O(1): a label is only the
    canonical decimal form of an int in range (``"01"`` and ``"+1"`` are
    not labels). It compares equal to any sequence of the same strings, in
    either direction, and pickles as ``(first, n)``.
    """

    __slots__ = ("_ids",)

    def __init__(self, first: int, n: int):
        if n < 0:
            raise ValueError("label count must be >= 0")
        self._ids = range(first, first + n)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(str, self._ids[i]))
        return str(self._ids[i])

    def __iter__(self) -> Iterator[str]:
        return map(str, self._ids)

    def _id(self, label: object) -> int | None:
        """The int whose decimal form ``label`` is, if that int is in range."""
        if type(label) is not str:
            return None
        try:
            k = int(label)
        except ValueError:
            return None
        return k if k in self._ids and str(k) == label else None

    def __contains__(self, label: object) -> bool:
        return self._id(label) is not None

    def index(self, label: object, start: int = 0, stop: int | None = None) -> int:
        k = self._id(label)
        if k is not None:
            i = k - self._ids.start
            if i in range(len(self._ids))[start:stop]:
                return i
        raise ValueError(f"{label!r} is not in labels")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DecimalLabels):
            return self._ids == other._ids
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == len(self._ids) and all(map(eq, self, other))

    def __reduce__(self):
        return DecimalLabels, (self._ids.start, len(self._ids))

    def __repr__(self) -> str:
        return f"DecimalLabels({self._ids.start}, {len(self._ids)})"


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable undirected simple graph: CSR adjacency plus the edge table.

    The neighbors of vertex ``v`` are ``nbr[indptr[v]:indptr[v+1]]``; each
    edge appears there exactly twice, once per endpoint. Edge ``e`` is
    ``(ends[2*e], ends[2*e+1])`` as first recorded, and edge ids index
    ``ends`` alone: the adjacency does not carry them. ``nbr`` and ``ends``
    are ``array("q")``; ``indptr`` is a list, and ``labels`` a list of
    strings or a :class:`DecimalLabels`. There are no self-loops and no
    parallel edges.
    """

    n: int
    m: int
    indptr: list[int]
    nbr: array  # typecode "q": neighbour slots, CSR order
    ends: array  # typecode "q": u0, w0, u1, w1, ... in recorded edge order
    labels: Sequence[str]  # internal id -> original label

    @classmethod
    def from_edges(
        cls, vertices: int | Sequence[str], edges: Iterable[tuple[int, int]]
    ) -> "Graph":
        """Build a graph from an edge list over 0-based vertex ids.

        ``vertices`` is either a vertex count (labels are the decimal ids,
        as a :class:`DecimalLabels`) or the full list of labels. Raises
        ValueError on a negative count, repeated labels, out-of-range ids,
        self-loops, or repeated edges: callers that accept dirty input (the
        parsers) are expected to clean it first.
        """
        if isinstance(vertices, int):
            if vertices < 0:
                raise ValueError("vertex count must be >= 0")
            labels: Sequence[str] = DecimalLabels(0, vertices)
        else:
            labels = list(vertices)
            if len(set(labels)) != len(labels):
                raise ValueError("duplicate vertex labels")
        n = len(labels)

        ends = array("q")
        seen: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u << 32) | v if u < v else (v << 32) | u
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            ends.append(u)
            ends.append(v)
        return _from_clean_edges(labels, ends)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Edge id -> ``(u, v)`` as first recorded: a new list of pairs
        built from ``ends`` on every call, for callers that want tuples."""
        ends = self.ends
        return list(zip(ends[0::2], ends[1::2]))


class ParseResult(NamedTuple):
    graph: Graph
    dropped: int  # self-loop and duplicate-edge lines discarded


# Largest vertex count a DIMACS ``p`` line may declare: the CSR build
# allocates per declared vertex, so the count is checked before any allocation.
MAX_DIMACS_VERTICES = 2**26


def _from_clean_edges(labels: Sequence[str], ends: array) -> Graph:
    """The CSR graph over the flat edge table ``ends`` (``u0, w0, u1, w1,
    ...``), whose edges must already be in range, free of self-loops and
    distinct: the one CSR construction behind the parsers and
    :meth:`Graph.from_edges`. The graph keeps ``ends`` itself."""
    n = len(labels)
    deg = [0] * n
    for x in ends:
        deg[x] += 1
    indptr = [0, *accumulate(deg)]
    cursor = indptr[:n]
    nbr = array("q", [0]) * len(ends)
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        i = cursor[u]
        nbr[i] = v
        cursor[u] = i + 1
        i = cursor[v]
        nbr[i] = u
        cursor[v] = i + 1
    return Graph(n, len(ends) // 2, indptr, nbr, ends, labels)


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
    and repeated edges (either orientation) are dropped and counted.
    """
    ids: dict[str, int] = {}  # label -> id, in first-appearance order
    intern = ids.setdefault
    ends = array("q")
    append = ends.append
    seen: set[int] = set()  # (lo << 32) | hi of every kept edge
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
        if u < w:
            key = (u << 32) | w
        elif w < u:
            key = (w << 32) | u
        else:
            dropped += 1
            continue
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        append(u)
        append(w)
    # Free the label map and the edge keys before the CSR build allocates.
    labels = list(ids)
    del ids, intern, seen
    return ParseResult(_from_clean_edges(labels, ends), dropped)


def parse_dimacs(text: str | Iterable[str]) -> ParseResult:
    """Parse the DIMACS ``p edge`` format (1-based ``e u v`` lines) from a
    string or any iterable of lines, such as an open file.

    The vertex count comes from the ``p`` line, so isolated vertices are
    preserved; a count above :data:`MAX_DIMACS_VERTICES` is rejected. The
    declared edge count is advisory: after dropping self-loops and duplicates
    the retained count wins.
    """
    n: int | None = None
    ends = array("q")
    append = ends.append
    seen: set[int] = set()  # (lo << 32) | hi of every kept edge
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
            try:
                u = int(parts[1])
                w = int(parts[2])
            except ValueError:
                raise ParseError("non-integer vertex id in 'e' line", lineno) from None
            if not (1 <= u <= n) or not (1 <= w <= n):
                raise ParseError(f"vertex id out of range 1..{n}", lineno)
            u -= 1
            w -= 1
            if u < w:
                key = (u << 32) | w
            elif w < u:
                key = (w << 32) | u
            else:
                dropped += 1
                continue
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
            append(u)
            append(w)
        elif kind == "c":
            continue
        elif kind == "p":
            if n is not None:
                raise ParseError("duplicate 'p' line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError("malformed 'p' line (expected 'p edge <n> <m>')", lineno)
            try:
                n = int(parts[2])
                declared_m = int(parts[3])
            except ValueError:
                raise ParseError("non-integer counts in 'p' line", lineno) from None
            if n < 0 or declared_m < 0:
                raise ParseError("negative counts in 'p' line", lineno)
            if n > MAX_DIMACS_VERTICES:
                raise ParseError(
                    f"declared vertex count {n} exceeds the limit of {MAX_DIMACS_VERTICES}",
                    lineno,
                )
        else:
            raise ParseError(f"unexpected line type {kind!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' line")
    del seen  # free the edge keys before the CSR is built
    return ParseResult(_from_clean_edges(DecimalLabels(1, n), ends), dropped)


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
    # starts at offset(u) = u*n - u*(u+1)/2; isqrt gives the row up to
    # rounding, fixed by the adjustment steps.
    a = 2 * n - 1
    u = (a - math.isqrt(a * a - 8 * idx)) // 2

    def offset(row: int) -> int:
        return row * n - (row * (row + 1)) // 2

    while u > 0 and offset(u) > idx:
        u -= 1
    while offset(u + 1) <= idx:
        u += 1
    v = u + 1 + (idx - offset(u))
    return u, v


def generate(spec: GeneratorSpec) -> Graph:
    """Build one of the deterministic synthetic families.

    gnm samples exactly ``m`` distinct edges uniformly (no loops); path and
    star are what they say; balanced-tree attaches vertex i to (i-1)//k;
    clique-chain strings together k-cliques that share one vertex with their
    predecessor, so it needs (n-1) divisible by (k-1).
    """
    family, n = spec.family, spec.n
    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {', '.join(GENERATOR_FAMILIES)})")
    if n < 0:
        raise ValueError("vertex count must be >= 0")

    if family == "gnm":
        if spec.m is None:
            raise ValueError("gnm requires m")
        m = spec.m
        max_m = n * (n - 1) // 2
        if not (0 <= m <= max_m):
            raise ValueError(f"gnm needs 0 <= m <= n(n-1)/2 = {max_m}, got {m}")
        rng = random.Random(spec.seed)
        picks = rng.sample(range(max_m), m) if m else []
        edges = [_pair_from_index(i, n) for i in picks]
    elif family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    elif family == "balanced-tree":
        k = 2 if spec.k is None else spec.k
        if k < 1:
            raise ValueError("balanced-tree needs k >= 1")
        edges = [((i - 1) // k, i) for i in range(1, n)]
    else:  # clique-chain
        k = 3 if spec.k is None else spec.k
        if k < 2:
            raise ValueError("clique-chain needs k >= 2")
        if n > 0 and (n - 1) % (k - 1) != 0:
            raise ValueError(f"clique-chain needs (n-1) divisible by (k-1), got n={n}, k={k}")
        edges = []
        for base in range(0, n - 1, k - 1):
            block = range(base, base + k)
            edges.extend((u, v) for u in block for v in block if u < v)
    return Graph.from_edges(n, edges)
