"""Seeded generation of null observations, planted observations, and uniform
random copies of a pattern graph in the complete graph.

Randomness contract: every sampler takes a numpy Generator. Use
stream(seed, *indices) to derive the generator for one trial; the derivation
is pure, so trial k is reproducible regardless of execution order. An
observation is one bit per unordered pair, in row-major upper-triangle order
(`_pair_index`), each drawn from one uniform after the copy (if any).

The uniforms are drawn DRAW_CHUNK at a time into one buffer a piece, and
each chunk is compared into the draw's boolean bits as it comes, so a draw
holds one byte per pair plus one chunk a piece. The generator's `random`
fills sequentially, so the chunked draw equals one `random(C(n,2))` bit for
bit. A large draw from a PCG64 generator is filled in pieces on chunk
boundaries, one per usable core (at most 2), each from a copy of the
generator advanced to the piece's first pair (`PCG64.advance`); its bits
and the generator's end state are those of one sequential fill, whatever
the core count. Other bit generators draw in one piece.
Edge tests, edges, equality and hash read the bits in place; degrees and the
packed rows (row masks, the matrix) walk them DEGREE_BLOCK rows at a time
through one reused buffer, so no reader but `adjacency` holds an n x n array.
"""

from __future__ import annotations

import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from .errors import DegenerateQError, PatternTooLargeError
from .graphs import Graph, is_pattern


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic derived generator for one trial.

    stream(seed) is the root stream; stream(seed, h, k) is the stream for
    trial k under hypothesis h. Distinct index tuples give independent
    streams (SeedSequence spawn keys).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(indices))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class ModelParams:
    """The hypothesis pair: H0 is G(n, q); H1 plants a uniform copy of
    `pattern` whose edges appear with probability p, all others with q.

    p = q is accepted as the degenerate plant (H1 then equals H0); the
    interesting models have q < p.
    """

    n: int
    p: float
    q: float
    pattern: Graph

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise DegenerateQError(f"q must lie in (0,1), got {self.q}")
        if not self.q <= self.p <= 1:
            raise ValueError(f"need q <= p <= 1, got p={self.p}, q={self.q}")
        _check_instance(self.n, self.pattern)


def _check_instance(n: int, pattern: Graph) -> None:
    """The checks on (n, pattern) that every record of an instance makes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not is_pattern(pattern):
        raise ValueError("pattern must have edges and no isolated vertices")
    if pattern.n > n:
        raise PatternTooLargeError(f"pattern on {pattern.n} vertices does not fit in n={n}")


DRAW_CHUNK = 1 << 15  # uniforms a sampler draws at once: 256 KB of float64
# A PCG64 draw of at least _SPLIT_CHUNKS whole chunks is split into _DRAW_PIECES
# pieces, one per usable core, at most 2: the split size and the gain were
# measured with 2 pieces on 2 cores only, so more pieces are not taken unmeasured.
_SPLIT_CHUNKS = 8
_DRAW_PIECES = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 2
)
DEGREE_BLOCK = 256  # rows of the triangle a walk over a draw's bits copies at once
_SMALL_N = 62  # up to this n `Observation(adjacency)` gathers its bits through cached cells


class Observation:
    """A simple graph on [0, n), observed under one hypothesis, held as its
    C(n,2) row-major upper-triangle bits. `Observation(adjacency)` validates
    a symmetric boolean matrix and keeps it, read-only, as the `adjacency`
    cache; a sampled observation builds `adjacency` only when a caller reads
    it, off its packed rows. Degrees and the packed rows walk the bits
    DEGREE_BLOCK rows at a time; `row_masks` is built on first read.
    """

    __slots__ = ("n", "_bits", "_adjacency", "_masks")

    def __init__(self, adjacency: np.ndarray):
        a = np.asarray(adjacency, dtype=bool)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        # the checks read the row-major bytes, which the kept matrix then
        # shares read-only: one copy, and no temporary matrix
        n, raw = a.shape[0], a.tobytes()
        if any(raw[:: n + 1]):
            raise ValueError("adjacency has a nonzero diagonal")
        if raw != a.T.tobytes():
            raise ValueError("adjacency is not symmetric")
        flat = np.frombuffer(raw, bool)  # a positional dtype parses ~0.25 us faster
        # its pairs u < v: up to _SMALL_N vertices one gather through cached cells
        bits = flat[_upper_cells(n)] if n <= _SMALL_N else np.concatenate(
            [flat[u * n + u + 1 : (u + 1) * n] for u in range(n)]
        )
        self._hold(n, bits, flat.reshape(n, n))

    @classmethod
    def _from_bits(cls, n: int, bits: np.ndarray) -> "Observation":
        """Take ownership of the C(n,2) bits: a graph, nothing to check or copy."""
        return object.__new__(cls)._hold(n, bits, None)

    def _hold(self, n: int, bits: np.ndarray, adjacency: np.ndarray | None) -> "Observation":
        bits.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_masks", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Observation is immutable")

    @property
    def adjacency(self) -> np.ndarray:
        """The read-only symmetric (n, n) boolean matrix."""
        # two threads racing here build equal matrices; either one is kept
        a = self._adjacency
        if a is None:
            rows = np.unpackbits(self._packed_rows(), axis=1, count=self.n, bitorder="little")
            a = rows.view(bool)
            a.setflags(write=False)
            object.__setattr__(self, "_adjacency", a)
        return a

    @property
    def row_masks(self) -> tuple[int, ...]:
        """Row u, read off the packed rows, as an int: bit v set when u and v are adjacent."""
        masks = self._masks
        if masks is None:
            # a row viewed as one void item lists as its bytes, ~3x as fast as per-row
            # views at n = 40 and 200; unnamed, the packed rows are freed before the ints
            rows = self._packed_rows().view(f"V{(self.n + 7) // 8}").ravel().tolist()
            masks = tuple(map(int.from_bytes, rows, repeat("little")))
            object.__setattr__(self, "_masks", masks)
        return masks

    def _packed_rows(self) -> np.ndarray:
        """(n, ceil(n/8)) uint8: row u packed little-endian, as `row_masks`."""
        n = self.n
        packed = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        step = -(-DEGREE_BLOCK // 8) * 8  # so a block's transpose lands on whole bytes
        for lo, block in _triangle_blocks(n, self._bits, step):
            packed[lo : lo + len(block)] |= np.packbits(block, axis=1, bitorder="little")
            # column v of the block holds row v's bits in columns lo..hi-1; packing a C-order
            # copy of the transpose is 2-3x as fast as packing down the columns
            across = np.packbits(block[:, lo:].T.copy(), axis=1, bitorder="little")
            packed[lo:, lo // 8 : lo // 8 + across.shape[1]] |= across
        return packed

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self._bits))

    def degrees(self) -> np.ndarray:
        # a degree is its row's plus its column's count in the upper triangle;
        # int32 accumulators (degrees are < n) sum uint8 2x as fast as int64
        both = np.zeros(self.n, dtype=np.int32)
        for lo, block in _triangle_blocks(self.n, self._bits, DEGREE_BLOCK):
            upper = block.view(np.uint8)
            both[lo : lo + len(upper)] += upper.sum(axis=1, dtype=np.int32)
            both[lo:] += upper[:, lo:].sum(axis=0, dtype=np.int32)
        return both.astype(np.int64)

    def max_degree(self) -> int:
        # a held matrix's row sums beat a walk over the bits
        if self._adjacency is not None:
            return max(self._adjacency.sum(axis=1).tolist(), default=0)
        return int(self.degrees().max(initial=0))

    def has_edge(self, u: int, v: int) -> bool:
        """As `Graph.has_edge`: False for u == v or a vertex outside [0, n)."""
        u, v = min(u, v), max(u, v)
        return bool(0 <= u < v < self.n and self._bits[_pair_index(u, v, self.n)])

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in row-major order."""
        # pair i lies in the last row u whose first pair is at or before i
        n, pos = self.n, np.flatnonzero(self._bits)
        u = np.arange(n, dtype=np.int64)
        starts = _pair_index(u, u + 1, n)
        rows = np.searchsorted(starts, pos, side="right") - 1
        cols = pos - starts[rows] + rows + 1
        return list(zip(rows.tolist(), cols.tolist()))

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges())

    @classmethod
    def from_graph(cls, g: Graph) -> "Observation":
        bits = np.zeros(g.n * (g.n - 1) // 2, dtype=bool)
        u, v = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
        bits[_pair_index(u, v, g.n)] = True
        return cls._from_bits(g.n, bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return self.n == other.n and memoryview(self._bits) == memoryview(other._bits)

    def __hash__(self):
        # in place, as __eq__ reads them; a memoryview of an array is unhashable
        return zlib.crc32(self._bits)

    def __repr__(self) -> str:
        return f"Observation(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class EmbeddedCopy:
    """A placed copy of a pattern: vertex_map[i] is the host vertex carrying
    pattern vertex i; edge_set, built on first read, is the image of the
    pattern's edges. Copies are equal when pattern and vertex_map are."""

    pattern: Graph
    vertex_map: tuple[int, ...]

    @classmethod
    def from_map(cls, pattern: Graph, images: tuple[int, ...]) -> "EmbeddedCopy":
        if len(set(images)) != len(images):
            raise ValueError("vertex map must be injective")
        return cls(pattern, tuple(int(x) for x in images))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        lo, hi = _image_endpoints(self.pattern, self.vertex_map)
        return frozenset(zip(lo.tolist(), hi.tolist()))


def sample_null(n: int, q: float, rng: np.random.Generator) -> Observation:
    """One draw from G(n, q): each pair is an edge independently w.p. q."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0,1], got {q}")
    return Observation._from_bits(n, _draw_bits(n * (n - 1) // 2, q, rng))


def sample_uniform_copy(
    pattern: Graph, n: int, rng: np.random.Generator
) -> EmbeddedCopy:
    """A uniformly random copy of `pattern` in K_n.

    The vertex map is a uniform injection (a random permutation truncated to
    the pattern size); every copy is induced by exactly |Aut(pattern)| maps,
    so the induced copy is uniform over all copies. It is the one row of
    `batched_copy_images`, drawn as `rng.permutation(n)` would draw it.
    """
    images = batched_copy_images(pattern, n, 1, rng)[0]
    return EmbeddedCopy(pattern, tuple(images.tolist()))


def sample_planted(
    params: ModelParams, rng: np.random.Generator
) -> tuple[Observation, EmbeddedCopy]:
    """One draw from H1, returning the observation and the planted copy.

    Draw order is fixed: first the copy, then one uniform per pair, compared
    with p on the copy's pairs and with q elsewhere.
    """
    n = params.n
    copy = sample_uniform_copy(params.pattern, n, rng)
    idx = _pair_index(*_image_endpoints(params.pattern, copy.vertex_map), n)
    bits = _draw_bits(n * (n - 1) // 2, params.q, rng, np.sort(idx), params.p)
    return Observation._from_bits(n, bits), copy


def _draw_bits(
    m: int,
    q: float,
    rng: np.random.Generator,
    planted: np.ndarray | None = None,
    p: float = 0.0,
) -> np.ndarray:
    """m bits, bit i set when the i-th uniform drawn is below its threshold:
    p at the sorted positions `planted`, q elsewhere. The uniforms are drawn
    DRAW_CHUNK at a time into one buffer a piece, so only the bits are m long.

    A draw of at least _SPLIT_CHUNKS whole chunks from a PCG64 generator is
    filled in up to _DRAW_PIECES pieces on chunk boundaries: the caller fills
    the first from `rng`, the draw pool each other from a copy of `rng`
    advanced to its first pair, and `rng` then takes the last copy's state.
    So the bits and the generator's end state are those of one sequential
    fill. Other bit generators draw in one piece. The split size and the
    piece count were benchmarked with 2 pieces on 2 cores only."""
    bits = np.empty(m, dtype=bool)
    cuts = _piece_starts(m, rng.bit_generator) + [m]
    copies = [_advanced(rng, lo) for lo in cuts[1:-1]]
    fills = [
        _draw_pool().submit(_fill, bits, lo, hi, q, copy, planted, p)
        for copy, lo, hi in zip(copies, cuts[1:], cuts[2:])
    ]
    _fill(bits, 0, cuts[1], q, rng, planted, p)
    for fill in fills:
        fill.result()
    if copies:
        # the copies drew no 32-bit half, so `rng` keeps its own buffered one
        state = rng.bit_generator.state
        state["state"] = copies[-1].bit_generator.state["state"]
        rng.bit_generator.state = state
    return bits


def _fill(
    bits: np.ndarray,
    lo: int,
    hi: int,
    q: float,
    rng: np.random.Generator,
    planted: np.ndarray | None,
    p: float,
) -> None:
    """Bits lo..hi-1 of `_draw_bits` from the next hi - lo uniforms of `rng`."""
    step = DRAW_CHUNK
    buf = np.empty(min(hi - lo, step))
    starts = range(lo, hi, step)
    if planted is not None:
        # splits[j]: the first planted position in chunk j or after it
        splits = np.searchsorted(planted, [*starts, hi]).tolist()
    for j, start in enumerate(starts):
        stop = min(start + step, hi)
        chunk = buf[: stop - start]
        rng.random(out=chunk)
        np.less(chunk, q, out=bits[start:stop])
        if planted is not None and splits[j] < splits[j + 1]:
            at = planted[splits[j] : splits[j + 1]]
            bits[at] = chunk[at - start] < p


def _piece_starts(m: int, bit_generator: np.random.BitGenerator) -> list[int]:
    """The first pair of each piece of an m-pair draw, on chunk boundaries:
    [0] unless the draw is long enough to split and `advance` counts draws.
    Philox's counts blocks of four, and MT19937 and SFC64 have none."""
    if m < _SPLIT_CHUNKS * DRAW_CHUNK or type(bit_generator) is not np.random.PCG64:
        return [0]
    chunks = -(-m // DRAW_CHUNK)
    k = min(_DRAW_PIECES, chunks)
    return [i * chunks // k * DRAW_CHUNK for i in range(k)]


def _advanced(rng: np.random.Generator, lo: int) -> np.random.Generator:
    """A copy of the PCG64 `rng` that draws its lo-th uniform first."""
    bg = np.random.PCG64(0)  # a fixed seed reads no OS entropy; the state is replaced
    bg.state = rng.bit_generator.state
    return np.random.Generator(bg.advance(lo))


def _draw_pool() -> ThreadPoolExecutor:
    """The threads that fill a split draw's later pieces, started on the
    first split draw of this process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_DRAW_PIECES - 1, thread_name_prefix="plantedlab-draw")
        return _pool


def _forget_pool() -> None:
    # a forked child has none of its parent's pool threads: it starts its own
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def batched_copy_images(
    pattern: Graph, n: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """(trials, |v(pattern)|) matrix of independent uniform injections.

    Row t is the vertex map of one uniform copy; rows are mutually
    independent. One vectorized call, so the draw is deterministic in
    (pattern size, n, trials) given the generator state.
    """
    if pattern.n > n:
        raise PatternTooLargeError(
            f"pattern on {pattern.n} vertices does not fit in n={n}"
        )
    base = np.tile(np.arange(n), (trials, 1))
    return rng.permuted(base, axis=1)[:, : pattern.n]


@lru_cache(maxsize=128)
def _edge_endpoints(pattern: Graph) -> np.ndarray:
    """The pattern's edges as a read-only (|e|, 2) int64 array."""
    ends = np.array(pattern.edges, dtype=np.int64).reshape(-1, 2)
    ends.setflags(write=False)
    return ends


def _image_endpoints(
    pattern: Graph, images: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the smaller and larger host end of each pattern edge's image."""
    ends = np.asarray(images, dtype=np.int64)[_edge_endpoints(pattern)]
    # elementwise over the two columns: min(axis=1) reduces each 2-row on
    # its own and takes ~40x as long on clique:200
    u, v = ends[:, 0], ends[:, 1]
    return np.minimum(u, v), np.maximum(u, v)


def _pair_index(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Position of each pair u < v in row-major upper-triangle order."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


@lru_cache(maxsize=None)
def _upper_cells(n: int) -> np.ndarray:
    """Flat positions u*n + v of the pairs u < v of an (n, n) matrix."""
    return np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))


def _triangle_blocks(n: int, bits: np.ndarray, step: int):
    """Walk the strict upper triangle of the row-major bits `step` rows at a
    time: yield (lo, block) with block[i] row lo + i of the (n, n) matrix,
    clear on and left of the diagonal. Every block is a view of one reused
    (step, n) buffer, valid until the next one is drawn."""
    buf = np.zeros((min(step, n), n), dtype=bool)
    start = 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        block = buf[: hi - lo]
        if lo:
            # buffer row i held row lo - step + i, written from column
            # lo - step + i + 1 on; row lo + i is clear up to column lo + i
            block[:, lo - step + 1 : hi] = False
        for i, u in enumerate(range(lo, hi)):
            stop = start + n - 1 - u
            block[i, u + 1 :] = bits[start:stop]
            start = stop
        yield lo, block
