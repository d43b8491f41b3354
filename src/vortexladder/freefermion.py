"""Quadratic Majorana solver for a fixed Z2 gauge configuration.

For bond couplings J and bond signs u, the quadratic Hamiltonian is encoded
by the real antisymmetric matrix A with A[i,j] = J_(ij) u(i->j) on bonds
(sites 1..4N map to rows 0..4N-1).  The ladder is bipartite: every bond
joins an odd site to an even one, so A couples rows 0::2 only to rows 1::2
and is fixed by its 2N x 2N odd-to-even block M = A[0::2, 1::2].  The
one-particle modes eps_k >= 0 are the singular values of M (Kitaev,
cond-mat/0506438); the many-body levels are all sums sum_k (+-eps_k), the
ground energy is -sum_k eps_k, summed in twice the working precision
(``_mode_sum``: row by row on Python floats for the few rows of a
``big_loop_gap`` solve, column by column on whole arrays for a sweep chunk,
with the same bits either way).  Every
vortex-sector solve is one SVD of its M.  Sweeps and ``big_loop_gap`` stack
the blocks of many sectors of one ladder and take one batched SVD: each
block is a reference block with the entry of every co-tree bond whose sign
the sector's gauge flips negated, all flips coming from the ladder's
closed-form cycle system (``gauge.CycleSystem``).  Since the block
structure is exact, sector solves have no check that singular values pair
up; both check once per ladder, before any SVD, that the same-parity blocks
are exactly zero.  ``mode_spectrum`` keeps a general path for other
antisymmetric matrices (every other singular value of A, with a pairing
check).

The per-sector spectra here are the unconstrained ones: no fermion-parity
restriction is applied when expanding {+-eps_k} sums.  Comparisons against
the spin model treat spectra as value sets, not multisets.

Gaps are differences of two ground energies, each of size ~N, so a double
difference carries an absolute error of about |E| * eps * 4N.  The big-loop
gap of a closed ladder decays exponentially in N (as exp(-1.48 N) for the
decaying-top preset at jx, jy, jz = 1.0, 0.2, 2.0, which crosses that floor
at N = 20).  Below the floor ``big_loop_gap`` takes ``twisted_wrap_gap``,
which gets the gap from a ratio of determinants of the two sectors' matrices
(Molinari, arXiv:0712.0681) and never subtracts two energies.  The ratio
eliminates the interior rungs by cyclic reduction, every other rung per
level for all rungs and quadrature nodes at once, so a ring of 2N rungs
takes about log2(2N) vectorized levels.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from . import gauge as gauge_mod
from .errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidSpecError,
    MalformedMatrixError,
)
from .gauge import GaugeConfig, VortexSector
from .lattice import BondType, Boundary, Ladder

MAX_EXPANSION_MODES = 24   # guard for the 2^m many-body expansion
# guard for full sector sweeps: the CLI's sweep peaks at about 33 MB plus 24 bytes
# per sector (fit to closed N=9, 10, 11, 2-core x86 VM), so 2^27 sectors (closed
# N=13) would take about 3.3 GB; the next basis, 29 (closed N=14), about 13 GB
MAX_SWEEP_BASIS = 27
SWEEP_CHUNK = 4096         # sectors per stacked SVD in a sweep
MAX_SCAN_CELLS = 100       # guard for gap scans over N
PAIR_TOL = 1e-8            # relative tolerance for singular-value pairing
SCALAR_SUM_ROWS = 32       # _mode_sum's row-by-row loop below this many rows (measured crossover)
GAP_LOG_STEP = 0.25        # trapezoid step in log(x) for twisted_wrap_gap
# guard for the 2^(#cycles + 2N) levels of a sector union: at 23 (open N=6) the
# CLI's union peaks at 1.8 GB and takes 16 s (CSV, 2-core x86 VM); the next size
# up, 25 (closed N=6), would take about four times that
MAX_UNION_BITS = 23


@dataclass(frozen=True)
class CouplingConfig:
    """Real coupling per bond, keyed by canonical (i, j)."""

    values: Mapping[tuple[int, int], float]

    @classmethod
    def homogeneous(cls, ladder: Ladder, jx: float, jy: float, jz: float) -> "CouplingConfig":
        by_type = {BondType.X: float(jx), BondType.Y: float(jy), BondType.Z: float(jz)}
        return cls({b.pair: by_type[b.kind] for b in ladder.bonds})

    def __getitem__(self, pair: tuple[int, int]) -> float:
        return self.values[pair]

    def validate_for(self, ladder: Ladder) -> None:
        if self.values.keys() != ladder.bond_map.keys():
            raise InvalidSpecError("couplings do not cover exactly the ladder bonds")
        for pair, val in self.values.items():
            if not math.isfinite(val):
                raise InvalidSpecError(f"coupling {pair} is not finite")


@dataclass(frozen=True)
class SkewAdjacency:
    matrix: np.ndarray  # (4N, 4N) real antisymmetric


def assemble_skew(ladder: Ladder, couplings: CouplingConfig, g: GaugeConfig) -> SkewAdjacency:
    couplings.validate_for(ladder)
    if g.u.keys() != ladder.bond_map.keys():
        raise InvalidSpecError("gauge does not cover exactly the ladder bonds")
    pairs = list(couplings.values)
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T - 1
    w = (np.fromiter(couplings.values.values(), float, len(pairs))
         * np.fromiter(map(g.u.__getitem__, pairs), float, len(pairs)))
    a = np.zeros((ladder.n_sites, ladder.n_sites))
    a[i, j] = w
    a[j, i] = -w
    return SkewAdjacency(a)


def _check_skew(a: np.ndarray) -> float:
    """Entry scale max(1, max |a_ij|) of a square, even-dimensional,
    antisymmetric matrix; MalformedMatrixError for any other."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MalformedMatrixError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    sym = a + a.T
    if np.abs(sym, out=sym).max(initial=0.0) > 1e-12 * scale:
        raise MalformedMatrixError("matrix is not antisymmetric within 1e-12")
    if a.shape[0] % 2:
        raise MalformedMatrixError("odd dimension cannot pair Majorana modes")
    return scale


def _is_bipartite(a: np.ndarray) -> bool:
    """Whether ``a`` couples even rows only to odd rows, as every ladder
    matrix does (each bond joins an odd site to an even one)."""
    return not (a[0::2, 0::2].any() or a[1::2, 1::2].any())


def _check_bipartite(couplings: CouplingConfig) -> None:
    """MalformedMatrixError unless every nonzero coupling joins an odd site to
    an even one, i.e. unless the same-parity blocks of every sector's A are
    exactly zero (``build_ladder`` makes no other ladder)."""
    if any((i - j) % 2 == 0 and J != 0.0 for (i, j), J in couplings.values.items()):
        raise MalformedMatrixError("a bond joins two sites of the same parity")


def _flipped_blocks(
    m0: np.ndarray, cotree: Sequence[tuple[int, int]], flips: np.ndarray
) -> np.ndarray:
    """One copy of the block ``m0`` per row of the boolean (len, #co-tree)
    array ``flips``, with the entry of co-tree bond c negated where column c
    is set.  The entry holding a bond is the row of its odd site and the
    column of its even one."""
    stack = np.broadcast_to(m0, (len(flips),) + m0.shape).copy()
    for c in np.flatnonzero(flips.any(axis=0)):
        i, j = cotree[c]
        r, k = ((i - 1) // 2, (j - 1) // 2) if i % 2 else ((j - 1) // 2, (i - 1) // 2)
        stack[flips[:, c], r, k] *= -1.0
    return stack


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of each matrix in an (..., m, m) stack, descending.
    For the odd-to-even blocks M of ladder matrices these are the
    one-particle energies; every sector solve goes through here."""
    return np.linalg.svd(stack, compute_uv=False)


def mode_spectrum(skew: SkewAdjacency) -> np.ndarray:
    """One-particle energies of a skew matrix, descending.  A ladder matrix
    gives the singular values of its odd-to-even block; any other gives
    every other singular value of the whole matrix, whose two values of each
    pair must agree within PAIR_TOL * max(eps, 1) and 1e-10 * entry scale."""
    a = np.asarray(skew.matrix, dtype=float)
    scale = _check_skew(a)
    if _is_bipartite(a):
        return _singular_values(a[0::2, 1::2])
    s = _singular_values(a)
    eps = s[0::2]
    mismatch = np.abs(eps - s[1::2])
    if np.any(mismatch > PAIR_TOL * np.maximum(eps, 1.0)) or np.any(mismatch > 1e-10 * scale):
        raise MalformedMatrixError("singular values do not pair within tolerance")
    return eps


def _mode_sum(eps: np.ndarray) -> np.ndarray:
    """Sum over the last axis, as accurate as a sum in twice the working
    precision and then rounded (Sum2 of Ogita, Rump and Oishi, 2005: each
    addition's rounding error is recovered exactly and added at the end).
    The singular values of M carry errors near 1e-16 * eps_max, so a plain
    running sum's rounding would dominate a ground energy's error, and with
    it the error of a gap between two sectors.

    A stack of fewer than SCALAR_SUM_ROWS rows (a ``big_loop_gap`` solve)
    runs the recurrence on Python floats, row by row; a longer one (a sweep
    chunk) runs it column by column on whole arrays.  Both make the same
    IEEE operations in the same order, so they agree bit for bit."""
    rows = math.prod(eps.shape[:-1])
    if rows >= SCALAR_SUM_ROWS:
        total = np.zeros(eps.shape[:-1])
        error = np.zeros(eps.shape[:-1])
        for x in np.moveaxis(eps, -1, 0):
            new = total + x
            part = new - total
            error += (total - (new - part)) + (x - part)
            total = new
        return total + error
    sums = []
    for row in eps.reshape(rows, eps.shape[-1]).tolist():
        total = error = 0.0
        for x in row:
            new = total + x
            part = new - total
            error += (total - (new - part)) + (x - part)
            total = new
        sums.append(total + error)
    return np.array(sums).reshape(eps.shape[:-1])


def ground_energy(eps: np.ndarray) -> float:
    return -float(_mode_sum(eps))


def many_body_spectrum(eps: np.ndarray) -> np.ndarray:
    """All 2^m sums of +-eps_k, ascending (unconstrained; see module note)."""
    if len(eps) > MAX_EXPANSION_MODES:
        raise GuardExceededError(
            f"2^{len(eps)} level expansion exceeds guard ({MAX_EXPANSION_MODES})")
    levels = np.zeros(1)
    for e in eps:
        levels = np.concatenate([levels - e, levels + e])
    levels.sort()
    return levels


def sector_ground_energy(
    ladder: Ladder, couplings: CouplingConfig, sector: VortexSector | Mapping[str, int]
) -> float:
    g = gauge_mod.gauge_for_sector(ladder, sector)
    return ground_energy(mode_spectrum(assemble_skew(ladder, couplings, g)))


# ---------------------------------------------------------------------------
# full sector sweeps

@dataclass(frozen=True)
class SweepRow:
    sector: VortexSector
    energy: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Ground energy of every vortex sector of ``ladder``, kept as two
    columns ordered by (energy, sector id).  Rows are made on demand."""

    ladder: Ladder
    sector_ids: np.ndarray  # int64
    energies: np.ndarray  # float64

    @cached_property
    def argmin(self) -> SweepRow:
        return SweepRow(gauge_mod.sector_from_id(self.ladder, int(self.sector_ids[0])),
                        float(self.energies[0]))

    @cached_property
    def rows(self) -> Sequence[SweepRow]:
        """Every row in order, ``rows[0]`` being ``argmin``."""
        return _SweepRows(self)

    @cached_property
    def _positions(self) -> np.ndarray:
        """Row index of each sector id (the inverse of ``sector_ids``)."""
        positions = np.empty_like(self.sector_ids)
        positions[self.sector_ids] = np.arange(len(positions))
        return positions

    def row_for(self, sid: int) -> SweepRow:
        if not isinstance(sid, (int, np.integer)) or not 0 <= sid < len(self.sector_ids):
            raise KeyError(sid)
        return self.rows[int(self._positions[sid])]


class _SweepRows(Sequence[SweepRow]):
    """Read-only row view of a ``SweepResult``; each row is built on access."""

    def __init__(self, result: SweepResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.sector_ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = range(len(self))[k]  # IndexError outside, negative k from the end
        if k == 0:
            return self._result.argmin
        result = self._result
        return SweepRow(gauge_mod.sector_from_id(result.ladder, int(result.sector_ids[k])),
                        float(result.energies[k]))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has
    one (``taskset`` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def _share(fn: Callable[[_Item], _Result], items: Sequence[_Item], first: int, step: int):
    """``fn`` of items first, first + step, ... up to the first that raises:
    (the results, None), or (the results before it, (its index, its error))."""
    results = []
    for i in range(first, len(items), step):
        try:
            results.append(fn(items[i]))
        except Exception as e:
            return results, (i, e)
    return results, None


def worker_map(
    fn: Callable[[_Item], _Result], items: Sequence[_Item], workers: int | None = None
) -> list[_Result]:
    """``[fn(x) for x in items]`` on w = min(workers, len(items),
    ``usable_cpus()``) processes.

    The calling process works items 0, w, 2w, ...; each of w - 1 children
    made by ``os.fork`` works its own share (items k, k + w, ...) and sends
    its results back pickled through a pipe.  A child starts from a copy of
    the caller, so ``fn`` and the items are never pickled, and it starts in
    about a millisecond where a fresh interpreter would spend a CLI
    process's whole import time.  Only the calling thread is copied: the
    CLI runs no other (its BLAS runs on one thread).  Where ``os.fork`` does
    not exist, or w is 1, this is the plain loop.  An error raised by ``fn``
    ends that share: once every share is in, the call raises the error of
    the earliest failing item, as the loop would.  A child that ends
    without sending its results raises ChildProcessError.  Every child is
    reaped before the call returns or raises."""
    w = min(workers or 1, len(items), usable_cpus())
    if w < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    pids: list[int] = []
    reads: list[int] = []  # read end of each child's pipe
    running: set[int] = set()
    try:
        for k in range(1, w):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:  # the child: its share down the pipe, then out
                    code = 1
                    try:
                        os.close(read)
                        with open(write, "wb", closefd=False) as pipe:
                            pickle.dump(_share(fn, items, k, w), pipe, pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(write)
            pids.append(pid)
            running.add(pid)
        results, error = _share(fn, items, 0, w)
        shares = [results]
        for pid, read in zip(pids, reads):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.discard(pid)
            try:
                results, failed = pickle.loads(data)
            except Exception:
                raise ChildProcessError(
                    f"worker process {pid} ended with status "
                    f"{os.waitstatus_to_exitcode(status)} before sending its results") from None
            shares.append(results)
            if failed is not None and (error is None or failed[0] < error[0]):
                error = failed
        if error is not None:
            raise error[1]
    finally:
        for read in reads:
            os.close(read)
        for pid in running:  # the call is failing: stop the children left
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    out: list = [None] * len(items)
    for k, results in enumerate(shares):
        out[k::w] = results
    return out


def _map_sectors(
    ladder: Ladder,
    couplings: CouplingConfig,
    reduce: Callable[[np.ndarray], object],
    workers: int | None = None,
) -> list:
    """``reduce`` of the (len, 2N) mode energies of each chunk of
    SWEEP_CHUNK sector ids, in ascending id order.  A sector's block M is
    the all-(+1) one with the entry of each co-tree bond that its
    ``gauge_for_sector`` gauge flips negated.  Chunks run through
    ``worker_map`` on up to ``workers`` processes; results do not depend
    on their number."""
    couplings.validate_for(ladder)
    n = len(ladder.cycle_names)
    if n > MAX_SWEEP_BASIS:
        raise GuardExceededError(f"2^{n} sectors exceeds the sweep guard ({MAX_SWEEP_BASIS})")
    _check_bipartite(couplings)
    m0 = assemble_skew(ladder, couplings, GaugeConfig.all_plus(ladder)).matrix[0::2, 1::2]
    cotree, (x0, *units) = gauge_mod.cotree_flips(ladder, [0, *(1 << b for b in range(n))])
    toggles = np.array([x ^ x0 for x in units], dtype=np.int64)  # flips toggled by sid bit b
    bonds = np.arange(len(cotree))

    def run_chunk(lo: int):
        sids = np.arange(lo, min(lo + SWEEP_CHUNK, 1 << n), dtype=np.int64)
        xs = np.bitwise_xor.reduce(((sids[:, None] >> np.arange(n)) & 1) * toggles, axis=1) ^ x0
        flips = ((xs[:, None] >> bonds) & 1).astype(bool)
        return reduce(_singular_values(_flipped_blocks(m0, cotree, flips)))

    return worker_map(run_chunk, range(0, 1 << n, SWEEP_CHUNK), workers)


def sector_sweep(
    ladder: Ladder, couplings: CouplingConfig, threads: int | None = None
) -> SweepResult:
    """Ground energy of every vortex sector, sorted by (energy, sector id),
    its chunks solved on up to ``threads`` worker processes."""
    energies = np.concatenate(
        _map_sectors(ladder, couplings, lambda eps: -_mode_sum(eps), threads))
    order = np.argsort(energies, kind="stable")  # ties stay in ascending id order
    energies.sort(kind="stable")  # the same as energies[order], without a third column
    return SweepResult(ladder, order, energies)


def sector_union_spectrum(ladder: Ladder, couplings: CouplingConfig) -> np.ndarray:
    """Sorted concatenation of every sector's many-body levels: 2^(#cycles
    + 2N) of them, refused above 2^MAX_UNION_BITS before any solve."""
    bits = len(ladder.cycle_names) + ladder.n_sites // 2
    if bits > MAX_UNION_BITS:
        raise GuardExceededError(f"2^{bits} union levels exceeds the guard ({MAX_UNION_BITS})")
    parts = _map_sectors(
        ladder, couplings, lambda eps: [many_body_spectrum(e) for e in eps])
    out = np.concatenate([levels for part in parts for levels in part])
    out.sort()
    return out


# ---------------------------------------------------------------------------
# vortex patterns and gaps

def parse_pattern(ladder: Ladder, text: str) -> dict[str, int]:
    """Pattern strings like "BL", "p3", "BL+p2N", "p2N-2+p2N-1" -> -1 flips.

    "p2N", "p2N-1", ... resolve relative to the ladder width; all listed
    cycles get value -1, everything else stays +1.
    """
    import re

    flips: dict[str, int] = {}
    for token in text.replace(" ", "").split("+"):
        if not token:
            raise InconsistentSectorError(f"empty token in pattern {text!r}")
        if token.upper() == "BL" or token == "big":
            name = "big"
        else:
            m = re.fullmatch(r"p2N(?:-(\d+))?", token)
            if m:
                k = 2 * ladder.n_cells - (int(m.group(1)) if m.group(1) else 0)
                name = f"p{k}"
            elif re.fullmatch(r"p\d+", token):
                name = token
            else:
                raise InconsistentSectorError(f"unrecognized pattern token {token!r}")
        if name not in ladder.cycles:
            raise InconsistentSectorError(f"pattern cycle {name!r} not present on this ladder")
        flips[name] = -1
    return flips


def pattern_sector(ladder: Ladder, pattern: Mapping[str, int]) -> VortexSector:
    values = {name: 1 for name in ladder.cycle_names}
    for name, v in pattern.items():
        if name not in values:
            raise InconsistentSectorError(f"pattern cycle {name!r} not present on this ladder")
        if v not in (-1, 1):
            raise InconsistentSectorError(f"pattern value for {name} must be +-1")
        values[name] = v
    return VortexSector(values, gauge_mod.sector_id(ladder, values))


@dataclass(frozen=True)
class GapReport:
    """Excitation energy ``gap`` of a pattern over the vortex-free sector.

    For most patterns ``gap`` is the difference of the two sectors' ground
    energies.  For the big loop alone on a closed ladder, once the gap falls
    below the difference's noise floor ``|energy_free| * eps * 4N``, ``gap``
    is the cancellation-free ``twisted_wrap_gap`` instead.
    """

    gap: float


def _mul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of 2x2 blocks stored components-first, (2, 2, ...): two
    broadcast multiplies and one add (np.matmul on stacks of 2x2 matrices
    costs ~30 ns per block)."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _inverse_2x2(m: np.ndarray) -> np.ndarray:
    """Inverses of 2x2 blocks stored components-first, from the adjugate."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def _wrap_log_det_ratio(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log det(x + A) - log det(x + A'), one value per node x > 0.

    A is a closed ladder's skew matrix and A' is A with the block between
    rung 1 and rung 2N (the two wrap bonds) negated; rung j holds sites
    (2j-1, 2j), so A is block-tridiagonal in 2x2 blocks plus that corner.
    Cyclic reduction eliminates the interior rungs 2..2N-1: each level
    removes every other interior rung of the chain left by the level before
    (its odd positions), all rungs and nodes at once, and rungs 1 and 2N
    stay at every level, so about log2(2N) levels leave a 4x4 Schur
    complement on rungs 1 and 2N, M + W + E for A and M - W + E for A':
    M is block-diagonal, W the wrap block and E the end-to-end fill.  Each
    level's new couplings are products -U D^-1 U' of couplings and pivot
    inverses, so E is a product that involves no subtraction and is
    exponentially small in N on a gapped ladder.  Eliminating rung 1 as
    well leaves H - X for A and H + X for A' on rung 2N, with H common to
    both and X first order in E, so with L = H^-1 X the log-ratio is
    log det(1 - L) - log det(1 + L) = -2 artanh(tr L / (1 + det L)): small
    terms that keep their relative accuracy.  The symmetric part of x + A is
    x > 0 and Schur complements keep a positive definite symmetric part in
    any elimination order, so no pivot, nor H (the mean of two such
    complements), is singular.  Blocks are stored components-first,
    (2, 2, rungs, nodes).
    """
    rungs = a.shape[0] // 2
    blocks = a.reshape(rungs, 2, rungs, 2)
    k = np.arange(rungs)
    # diagonal, upper (rung k to k+1) and lower (k+1 to k) blocks of the chain
    diag = np.moveaxis(blocks[k, :, k], 0, -1)[..., None] + np.eye(2)[..., None, None] * x
    shape = (2, 2, rungs - 1, len(x))
    upper = np.broadcast_to(np.moveaxis(blocks[k[:-1], :, k[1:]], 0, -1)[..., None], shape)
    lower = np.broadcast_to(np.moveaxis(blocks[k[1:], :, k[:-1]], 0, -1)[..., None], shape)
    while diag.shape[2] > 2:
        m = diag.shape[2] - 1  # chain positions 0..m; eliminate 1, 3, .., 2q-1
        q = m // 2
        inv = _inverse_2x2(diag[:, :, 1 : 2 * q : 2])
        up_left, low_left = upper[:, :, 0 : 2 * q : 2], lower[:, :, 0 : 2 * q : 2]
        up_right, low_right = upper[:, :, 1 : 2 * q : 2], lower[:, :, 1 : 2 * q : 2]
        left = _mul_2x2(up_left, inv)  # position 2j's coupling times the pivot inverse
        right = _mul_2x2(low_right, inv)  # position 2j+2's
        kept = diag[:, :, 0 : 2 * q + 1 : 2].copy()
        kept[:, :, :-1] -= _mul_2x2(left, low_left)
        kept[:, :, 1:] -= _mul_2x2(right, up_right)
        new_upper, new_lower = -_mul_2x2(left, up_right), -_mul_2x2(right, low_left)
        if m % 2:  # the last position is kept with its coupling to position 2q
            kept = np.concatenate([kept, diag[:, :, m:]], axis=2)
            new_upper = np.concatenate([new_upper, upper[:, :, m - 1 :]], axis=2)
            new_lower = np.concatenate([new_lower, lower[:, :, m - 1 :]], axis=2)
        diag, upper, lower = kept, new_upper, new_lower
    corner, pivot = diag[:, :, 0], diag[:, :, 1]
    fill_up, fill_down = upper[:, :, 0], lower[:, :, 0]
    wrap_up = blocks[0, :, rungs - 1][..., None]
    wrap_down = blocks[rungs - 1, :, 0][..., None]
    corner_inv = _inverse_2x2(corner)
    h = (pivot - _mul_2x2(_mul_2x2(wrap_down, corner_inv), wrap_up)
         - _mul_2x2(_mul_2x2(fill_down, corner_inv), fill_up))
    l = _mul_2x2(_inverse_2x2(h), _mul_2x2(_mul_2x2(fill_down, corner_inv), wrap_up)
                 + _mul_2x2(_mul_2x2(wrap_down, corner_inv), fill_up))
    trace = l[0, 0] + l[1, 1]
    det = l[0, 0] * l[1, 1] - l[0, 1] * l[1, 0]
    return -2.0 * np.arctanh(trace / (1.0 + det))


def twisted_wrap_gap(skew: SkewAdjacency, eps: np.ndarray) -> float:
    """Ground-energy change when the wrap bonds of a closed ladder flip sign.

    ``skew`` is the matrix A of one gauge on a closed ladder and ``eps``
    its mode energies; the other sector's matrix A' has both wrap bonds (1,4N)
    and (2,4N-1) negated, which flips the big loop and nothing else.  With
    det(x + A) = prod_k (x^2 + eps_k^2) and int_0^inf log((x^2 + a^2) /
    (x^2 + b^2)) dx = pi (a - b),

        E(A') - E(A) = (1/pi) int_0^inf log[det(x + A) / det(x + A')] dx.

    The integrand comes from ``_wrap_log_det_ratio``, one cyclic reduction
    of the interior rungs for all quadrature nodes at once.  The integral is a
    trapezoid rule in s = log x from log(eps_min) - 20 to log(eps_max) + 6,
    plus x * f(x) at the lower end for the flat part below it; above the
    range the integrand falls off as x^-2N, because A and A' share every
    trace of a power below 2N.
    """
    if eps[-1] <= 0.0:
        raise MalformedMatrixError("a zero mode leaves the gap integral without a lower scale")
    lo = float(np.log(eps[-1])) - 20.0
    hi = float(np.log(eps[0])) + 6.0
    s, step = np.linspace(lo, hi, int(np.ceil((hi - lo) / GAP_LOG_STEP)) + 1, retstep=True)
    x = np.exp(s)
    f = x * _wrap_log_det_ratio(skew.matrix, x)
    trapezoid = step * (f.sum() - 0.5 * (f[0] + f[-1]))
    return float(trapezoid + f[0]) / np.pi


def big_loop_gap(
    ladder: Ladder,
    couplings: CouplingConfig,
    patterns: Sequence[Mapping[str, int] | VortexSector | str],
) -> list[GapReport]:
    """Excitation energy of each vortex pattern over the all-(+1) sector.

    A gap is the difference of the two sectors' ground energies, except for
    the big loop alone on a closed ladder: there ``twisted_wrap_gap`` is
    evaluated on the vortex-free gauge, and if it lies below the
    difference's noise floor ``|energy_free| * eps * 4N`` it is the gap and
    the big-loop sector is not solved (see ``GapReport``).

    The vortex-free sector is solved once (``gauge_for_sector``,
    ``assemble_skew``, ``mode_spectrum``).  Every pattern sector left to
    solve gets its co-tree flips from one ``gauge.cotree_flips`` call on the
    cycle system the free sector's gauge made; its block M is the free one
    with the entry of each co-tree bond the two gauges disagree on negated,
    and one stacked SVD solves them all.  The same-parity check runs first,
    before any solve.
    """
    _check_bipartite(couplings)
    free = pattern_sector(ladder, {})
    skew = assemble_skew(ladder, couplings, gauge_mod.gauge_for_sector(ladder, free))
    eps_free = mode_spectrum(skew)
    energy_free = ground_energy(eps_free)
    wrap_gap = None
    solve, gaps = [], []  # gap None: the pattern's sector is in ``solve``
    for sec in patterns:
        if isinstance(sec, str):
            sec = parse_pattern(ladder, sec)
        if not isinstance(sec, VortexSector):
            sec = pattern_sector(ladder, sec)
        flipped = {name for name, v in sec.values.items() if v == -1}
        gap = None
        if ladder.boundary is Boundary.CLOSED and flipped == {"big"}:
            if wrap_gap is None:  # inf when a zero mode leaves the integral without a scale
                wrap_gap = twisted_wrap_gap(skew, eps_free) if eps_free[-1] > 0.0 else np.inf
            if abs(wrap_gap) <= abs(energy_free) * np.finfo(float).eps * ladder.n_sites:
                gap = wrap_gap
        if gap is None:
            solve.append(sec)
        gaps.append(gap)

    if solve:
        sids = [gauge_mod.sector_id(ladder, sec.values) for sec in solve]  # validates
        cotree, (x_free, *xs) = gauge_mod.cotree_flips(ladder, [free.sector_id, *sids])
        for sec, x in zip(solve, xs):
            gauge_mod.gauge_from_flips(ladder, cotree, x, sec.values)
        flips = np.array([[((x ^ x_free) >> c) & 1 for c in range(len(cotree))] for x in xs],
                         dtype=bool)
        eps = _singular_values(_flipped_blocks(skew.matrix[0::2, 1::2], cotree, flips))
        energies = iter(-_mode_sum(eps))

    return [GapReport(float(next(energies)) - energy_free if gap is None else gap) for gap in gaps]
