"""Quadratic Majorana solver: skew assembly, mode pairing, sector sweeps."""

import itertools
import math
import os
import signal
import time

import numpy as np
import pytest

from vortexladder import freefermion
from vortexladder.errors import (
    GuardExceededError,
    InconsistentSectorError,
    InvalidSpecError,
    MalformedMatrixError,
)
from vortexladder.freefermion import (
    CouplingConfig,
    SkewAdjacency,
    assemble_skew,
    big_loop_gap,
    ground_energy,
    many_body_spectrum,
    mode_spectrum,
    parse_pattern,
    pattern_sector,
    sector_ground_energy,
    sector_sweep,
    sector_union_spectrum,
    twisted_wrap_gap,
    worker_map,
    _wrap_log_det_ratio,
)
from vortexladder.gauge import GaugeConfig, enumerate_sectors, gauge_for_sector, sector_from_id
from vortexladder.lattice import Bond, BondType, Ladder, build_ladder
from vortexladder.presets import make_couplings


def random_couplings(ladder, rng, lo=0.1, hi=2.0):
    return CouplingConfig({b.pair: float(rng.uniform(lo, hi)) for b in ladder.bonds})


def test_skew_assembly_frozen_entries():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    A = assemble_skew(lad, cc, GaugeConfig.all_plus(lad)).matrix
    assert A.shape == (8, 8)
    assert np.array_equal(A, -A.T)
    assert A[0, 1] == 1.3  # z bond (1,2)
    assert A[1, 2] == 1.0  # x bond (2,3)
    assert A[0, 3] == 0.7  # y bond (1,4)
    assert A[0, 2] == 0.0  # not a bond
    u = {b.pair: 1 for b in lad.bonds}
    u[(1, 2)] = -1
    A2 = assemble_skew(lad, cc, GaugeConfig(u)).matrix
    assert A2[0, 1] == -1.3 and A2[1, 0] == 1.3


def test_mode_spectrum_matches_hermitian_eigenvalues():
    rng = np.random.default_rng(5)
    lad = build_ladder(2, "closed")
    for _ in range(20):
        cc = random_couplings(lad, rng)
        u = {b.pair: int(rng.choice([-1, 1])) for b in lad.bonds}
        skew = assemble_skew(lad, cc, GaugeConfig(u))
        eps = mode_spectrum(skew)
        ev = np.linalg.eigvalsh(1j * skew.matrix)
        assert np.all(eps >= 0)
        # Hermitian spectrum of iA is the +-eps pairing
        paired = np.sort(np.concatenate([eps, -eps]))
        assert np.allclose(paired, ev, atol=1e-10)


def test_mode_spectrum_rejects_malformed_matrices():
    symmetric = np.zeros((4, 4))
    symmetric[0, 1] = symmetric[1, 0] = 1.0
    odd = np.zeros((3, 3))
    odd[0, 1], odd[1, 0] = 1.0, -1.0
    for matrix, message in ((np.zeros((2, 3)), "square"), (odd, "odd dimension"),
                            (symmetric, "not antisymmetric")):
        with pytest.raises(MalformedMatrixError, match=message):
            mode_spectrum(SkewAdjacency(matrix))


def test_ground_energy_is_minus_mode_sum():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    eps = mode_spectrum(assemble_skew(lad, cc, GaugeConfig.all_plus(lad)))
    assert ground_energy(eps) == pytest.approx(-float(np.sum(eps)), abs=1e-14)
    # summed in twice the working precision: a running sum drops every 2^-53
    tiny = np.array([1.0] + [2.0**-53] * 6)
    assert sum(tiny.tolist()) == float(np.sum(tiny)) == 1.0
    assert ground_energy(tiny) == -(1.0 + 3 * 2.0**-52) == -math.fsum(tiny)
    rng = np.random.default_rng(7)
    for _ in range(200):
        eps = np.sort(rng.uniform(0.0, 3.0, 16) ** 4)[::-1]
        exact = math.fsum(eps)
        assert abs(-ground_energy(eps) - exact) <= np.spacing(exact)


def _mode_sum_stacks():
    """Stacks on both sides of _mode_sum's row switch: mixed magnitudes and
    signs, cancellations and signed zeros."""
    rng = np.random.default_rng(11)

    def row(n):
        x = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-20, 20, n)
        x[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
        half = n // 2
        x[half : 2 * half : 2] = -x[: half : 2]  # terms that cancel exactly
        return x

    stacks = [row(n) for n in (1, 2, 7, 160)]
    stacks += [np.array([-0.0]), np.array([1e16, 1.0, -1e16, 2.0**-60]), np.array([-0.0, 0.0, -0.0])]
    stacks += [np.array([row(n) for _ in range(r)]) for r in (1, 2, 3) for n in (1, 14, 200)]
    switch = freefermion.SCALAR_SUM_ROWS
    stacks += [np.array([row(14) for _ in range(r)]) for r in (switch - 1, switch, switch + 1)]
    stacks.append(np.array([row(14) for _ in range(4096)]))
    stacks.append(np.array([row(6) for _ in range(6)]).reshape(2, 3, 6))
    return stacks


def test_mode_sum_loops_agree_bit_for_bit(monkeypatch):
    """The row-by-row loop (short stacks) and the column loop (long ones) of
    ``_mode_sum`` give the same bits, signed zeros included, on either side
    of the row switch."""
    for eps in _mode_sum_stacks():
        default = freefermion._mode_sum(eps)
        runs = []
        for rows in (0, 1 << 30):  # every stack by columns, then every stack by rows
            monkeypatch.setattr(freefermion, "SCALAR_SUM_ROWS", rows)
            runs.append(freefermion._mode_sum(eps))
        monkeypatch.undo()
        assert all(np.shape(r) == eps.shape[:-1] for r in (default, *runs))
        bits = [np.asarray(r, dtype=float).tobytes() for r in (default, *runs)]
        assert bits[0] == bits[1] == bits[2], eps.shape
    assert math.copysign(1.0, freefermion._mode_sum(np.array([-0.0]))) == 1.0


def _reference_check_skew(a):
    """The scale and acceptance of the two-temporary check ``_check_skew`` replaced."""
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    return scale, not np.abs(a + a.T).max(initial=0.0) > 1e-12 * scale


def test_check_skew_keeps_its_scale_and_decisions():
    def skew(n, entries):
        a = np.zeros((n, n))
        for (i, j), v in entries.items():
            a[i, j] = v
        return a

    off = 1e-12 * 2.5  # exactly the tolerance at scale 2.5
    cases = {
        "empty": np.zeros((0, 0)),
        "all-zero": np.zeros((4, 4)),
        "small": skew(4, {(0, 1): 0.5, (1, 0): -0.5}),
        "negative-side": skew(4, {(0, 1): -2.5, (1, 0): 2.5}),
        "symmetric": skew(4, {(0, 1): -2.5, (1, 0): -2.5}),
        "nan-pair": skew(4, {(0, 1): np.nan, (1, 0): np.nan}),
        "nan-one": skew(4, {(0, 1): np.nan, (2, 3): 2.0}),
        "nan-and-asymmetric": skew(4, {(0, 1): np.nan, (2, 3): 2.0, (3, 2): 1.0}),
        "inf-pair": skew(4, {(0, 1): np.inf, (1, 0): -np.inf}),
        "inf-one": skew(4, {(0, 1): np.inf}),
        "inf-negative": skew(4, {(0, 1): -np.inf, (1, 0): 1.0}),
        "off-by-tol": skew(4, {(0, 1): 2.5, (1, 0): -2.5, (2, 3): off}),
        "off-above-tol": skew(4, {(0, 1): 2.5, (1, 0): -2.5, (2, 3): np.nextafter(off, 1.0)}),
        "off-by-tol-negative": skew(4, {(0, 1): 2.5, (1, 0): -2.5, (3, 2): -off}),
        "off-by-tol-unit": skew(4, {(2, 3): 1e-12}),
        "off-above-tol-unit": skew(4, {(2, 3): np.nextafter(1e-12, 1.0)}),
    }
    decisions = {}
    for name, a in cases.items():
        with np.errstate(invalid="ignore"):  # inf + (-inf)
            scale, accepted = _reference_check_skew(a)
            decisions[name] = accepted
            if accepted:
                assert freefermion._check_skew(a) == scale, name
            else:
                with pytest.raises(MalformedMatrixError, match="not antisymmetric"):
                    freefermion._check_skew(a)
    # a NaN or an infinite entry makes the comparison with the tolerance false
    assert {name for name, ok in decisions.items() if not ok} == {
        "symmetric", "off-above-tol", "off-above-tol-unit"}


def test_many_body_spectrum_is_all_sign_choices():
    eps = np.array([0.3, 1.1, 2.0])
    got = np.sort(many_body_spectrum(eps))
    want = np.sort(
        [sum(s * e for s, e in zip(signs, eps)) for signs in itertools.product((-1, 1), repeat=3)]
    )
    assert got.shape == (8,)
    assert np.allclose(got, want, atol=1e-14)
    with pytest.raises(GuardExceededError):
        many_body_spectrum(np.ones(25))


def test_sector_sweep_agrees_with_per_sector_solves():
    rng = np.random.default_rng(17)
    lad = build_ladder(2, "closed")
    cc = random_couplings(lad, rng)
    sweep = sector_sweep(lad, cc)
    direct = {sec.sector_id: sector_ground_energy(lad, cc, sec) for sec in enumerate_sectors(lad)}
    # materialized reference: one row per sector, sorted by (energy, sector id)
    want = sorted((e, sid) for sid, e in direct.items())
    assert len(sweep.rows) == 32
    assert [(r.energy, r.sector.sector_id) for r in sweep.rows] == want
    assert list(zip(sweep.energies.tolist(), sweep.sector_ids.tolist())) == want
    for row in sweep.rows:
        assert row.sector == sector_from_id(lad, row.sector.sector_id)
    for sid, energy in direct.items():
        row = sweep.row_for(sid)
        assert row.sector.sector_id == sid and row.energy == energy  # same kernel, same bits
    assert sweep.argmin is sweep.rows[0] is sweep.row_for(want[0][1])
    assert sweep.rows[-1].sector.sector_id == want[-1][1]
    assert [r.sector.sector_id for r in sweep.rows[1:4]] == [sid for _, sid in want[1:4]]
    with pytest.raises(IndexError):
        sweep.rows[32]
    for bad in (99, 32, -1, 1.5, "3"):
        with pytest.raises(KeyError):
            sweep.row_for(bad)


def test_sector_sweep_threading_is_deterministic():
    rng = np.random.default_rng(23)
    lad = build_ladder(6, "closed")  # 2^13 sectors: two chunks
    cc = random_couplings(lad, rng)
    serial = sector_sweep(lad, cc, threads=None)
    threaded = sector_sweep(lad, cc, threads=2)
    assert [r.sector.sector_id for r in serial.rows] == [
        r.sector.sector_id for r in threaded.rows
    ]
    assert np.array_equal(
        np.array([r.energy for r in serial.rows]),
        np.array([r.energy for r in threaded.rows]),
    )


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` makes during the test."""
    made, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return made


@pytest.fixture
def deadline():
    """A test that waits more than 60 s fails instead of hanging the suite
    (a forked child does not inherit the alarm)."""
    def expire(signum, frame):
        raise TimeoutError("the test waited more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no such child: it was waited for
            os.waitpid(pid, os.WNOHANG)


def test_sweep_worker_count_is_capped(monkeypatch, forks):
    """The chunks run on min(threads, #chunks, usable CPUs) processes: the
    caller and one forked child per worker beyond it."""
    rng = np.random.default_rng(37)
    wide = build_ladder(6, "closed")  # 2^13 sectors: two chunks
    narrow = build_ladder(3, "closed")  # 2^7 sectors: one chunk
    cases = [  # ladder, threads, CPUs, workers
        (wide, 10**6, 64, 2),
        (wide, 10**6, 1, 1),
        (wide, 2, 64, 2),
        (wide, 1, 64, 1),
        (wide, None, 64, 1),
        (narrow, 10**6, 64, 1),
    ]
    for lad, threads, cpus, want in cases:
        cc = random_couplings(lad, rng)
        serial = sector_sweep(lad, cc)
        forks.clear()
        monkeypatch.setattr(freefermion, "usable_cpus", lambda: cpus)
        got = sector_sweep(lad, cc, threads=threads)
        assert 1 + len(forks) == want, (lad.n_cells, threads, cpus)
        assert_reaped(forks)
        assert np.array_equal(got.sector_ids, serial.sector_ids)
        assert np.array_equal(got.energies, serial.energies)


def test_worker_map_keeps_item_order(monkeypatch, forks, deadline):
    """The caller works items 0, w, 2w, ... and each child its own share;
    the results come back in item order."""
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)
    got = worker_map(lambda x: (x * x, os.getpid()), range(10), 3)
    assert [value for value, _ in got] == [x * x for x in range(10)]
    pids = [pid for _, pid in got]
    assert pids[0::3] == [os.getpid()] * 4
    assert pids[1::3] == [forks[0]] * 3 and pids[2::3] == [forks[1]] * 3
    assert_reaped(forks)
    assert worker_map(lambda x: x, [], 3) == []


def test_worker_map_without_fork_is_the_plain_loop(monkeypatch):
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork")
    assert worker_map(lambda x: (x, os.getpid()), range(5), 3) == [(x, os.getpid()) for x in range(5)]


@pytest.mark.parametrize("failing, first", [
    ((4, 5), 4),  # two children: the first child's item
    ((5, 7), 5),  # two items of two children: the second child's is earlier
    ((2, 3), 2),  # a child's item before the caller's
    ((3, 5), 3),  # the caller's item before a child's
])
def test_worker_map_raises_the_earliest_error(monkeypatch, forks, deadline, failing, first):
    """Shares of 9 items on 3 workers: caller 0, 3, 6; children 1, 4, 7 and
    2, 5, 8.  Whichever shares fail, the error is the serial loop's."""
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)

    def fn(x):
        if x in failing:
            raise InconsistentSectorError(f"item {x}")
        return x

    with pytest.raises(InconsistentSectorError, match=f"^item {first}$"):
        [fn(x) for x in range(9)]
    with pytest.raises(InconsistentSectorError, match=f"^item {first}$"):
        worker_map(fn, range(9), 3)
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.parametrize("end, status", [("exit", "7"), ("signal", "-9")])
def test_worker_map_fails_when_a_child_sends_no_results(monkeypatch, forks, deadline, end,
                                                       status):
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)
    caller = os.getpid()

    def fn(x):
        if x == 4 and os.getpid() != caller:
            if end == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(ChildProcessError, match=f"ended with status {status} before"):
        worker_map(fn, range(9), 3)
    assert len(forks) == 2
    assert_reaped(forks)


def test_worker_map_stops_its_children_when_the_caller_is_interrupted(monkeypatch, forks,
                                                                     deadline):
    """An interrupt in the caller's share kills the children rather than
    waiting for them (each would sleep past the deadline)."""
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(600)

    with pytest.raises(KeyboardInterrupt):
        worker_map(fn, range(2), 2)
    assert len(forks) == 1
    assert_reaped(forks)


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    """The worker count follows the CPUs this process may run on
    (``taskset`` narrows them below ``os.cpu_count()``), else the machine's
    count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert freefermion.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert freefermion.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert freefermion.usable_cpus() == 1


def test_batched_sector_gauges_match_gauge_for_sector(monkeypatch):
    svd = np.linalg.svd
    stacks = []

    def recording_svd(a, *args, **kwargs):
        stacks.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rng = np.random.default_rng(29)
    for n, bnd in itertools.product((2, 3, 4), ("open", "closed")):
        lad = build_ladder(n, bnd)
        cc = random_couplings(lad, rng)  # nonzero, so each matrix pins its gauge
        sector_sweep(lad, cc)  # at most 2^9 sectors: one chunk, in id order
        (stack,) = stacks
        stacks.clear()
        assert len(stack) == 1 << len(lad.cycle_names)
        for sid, matrix in enumerate(stack):
            g = gauge_for_sector(lad, sector_from_id(lad, sid))
            block = assemble_skew(lad, cc, g).matrix[0::2, 1::2]
            assert np.array_equal(matrix, block), (n, bnd, sid)


def test_every_ladder_bond_joins_an_odd_and_an_even_site():
    for n, bnd in itertools.product(range(2, 21), ("open", "closed")):
        assert all((b.i + b.j) % 2 == 1 for b in build_ladder(n, bnd).bonds), (n, bnd)


def test_structure_check_trips_before_any_solve(monkeypatch):
    lad = build_ladder(2, "open")
    bonds = tuple(sorted(lad.bonds + (Bond(1, 3, BondType.X),)))  # two odd sites
    bad = Ladder(lad.n_cells, lad.boundary, bonds, lad.cycles)
    cc = CouplingConfig({b.pair: 1.0 for b in bonds})

    def no_svd(*args, **kwargs):
        raise AssertionError("a sector was solved before the structure check")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for solve in (sector_sweep, sector_union_spectrum):
        with pytest.raises(MalformedMatrixError, match="same parity"):
            solve(bad, cc)
    with pytest.raises(MalformedMatrixError, match="same parity"):
        big_loop_gap(bad, cc, ["p1", "p2+p3"])


def test_block_energies_match_full_matrix_spectrum():
    rng = np.random.default_rng(31)
    for n, bnd in itertools.product((2, 3, 4), ("open", "closed")):
        lad = build_ladder(n, bnd)
        cc = random_couplings(lad, rng, lo=-2.0, hi=2.0)
        sweep = sector_sweep(lad, cc)
        union = sector_union_spectrum(lad, cc)
        levels = []
        for sec in enumerate_sectors(lad):
            skew = assemble_skew(lad, cc, gauge_for_sector(lad, sec))
            full = np.linalg.svd(skew.matrix, compute_uv=False)[0::2]  # the whole 4N x 4N A
            eps = mode_spectrum(skew)
            assert eps.shape == full.shape
            assert np.allclose(eps, full, rtol=0, atol=1e-13 * full[0]), (n, bnd, sec)
            energy = sweep.row_for(sec.sector_id).energy
            assert energy == pytest.approx(-full.sum(), rel=1e-13, abs=0)
            levels.append(many_body_spectrum(full))
        want = np.sort(np.concatenate(levels))
        assert union.shape == want.shape
        assert np.abs(union - want).max() <= 1e-12 * np.abs(want).max(), (n, bnd)


def test_sweep_guard_on_wide_ladders():
    lad = build_ladder(16, "closed")  # 33 cycles > default guard
    cc = CouplingConfig.homogeneous(lad, 1.0, 1.0, 1.0)
    with pytest.raises(GuardExceededError):
        sector_sweep(lad, cc)


def test_positive_couplings_minimize_in_vortex_free_sector():
    for n, bnd in ((2, "open"), (3, "open"), (2, "closed"), (3, "closed")):
        lad = build_ladder(n, bnd)
        cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
        assert sector_sweep(lad, cc).argmin.sector.sector_id == 0


def test_union_spectrum_shape_and_order():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)
    union = sector_union_spectrum(lad, cc)
    assert union.shape == (8 * 16,)  # 2^3 sectors x 2^4 levels
    assert np.all(np.diff(union) >= 0)


def test_union_expansion_guard_trips_before_any_solve(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("a sector was solved before the guard")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    # open N=13: 26 modes, above the expansion guard, 2^51 union levels; open
    # N=8: 16 modes and 15 cycles pass both factor guards, but 2^31 levels
    for cells, bits in ((13, 51), (8, 31)):
        lad = build_ladder(cells, "open")
        with pytest.raises(GuardExceededError, match=f"2\\^{bits} union levels"):
            sector_union_spectrum(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))


def test_union_guard_admits_its_cap(monkeypatch):
    """The guard counts 2^(#cycles + 2N) levels: with the cap at 2^11, open
    N=3 (5 cycles, 6 modes) runs and closed N=3 (7 cycles) does not."""
    monkeypatch.setattr(freefermion, "MAX_UNION_BITS", 11)
    lad = build_ladder(3, "open")
    assert sector_union_spectrum(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3)).shape == (2 ** 11,)
    lad = build_ladder(3, "closed")
    with pytest.raises(GuardExceededError):
        sector_union_spectrum(lad, CouplingConfig.homogeneous(lad, 1.0, 0.7, 1.3))


def test_parse_pattern_tokens():
    ring = build_ladder(3, "closed")
    assert parse_pattern(ring, "BL") == {"big": -1}
    assert parse_pattern(ring, "big") == {"big": -1}
    assert parse_pattern(ring, "p2N") == {"p6": -1}
    assert parse_pattern(ring, "p2N-1") == {"p5": -1}
    assert parse_pattern(ring, "p2N-5") == {"p1": -1}
    assert parse_pattern(ring, "p1 + p4 + BL") == {"p1": -1, "p4": -1, "big": -1}
    open_lad = build_ladder(2, "open")
    assert parse_pattern(open_lad, "p3") == {"p3": -1}
    for bad in ("BL", "p4", "p0", "q1", "p1++p2", ""):
        with pytest.raises(InconsistentSectorError):
            parse_pattern(open_lad, bad)


def test_pattern_sector_values():
    ring = build_ladder(2, "closed")
    sec = pattern_sector(ring, parse_pattern(ring, "p2+BL"))
    assert sec.values == {"p1": 1, "p2": -1, "p3": 1, "p4": 1, "big": -1}
    with pytest.raises(InconsistentSectorError):
        pattern_sector(ring, {"p9": -1})
    with pytest.raises(InconsistentSectorError):
        pattern_sector(ring, {"p1": 0})


def test_big_loop_gap_report():
    ring = build_ladder(3, "closed")
    cc = make_couplings("decaying-top-closed", ring, jx=1.0, jy=0.2, jz=2.0)
    rep = big_loop_gap(ring, cc, ["BL"])[0]
    big, free = pattern_sector(ring, {"big": -1}), pattern_sector(ring, {})
    assert rep.gap == sector_ground_energy(ring, cc, big) - sector_ground_energy(ring, cc, free)
    assert rep.gap > 0
    # string, mapping and sector input forms agree
    assert big_loop_gap(ring, cc, [{"big": -1}])[0] == rep
    assert big_loop_gap(ring, cc, [big])[0] == rep
    # one call per ladder: each report equals the one from its own call
    reports = big_loop_gap(ring, cc, ["p2", big, "BL+p2N"])
    for r, pattern in zip(reports, ["p2", "BL", "BL+p2N"]):
        assert r == big_loop_gap(ring, cc, [pattern])[0]


def _reference_reports(ladder, cc, patterns):
    """What ``big_loop_gap`` must report, from one sector solve per pattern."""
    free = pattern_sector(ladder, {})
    skew = assemble_skew(ladder, cc, gauge_for_sector(ladder, free))
    eps_free = mode_spectrum(skew)
    energy_free = sector_ground_energy(ladder, cc, free)
    floor = abs(energy_free) * np.finfo(float).eps * ladder.n_sites
    out = []
    for text in patterns:
        sec = pattern_sector(ladder, parse_pattern(ladder, text))
        flipped = {name for name, v in sec.values.items() if v == -1}
        if ladder.boundary.value == "closed" and flipped == {"big"}:
            wrap = twisted_wrap_gap(skew, eps_free)
            if abs(wrap) <= floor:
                out.append(("twisted", wrap))
                continue
        out.append(("difference", sector_ground_energy(ladder, cc, sec) - energy_free))
    return out


def test_stacked_pattern_solve_equals_per_sector_solves():
    rng = np.random.default_rng(43)
    cases = []
    for n, bnd in itertools.product(range(2, 9), ("open", "closed")):
        lad = build_ladder(n, bnd)
        multi = ["p1+p2N-1", "p2+p3", "p1+p2+p3"] + (["BL", "BL+p2N", "BL+p1+p3"]
                                                      if bnd == "closed" else [])
        for _ in range(3):
            cases.append((lad, random_couplings(lad, rng, lo=-2.0, hi=2.0), ["p1", *multi]))
    for n in (20, 24):  # below the noise floor, "BL" takes the twisted wrap gap
        ring, cc = _decaying_ring(n)
        cases.append((ring, cc, ["p3", "BL", "BL+p2N", "BL"]))
    kinds = set()
    for lad, cc, patterns in cases:
        reports = big_loop_gap(lad, cc, patterns)
        assert len(reports) == len(patterns)
        for rep, pattern, (kind, gap) in zip(
                reports, patterns, _reference_reports(lad, cc, patterns)):
            kinds.add(kind)
            assert rep.gap == gap, (lad.n_cells, lad.boundary, pattern)
    assert kinds == {"difference", "twisted"}


def test_big_loop_gap_solves_a_ladder_once(monkeypatch):
    """Per ladder: one spanning tree (its cycle system), shared by the free
    sector's ``gauge_for_sector`` and the patterns' flips, and at most two
    SVD calls (the free sector, then the stacked patterns)."""
    from vortexladder import gauge as gauge_mod

    calls = {"svd": 0, "spanning_cotree": 0, "gauge_for_sector": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    patterns = ["BL", "p3", "BL+p2N"]
    rings = [build_ladder(n, "closed") for n in (4, 5)]
    couplings = [make_couplings("decaying-top-closed", r, jx=1.0, jy=0.2, jz=2.0) for r in rings]
    # the reference solves run on equal ladders built again, which get their own systems
    want = [[gap for _, gap in _reference_reports(build_ladder(r.n_cells, "closed"), cc, patterns)]
            for r, cc in zip(rings, couplings)]
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for name in ("spanning_cotree", "gauge_for_sector"):
        monkeypatch.setattr(gauge_mod, name, counting(name, getattr(gauge_mod, name)))
    for ring, cc, gaps in zip(rings, couplings, want):
        for name in calls:
            calls[name] = 0
        reports = big_loop_gap(ring, cc, patterns)
        assert [r.gap for r in reports] == gaps
        assert calls["spanning_cotree"] == 1, calls
        assert calls["gauge_for_sector"] >= 1 and calls["svd"] <= 2, calls


def _decaying_ring(n):
    ring = build_ladder(n, "closed")
    return ring, make_couplings("decaying-top-closed", ring, jx=1.0, jy=0.2, jz=2.0)


def test_twisted_wrap_gap_matches_resolved_difference():
    for n in range(4, 11):
        ring, cc = _decaying_ring(n)
        free = pattern_sector(ring, {})
        skew = assemble_skew(ring, cc, gauge_for_sector(ring, free))
        twisted = twisted_wrap_gap(skew, mode_spectrum(skew))
        rep = big_loop_gap(ring, cc, ["BL"])[0]
        # above the noise floor the report keeps the plain difference
        big = pattern_sector(ring, {"big": -1})
        diff = sector_ground_energy(ring, cc, big) - sector_ground_energy(ring, cc, free)
        assert rep.gap == diff
        assert twisted == pytest.approx(diff, rel=1e-8, abs=0)


def _sequential_wrap_log_det_ratio(a, x):
    """Oracle: the rung-by-rung elimination that cyclic reduction replaced,
    in the (nodes, 2, 2) block layout and with ``np.matmul``."""
    rungs = a.shape[0] // 2

    def block(i, j):
        return a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]

    def inverse(m):
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        return m[:, ::-1, ::-1].transpose(0, 2, 1) * [[1.0, -1.0], [-1.0, 1.0]] / det[:, None, None]

    shift = x[:, None, None] * np.eye(2)
    corner = shift + block(0, 0)
    pivot = shift + block(1, 1)
    left = np.empty(x.shape + (4, 2))
    right = np.empty(x.shape + (2, 4))
    left[:, :2] = block(0, 1)
    right[:, :, 2:] = block(1, 0)
    for j in range(1, rungs - 1):
        left[:, 2:] = block(j + 1, j)
        right[:, :, :2] = block(j, j + 1)
        prod = left @ (inverse(pivot) @ right)
        corner -= prod[:, :2, 2:]
        pivot = shift + block(j + 1, j + 1) - prod[:, 2:, :2]
        left[:, :2] = -prod[:, :2, :2]
        right[:, :, 2:] = -prod[:, 2:, 2:]
    fill_up, fill_down = left[:, :2], right[:, :, 2:]
    wrap_up, wrap_down = block(0, rungs - 1), block(rungs - 1, 0)
    corner_inv = inverse(corner)
    h = pivot - wrap_down @ corner_inv @ wrap_up - fill_down @ corner_inv @ fill_up
    l = inverse(h) @ (fill_down @ corner_inv @ wrap_up + wrap_down @ corner_inv @ fill_up)
    trace = l[:, 0, 0] + l[:, 1, 1]
    det = l[:, 0, 0] * l[:, 1, 1] - l[:, 0, 1] * l[:, 1, 0]
    return -2.0 * np.arctanh(trace / (1.0 + det))


def _gap_nodes(eps):
    """The quadrature nodes x of ``twisted_wrap_gap`` for mode energies eps."""
    lo, hi = np.log(eps.min()) - 20.0, np.log(eps.max()) + 6.0
    return np.exp(np.linspace(lo, hi, int(np.ceil((hi - lo) / 0.25)) + 1))


def _assert_integrands_agree(a, x):
    want = _sequential_wrap_log_det_ratio(a, x)
    got = _wrap_log_det_ratio(a, x)
    assert np.all(np.isfinite(want))
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


def test_cyclic_reduction_matches_sequential_elimination():
    rng = np.random.default_rng(59)
    for n in [*range(2, 13), 50]:
        ring = build_ladder(n, "closed")
        for _ in range(3 if n < 50 else 1):
            cc = random_couplings(ring, rng, lo=-2.0, hi=2.0)
            sid = int("".join(map(str, rng.integers(0, 2, len(ring.cycle_names)))), 2)
            skew = assemble_skew(ring, cc, gauge_for_sector(ring, sector_from_id(ring, sid)))
            _assert_integrands_agree(skew.matrix, _gap_nodes(mode_spectrum(skew)))


def test_cyclic_reduction_on_every_chain_length():
    # bipartite block-tridiagonal skew matrices plus a corner block, like a
    # ladder's, with odd and even numbers of interior rungs (a ladder has 2N - 2)
    rng = np.random.default_rng(61)
    for rungs in [*range(3, 16), 101]:
        a = np.zeros((2 * rungs, 2 * rungs))
        for i in range(rungs):
            j = (i + 1) % rungs
            a[2 * i, 2 * j + 1], a[2 * i + 1, 2 * j] = rng.uniform(-2.0, 2.0, 2)
            a[2 * i, 2 * i + 1] = rng.uniform(-2.0, 2.0)
        a -= a.T
        _assert_integrands_agree(a, _gap_nodes(np.abs(np.linalg.eigvals(a))))


def _bipartite_ground_energy(ring, cc, sector, mpmath):
    """-sum of singular values of the sublattice block, at mpmath's precision."""
    a = assemble_skew(ring, cc, gauge_for_sector(ring, sector)).matrix
    sub_a = [k for k in range(ring.n_sites) if k % 4 in (0, 2)]
    sub_b = [k for k in range(ring.n_sites) if k % 4 in (1, 3)]
    assert not a[np.ix_(sub_a, sub_a)].any() and not a[np.ix_(sub_b, sub_b)].any()
    block = mpmath.matrix(a[np.ix_(sub_a, sub_b)].tolist())
    return -mpmath.fsum(mpmath.svd_r(block, compute_uv=False))


def _check_gap_against_high_precision(n, reference):
    mpmath = pytest.importorskip("mpmath")
    ring, cc = _decaying_ring(n)
    rep = big_loop_gap(ring, cc, ["BL"])[0]
    with mpmath.workdps(45):
        want = float(
            _bipartite_ground_energy(ring, cc, pattern_sector(ring, {"big": -1}), mpmath)
            - _bipartite_ground_energy(ring, cc, pattern_sector(ring, {}), mpmath)
        )
    assert want == pytest.approx(reference, rel=1e-10)
    assert rep.gap == pytest.approx(want, rel=1e-8, abs=0)


def test_big_loop_gap_below_noise_floor_matches_high_precision():
    _check_gap_against_high_precision(20, 3.45822244228e-13)


def test_big_loop_gap_at_n30_matches_high_precision():
    # six orders of magnitude below the N = 20 gap, 1e5 below its noise floor
    _check_gap_against_high_precision(30, 1.27034645959e-19)


def _bloch_energy(n, phi, jx, jy, jz):
    """Minus the sum of the singular values of the Bloch block
    M(k) = [[jz, jx + jy e^{ik}], [jy + jx e^{-ik}, -jz]] over
    k = 2 pi (m + phi) / n, m = 0..n-1."""
    k = 2 * np.pi * (np.arange(n) + phi) / n
    m = np.empty((n, 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = jz, -jz
    m[:, 0, 1] = jx + jy * np.exp(1j * k)
    m[:, 1, 0] = jy + jx * np.exp(-1j * k)
    return -float(np.linalg.svd(m, compute_uv=False).sum())


def test_homogeneous_rings_match_their_bloch_sums():
    """A homogeneous ring is translation invariant, so a sector with every
    plaquette +1 has the Bloch sum of M(k) as its ground energy, with the
    twist phi = 0 or 1/2 set by the big loop's value v.  Which twist is
    which is read off at every N = 2..8, not assumed: each sector matches
    one twist and not the other, and e^{2 pi i phi} = (-1)^(N+1) v, so the
    vortex-free sector takes phi = 0 on odd N and 1/2 on even N.  At closed
    N = 3, 5 and 8 the sweep's minimum is the vortex-free Bloch sum, and
    ``big_loop_gap`` is the difference of the two Bloch sums."""
    jx, jy, jz = 1.0, 0.2, 2.0
    for n in range(2, 9):
        ring = build_ladder(n, "closed")
        cc = make_couplings("homogeneous-xyz", ring, jx=jx, jy=jy, jz=jz)
        bloch = {v: _bloch_energy(n, 0.0 if (-1) ** (n + 1) * v == 1 else 0.5, jx, jy, jz)
                 for v in (1, -1)}
        for v, other in ((1, -1), (-1, 1)):
            energy = sector_ground_energy(ring, cc, pattern_sector(ring, {"big": v}))
            ulps = 4 * np.spacing(abs(energy))
            assert abs(energy - bloch[v]) <= ulps, (n, v)
            assert abs(energy - bloch[other]) > 1000 * ulps, (n, v)  # the twists are resolved
        if n in (3, 5, 8):
            e_min = sector_sweep(ring, cc).energies[0]
            assert abs(e_min - bloch[1]) <= 4 * np.spacing(abs(e_min)), n
            gap = big_loop_gap(ring, cc, ["BL"])[0].gap
            assert abs(gap - (bloch[-1] - bloch[1])) <= 1e-13, n


def test_coupling_validation():
    lad = build_ladder(2, "open")
    cc = CouplingConfig.homogeneous(lad, 1.0, 2.0, 3.0)
    cc.validate_for(lad)
    by_kind = {b.pair: b.kind for b in lad.bonds}
    assert all(
        cc.values[p] == {BondType.X: 1.0, BondType.Y: 2.0, BondType.Z: 3.0}[k]
        for p, k in by_kind.items()
    )
    missing = dict(cc.values)
    missing.pop((1, 2))
    with pytest.raises(InvalidSpecError):
        CouplingConfig(missing).validate_for(lad)
    extra = dict(cc.values)
    extra[(1, 3)] = 1.0
    with pytest.raises(InvalidSpecError):
        CouplingConfig(extra).validate_for(lad)
    bad = dict(cc.values)
    bad[(1, 2)] = float("nan")
    with pytest.raises(InvalidSpecError):
        CouplingConfig(bad).validate_for(lad)
    # zero and negative couplings are legal inputs
    signed = dict(cc.values)
    signed[(1, 2)] = -1.0
    signed[(2, 3)] = 0.0
    CouplingConfig(signed).validate_for(lad)


def test_sector_energy_uses_gauge_representative():
    # energy must be a function of the sector, not of the particular gauge
    rng = np.random.default_rng(41)
    lad = build_ladder(2, "closed")
    cc = random_couplings(lad, rng)
    for sec in list(enumerate_sectors(lad))[:8]:
        g = gauge_for_sector(lad, sec)
        e_direct = ground_energy(mode_spectrum(assemble_skew(lad, cc, g)))
        assert sector_ground_energy(lad, cc, sec) == pytest.approx(e_direct, abs=1e-12)
