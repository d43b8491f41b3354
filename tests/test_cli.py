"""End-to-end command-line checks: schemas, determinism, exit codes."""

import ctypes
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexladder import cli, freefermion, rp
from vortexladder.errors import ConvergenceError, InvalidSpecError, MalformedMatrixError
from vortexladder.lattice import build_ladder

HOMOG = {"preset": "homogeneous-xyz", "jx": 1.1, "jy": 0.7, "jz": 1.3}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(*argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "vortexladder", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_spectrum_spin_dense_csv_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG,
         "method": "spin-dense"},
    )
    out = tmp_path / "artifacts" / "spec.csv"
    proc = run_cli("spectrum", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert not [p for p in out.parent.iterdir() if p.name.startswith(".tmp-")]
    text = out.read_text()
    assert text.endswith("\n") and "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "eigenvalue" and len(lines) == 1 + 256
    values = [float(s) for s in lines[1:]]
    assert values == sorted(values)
    assert values[0] == pytest.approx(-6.7452749199784563, abs=1e-9)
    # 17 significant digits: every printed value round-trips exactly
    assert all(format(float(s), ".17g") == s for s in lines[1:])


def test_spectrum_fermion_sector_json(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG,
         "method": "fermion", "sector": "p1"},
    )
    out = tmp_path / "spec.json"
    proc = run_cli("spectrum", "--config", cfg, "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["method"] == "fermion"
    assert doc["sector"] == {"p1": -1, "p2": 1, "p3": 1}
    assert len(doc["eigenvalues"]) == 16  # 2^(4 modes)

    del doc  # union over all sectors when no sector is given
    cfg2 = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG,
         "method": "fermion"},
        name="union.json",
    )
    proc = run_cli("spectrum", "--config", cfg2, "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["sector"] is None
    assert len(doc["eigenvalues"]) == 8 * 16
    assert doc["eigenvalues"] == sorted(doc["eigenvalues"])


def test_spectrum_spin_iterative_json(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG,
         "method": "spin-iterative", "k": 4, "seed": 5},
    )
    out = tmp_path / "it.json"
    proc = run_cli("spectrum", "--config", cfg, "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["method"] == "spin-iterative" and len(doc["eigenvalues"]) == 4
    assert doc["eigenvalues"][0] == pytest.approx(-6.7452749199784563, abs=1e-7)


def test_sweep_json_and_csv(tmp_path):
    conf = {
        "ladder": {"cells": 2, "boundary": "open"},
        "couplings": {"preset": "homogeneous-xyz", "jx": 0.9, "jy": 0.9, "jz": 1.3},
    }
    cfg = write_config(tmp_path, conf)
    out = tmp_path / "sweep.json"
    proc = run_cli("sweep", "--config", cfg, "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["cycles"] == ["p1", "p2", "p3"]
    assert len(doc["rows"]) == 8
    assert doc["argmin_sector"] == 0
    assert doc["tie_sector_ids"] == [0]
    # |J| is mirror symmetric both ways when jx == jy
    assert doc["reflection_symmetric_cases"] == ["horizontal", "vertical-open"]
    energies = [r["ground_energy"] for r in doc["rows"]]
    assert energies == sorted(energies)
    assert doc["rows"][0]["values"] == {"p1": 1, "p2": 1, "p3": 1}

    csv_out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", "--config", cfg, "--out", str(csv_out))
    assert proc.returncode == 0, proc.stderr
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "sector_id,p1,p2,p3,ground_energy,is_argmin"
    data = [l.split(",") for l in lines[1:9]]
    assert [row[-1] for row in data].count("1") == 1 and data[0][-1] == "1"
    assert data[0][:4] == ["0", "1", "1", "1"]
    assert lines[9] == "# argmin_sector,0"
    assert lines[10] == "# tie_count,1"
    assert lines[11] == "# reflection_symmetric_cases,horizontal|vertical-open"


def test_sweep_all_zero_couplings_ties_every_sector(tmp_path):
    bonds = {f"{b.i}-{b.j}": 0.0 for b in build_ladder(2, "closed").bonds}
    cfg = write_config(tmp_path, {"ladder": {"cells": 2, "boundary": "closed"},
                                  "couplings": {"bonds": bonds}})
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 32 and all(row[-1] == "1" for row in rows)
    assert "# tie_count,32" in lines


def _row_sweep_text(result, ladder, couplings, fmt):
    """The row-by-row sweep formatter that the columnar one replaced."""
    e_min = result.argmin.energy
    tie_ids = [
        row.sector.sector_id
        for row in result.rows
        if abs(row.energy - e_min) <= 1e-12 * max(1.0, abs(e_min))
    ]
    ties = set(tie_ids)
    cases = cli._symmetric_cases(ladder, couplings)
    names = list(ladder.cycle_names)
    if fmt == "json":
        return cli._json_text({
            "cycles": names,
            "rows": [
                {
                    "sector_id": row.sector.sector_id,
                    "values": {k: int(v) for k, v in row.sector.values.items()},
                    "ground_energy": row.energy,
                }
                for row in result.rows
            ],
            "argmin_sector": result.argmin.sector.sector_id,
            "tie_sector_ids": tie_ids,
            "reflection_symmetric_cases": cases,
        })
    header = ["sector_id", *names, "ground_energy", "is_argmin"]
    rows = [
        [
            str(row.sector.sector_id),
            *(str(row.sector.values[n]) for n in names),
            cli._g17(row.energy),
            "1" if row.sector.sector_id in ties else "0",
        ]
        for row in result.rows
    ]
    footer = [
        f"# argmin_sector,{result.argmin.sector.sector_id}",
        f"# tie_count,{len(tie_ids)}",
        "# reflection_symmetric_cases," + "|".join(cases),
    ]
    return cli._csv_text(header, rows, footer)


@pytest.mark.parametrize("case", ["signed", "one-zero-bond", "all-zero"])
def test_sweep_columns_format_like_rows(tmp_path, monkeypatch, case):
    ladder = build_ladder(3, "closed")
    rng = np.random.default_rng(61)
    bonds = {f"{b.i}-{b.j}": float(rng.uniform(-1.5, 1.5)) for b in ladder.bonds}
    if case == "one-zero-bond":  # each sector ties with the one that flips u on it
        bonds["2-3"] = 0.0
    elif case == "all-zero":
        bonds = dict.fromkeys(bonds, 0.0)
    cfg = write_config(tmp_path, {"ladder": {"cells": 3, "boundary": "closed"},
                                  "couplings": {"bonds": bonds}})
    calls = []
    sweep = freefermion.sector_sweep

    def recording_sweep(*args, **kwargs):
        calls.append((args, sweep(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(freefermion, "sector_sweep", recording_sweep)
    ties = {"signed": 1, "one-zero-bond": 2, "all-zero": 128}[case]
    for fmt in ("csv", "json"):
        out = tmp_path / f"sweep.{fmt}"
        assert cli.main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        ((lad, couplings), result), = calls
        calls.clear()
        assert out.read_text() == _row_sweep_text(result, lad, couplings, fmt)
    assert len(json.loads(out.read_text())["tie_sector_ids"]) == ties


@pytest.mark.parametrize("cells", [2, 3])
def test_chunked_sweep_csv_equals_a_plain_join(tmp_path, capsys, monkeypatch, cells):
    """The CSV comes in pieces of SWEEP_PIECE_ROWS rows with cycle values from two
    half-width tables; the bytes equal one join of every row, in a file and
    on stdout, whether the chunk divides the row count or not."""
    ladder = build_ladder(cells, "closed")
    rng = np.random.default_rng(67 + cells)
    bonds = {f"{b.i}-{b.j}": float(rng.uniform(-1.5, 1.5)) for b in ladder.bonds}
    cfg = write_config(tmp_path, {"ladder": {"cells": cells, "boundary": "closed"},
                                  "couplings": {"bonds": bonds}})
    calls = []
    sweep = freefermion.sector_sweep

    def recording_sweep(*args, **kwargs):
        calls.append((args, sweep(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(freefermion, "sector_sweep", recording_sweep)
    rows = 1 << len(ladder.cycle_names)
    for chunk in (3, 8, rows, 4 * rows):
        monkeypatch.setattr(cli, "SWEEP_PIECE_ROWS", chunk)
        out = tmp_path / f"sweep-{chunk}.csv"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["sweep", "--config", cfg]) == 0
        (lad, couplings), result = calls[0]
        want = _row_sweep_text(result, lad, couplings, "csv")
        assert out.read_text() == want
        assert capsys.readouterr().out == want
        calls.clear()


@pytest.mark.parametrize("cells", [2, 3])
def test_chunked_sweep_json_equals_one_dump(tmp_path, capsys, monkeypatch, cells):
    """The JSON rows are made SWEEP_PIECE_ROWS at a time as they are written;
    the bytes equal one ``json.dumps`` of every row, in a file and on stdout."""
    ladder = build_ladder(cells, "closed")
    rng = np.random.default_rng(71 + cells)
    bonds = {f"{b.i}-{b.j}": float(rng.uniform(-1.5, 1.5)) for b in ladder.bonds}
    cfg = write_config(tmp_path, {"ladder": {"cells": cells, "boundary": "closed"},
                                  "couplings": {"bonds": bonds}})
    calls = []
    sweep = freefermion.sector_sweep

    def recording_sweep(*args, **kwargs):
        calls.append((args, sweep(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(freefermion, "sector_sweep", recording_sweep)
    rows = 1 << len(ladder.cycle_names)
    for chunk in (3, rows, 4 * rows):
        monkeypatch.setattr(cli, "SWEEP_PIECE_ROWS", chunk)
        out = tmp_path / f"sweep-{chunk}.json"
        assert cli.main(["sweep", "--config", cfg, "--format", "json", "--out", str(out)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--format", "json"]) == 0
        (lad, couplings), result = calls[0]
        want = _row_sweep_text(result, lad, couplings, "json")
        assert out.read_text() == want
        assert capsys.readouterr().out == want
        calls.clear()


def test_lazy_json_arrays_are_made_as_they_are_written():
    """``_json_pieces`` writes the bytes of ``_json_text``, and takes each item
    of a ``_LazyArray`` only after every item before it is written."""
    made = []

    def items(n):
        for k in range(n):
            made.append(k)
            yield {"k": k, "v": [k / 3, None, "s"]}

    for n in (0, 1, 5):
        made.clear()
        text = ""
        for piece in cli._json_pieces({"b": cli._LazyArray(items(n), n), "a": [1.5, {}]}):
            assert len(made) <= text.count('"k"') + 1, (n, text)
            text += piece
        assert made == list(range(n))
        want = {"b": [{"k": k, "v": [k / 3, None, "s"]} for k in range(n)], "a": [1.5, {}]}
        assert text == cli._json_text(want)


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_sweep_csv_pieces_on_even_and_odd_cycle_counts(n, monkeypatch):
    names = [f"c{k}" for k in range(n)]
    ids = np.random.default_rng(n).permutation(1 << n)
    energies = -np.arange(1 << n, dtype=float) / 3
    for piece, ties in itertools.product((3, cli.SWEEP_PIECE_ROWS), {0, 1, 4, (1 << n) - 1, 1 << n}):
        monkeypatch.setattr(cli, "SWEEP_PIECE_ROWS", piece)
        want = ["sector_id," + ",".join(names) + ",ground_energy,is_argmin"]
        for row, (sid, energy) in enumerate(zip(ids.tolist(), energies.tolist())):
            values = ["-1" if (sid >> (n - 1 - k)) & 1 else "1" for k in range(n)]
            want.append(",".join([str(sid), *values, cli._g17(energy), "1" if row < ties else "0"]))
        want.append("# end")
        pieces = list(cli._sweep_csv(names, ids, energies, ties, ["# end"]))  # first `ties` flagged
        assert "".join(pieces) == "\n".join(want) + "\n"
        assert len(pieces) == 2 + -(-(1 << n) // piece)


@pytest.mark.parametrize("e_min", [-3.0, -0.25, 0.0, 2.5, -7.3e5, -1.5e15])
def test_sweep_ties_are_the_prefix_the_mask_found(e_min):
    """``_tie_count`` finds by bisection the prefix of sorted energies that the
    sweep's former mask ``|E - E_min| <= 1e-12 max(1, |E_min|)`` flags, with
    values one ulp either side of the tolerance among them."""
    tol = 1e-12 * max(1.0, abs(e_min))
    near = [e_min + tol]  # the edge, and three ulps either side of it
    for _ in range(3):
        near = [np.nextafter(near[0], -np.inf), *near, np.nextafter(near[-1], np.inf)]
    cases = [[e_min], [e_min] * 5, [e_min] * 3 + [e_min + 4 * tol], [e_min, *near, e_min + 2 * tol]]
    cases += [[e_min, e_min, x, x, e_min + 4 * tol] for x in near]
    flagged = []
    for case in cases:
        energies = np.array(case)
        mask = np.abs(energies - e_min) <= tol
        ties = cli._tie_count(energies)
        assert mask[:ties].all() and not mask[ties:].any(), case
        flagged.append(ties)
    assert flagged[:3] == [1, 5, 3]
    assert 1 < flagged[3] < len(cases[3]) - 1  # the edge falls inside the seven values
    assert {flagged[k] for k in range(4, len(cases))} == {2, 4}


def test_gap_scan_summary(tmp_path):
    conf = {
        "ladder": {"boundary": "closed"},
        "cells_range": [4, 8],
        "couplings": {"preset": "decaying-top-closed", "jx": 1.0, "jy": 0.2, "jz": 2.0},
    }
    cfg = write_config(tmp_path, conf)
    out = tmp_path / "scan.json"
    proc = run_cli("gap-scan", "--config", cfg, "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["cells"] == [4, 5, 6, 7, 8]
    gaps = [r["gap"] for r in doc["rows"] if r["pattern"] == "BL"]
    assert len(gaps) == 5 and all(g > 0 for g in gaps)
    assert doc["bl_summary"]["strictly_decreasing"] is True
    assert doc["bl_summary"]["log_slope"] < 0

    csv_out = tmp_path / "scan.csv"
    proc = run_cli("gap-scan", "--config", cfg, "--out", str(csv_out))
    assert proc.returncode == 0, proc.stderr
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "cells,pattern,gap"
    assert "# bl_strictly_decreasing,true" in lines
    assert any(l.startswith("# bl_log_slope,") for l in lines)
    assert any(l.startswith("# bl_log_r2,") for l in lines)


SCAN = {
    "ladder": {"boundary": "closed"},
    "cells_range": [4, 12],
    "patterns": ["BL", "BL+p2N", "p2N-1+p2N"],
    "couplings": {"preset": "decaying-top-closed", "jx": 1.0, "jy": 0.2, "jz": 2.0},
}


def test_gap_scan_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    """1, 2 and 3 worker processes write the same CSV and JSON bytes."""
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)
    cfg = write_config(tmp_path, SCAN)
    for fmt in ("csv", "json"):
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"scan-{threads}.{fmt}"
            assert cli.main(["gap-scan", "--config", cfg, "--format", fmt, "--threads", threads,
                             "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], fmt


def test_failing_gap_scan_reports_the_first_failing_n(tmp_path, capsys, monkeypatch):
    """Failures at N=6 and N=7, in different workers' shares, give the
    serial run's exit code and message whatever the worker count."""
    monkeypatch.setattr(freefermion, "usable_cpus", lambda: 3)
    solve = freefermion.big_loop_gap

    def failing(ladder, couplings, patterns):
        if ladder.n_cells in (6, 7):
            raise MalformedMatrixError(f"no solve at {ladder.n_cells}")
        return solve(ladder, couplings, patterns)

    monkeypatch.setattr(cli.freefermion, "big_loop_gap", failing)
    cfg = write_config(tmp_path, SCAN)
    out = tmp_path / "scan.csv"
    for threads in ("1", "2", "3"):
        assert cli.main(["gap-scan", "--config", cfg, "--threads", threads, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: config.couplings: at N=6: no solve at 6\n"
        assert not out.exists()


def test_compare_dense_both_boundaries(tmp_path):
    open_cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG},
        name="open.json",
    )
    out = tmp_path / "cmp.json"
    proc = run_cli("compare", "--config", open_cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["method"] == "dense"
    assert doc["spectra_equal"] is True and doc["ground_equal"] is True

    closed_cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "closed"}, "couplings": HOMOG},
        name="closed.json",
    )
    proc = run_cli("compare", "--config", closed_cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["spectra_equal"] is False and doc["ground_equal"] is True
    assert len(doc["comparison"]["only_b"]) == 70


def test_compare_ground_only_path(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 4, "boundary": "open"}, "couplings": HOMOG, "seed": 3},
    )
    out = tmp_path / "cmp4.json"
    proc = run_cli("compare", "--config", cfg, "--threads", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["method"] == "ground-only"
    assert doc["spectra_equal"] is None
    assert doc["ground_equal"] is True
    assert abs(doc["spin_ground"] - doc["fermion_ground"]) <= 1e-8


def test_perturb_row_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 2, "boundary": "open"}, "jx": 1.0, "t": 0.04, "seed": 7},
    )
    out = tmp_path / "pert.json"
    proc = run_cli("perturb", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"boundary", "cells", "e0_formula", "e2_formula",
                        "e_free_exact", "rows"}
    assert doc["e0_formula"] == -3.0
    assert [r["plaquette"] for r in doc["rows"]] == ["p1", "p2", "p3"]
    for row in doc["rows"]:
        assert set(row) == {"plaquette", "delta_e_formula", "delta_e_exact",
                            "abs_err", "rel_err", "scale"}
        assert row["scale"] == pytest.approx(0.04)
        assert row["delta_e_exact"] > 0


def test_perturb_csv_blank_cells_for_missing_formula(tmp_path):
    cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 3, "boundary": "closed"}, "jx": 1.0, "t": 0.05, "seed": 7},
    )
    out = tmp_path / "pert.csv"
    proc = run_cli("perturb", "--config", cfg, "--format", "csv", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "plaquette,delta_e_formula,delta_e_exact,abs_err,rel_err,scale"
    assert len(lines) == 1 + 6
    p6 = lines[6].split(",")
    # no printed formula for the plaquette that the expansion does not cover
    assert p6[0] == "p6" and p6[1] == "" and p6[3] == "" and p6[4] == ""
    assert float(p6[2]) > 0 and float(p6[5]) == 0.05


def test_perturb_needs_no_seed(tmp_path):
    cfg = write_config(tmp_path, {"ladder": {"cells": 2, "boundary": "open"}, "jx": 1.0, "t": 0.04})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["perturb", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["perturb", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rp_verify_modes(tmp_path):
    verify_cfg = write_config(
        tmp_path,
        {"majoranas": 8, "samples": 25, "mode": "verify", "seed": 13},
        name="verify.json",
    )
    out = tmp_path / "rp.json"
    proc = run_cli("rp-verify", "--config", verify_cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"samples", "min_functional", "trace_margin",
                        "energy_gap", "verdict"}
    assert doc["verdict"] == "pass"
    assert doc["min_functional"] >= -1e-10
    assert doc["energy_gap"] == 0.0  # symmetric bulk saturates the bound

    violate_cfg = write_config(
        tmp_path,
        {"majoranas": 8, "samples": 50, "mode": "violate", "seed": 13},
        name="violate.json",
    )
    proc = run_cli("rp-verify", "--config", violate_cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass" and doc["min_functional"] < -1e-6


def _brute_force_min(doc):
    """Every (sample, beta) pair through rp_functional, as cmd_rp_verify once did."""
    conf = cli.Conf(doc)
    n, samples, max_degree = doc["majoranas"], doc["samples"], doc.get("max_degree", 4)
    betas = doc.get("betas", [0.5, 1.0, 2.0])
    rng = np.random.default_rng(doc["seed"])
    theta = rp.mirror_theta(n)
    H = rp.quadratic(n, cli._rp_weights(conf, rng, n, doc["mode"], doc["bulk"]))
    h1, _ = rp.doubled_hamiltonians(*rp.split_by_side(H), theta)
    target = H if doc["bulk"] == "symmetric" else h1
    min_functional = None
    for _ in range(samples):
        B = rp.random_even_element(rng, n, max_degree=max_degree)
        for beta in betas:
            val = rp.rp_functional(B, target, theta, beta=beta)
            if min_functional is None or val < min_functional:
                min_functional = val
    return min_functional


def _count_rp_functional(monkeypatch):
    calls = []
    real = rp.rp_functional

    def counted(B, H, theta, beta=1.0):
        calls.append(real(B, H, theta, beta=beta))
        return calls[-1]

    monkeypatch.setattr(rp, "rp_functional", counted)
    return calls


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("mode", ["verify", "violate"])
@pytest.mark.parametrize("bulk", ["symmetric", "asymmetric"])
def test_rp_verify_min_functional_is_the_exact_minimum(tmp_path, monkeypatch, n, mode, bulk):
    doc = {"majoranas": n, "samples": 12, "mode": mode, "bulk": bulk, "seed": 17 + n}
    want = _brute_force_min(doc)
    calls = _count_rp_functional(monkeypatch)
    out = tmp_path / "rp.json"
    assert cli.main(["rp-verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_functional"] == want
    assert calls == [want]  # the screen leaves one pair of 36 to rp_functional


def test_rp_verify_evaluates_every_tied_candidate(tmp_path, monkeypatch):
    doc = {"majoranas": 8, "samples": 6, "mode": "violate", "bulk": "asymmetric", "seed": 3}
    out = tmp_path / "rp.json"
    assert cli.main(["rp-verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    want = json.loads(out.read_text())["min_functional"]

    real, drawn = rp.random_even_element, []

    def each_sample_twice(rng, n, max_degree=4):
        if len(drawn) % 2 == 0:
            drawn.append(real(rng, n, max_degree=max_degree))
        else:
            drawn.append(rp.MajoranaPolynomial(n, drawn[-1].terms))
        return drawn[-1]

    monkeypatch.setattr(rp, "random_even_element", each_sample_twice)
    calls = _count_rp_functional(monkeypatch)
    doubled = write_config(tmp_path, {**doc, "samples": 12}, name="doubled.json")
    assert cli.main(["rp-verify", "--config", doubled, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["min_functional"] == want
    assert calls == [want, want]


def test_min_functional_checks(monkeypatch):
    n = 8
    theta = rp.mirror_theta(n)
    h = rp.quadratic(n, {(1, 2): 0.5, (7, 8): 0.5, (1, 8): 1.0, (2, 7): 0.8, (3, 6): 0.6,
                         (4, 5): 0.9})
    samples = [rp.random_even_element(np.random.default_rng(k), n) for k in range(3)]
    assert cli._min_functional(samples, h, theta, [1.0], 4) == min(
        rp.rp_functional(b, h, theta) for b in samples)
    with pytest.raises(InvalidSpecError):  # a term outside the degree-2 monomials
        cli._min_functional(samples, h, theta, [1.0], 2)
    # a near-tie closer than rounding: both pairs go to rp_functional
    calls = _count_rp_functional(monkeypatch)
    nudged = {mono: c * (1 + 2.0 ** -48) for mono, c in samples[0].terms.items()}
    near = [samples[0], rp.MajoranaPolynomial(n, nudged)]
    assert cli._min_functional(near, h, theta, [1.0], 4) == min(calls) and len(calls) == 2
    real = rp.reflection_gram
    monkeypatch.setattr(rp, "reflection_gram", lambda *args: 1j * real(*args))
    with pytest.raises(MalformedMatrixError):
        cli._min_functional(samples, h, theta, [1.0], 4)


def test_unknown_config_keys_are_config_errors(tmp_path, capsys):
    """A key the command never asks about exits 2 naming its path, after the
    run and before anything is written."""
    out = tmp_path / "out.txt"
    perturb = {"ladder": {"cells": 2}, "seed": 1, "jx": 1.0, "t": 0.01}
    scan = {"ladder": {"boundary": "closed"}, "cells_range": [4, 5],
            "couplings": {"preset": "decaying-top-closed"}}
    cases = [
        ("perturb", {**perturb, "ratio_guard": float("nan"), "tpyo": 3},
         "config.ratio_guard: unknown key; config.tpyo: unknown key"),
        ("perturb", {**perturb, "jy": 0.02}, "config.jy: unknown key"),  # "t" wins
        ("gap-scan", {**scan, "ladder": {"boundary": "closed", "cells": 4}},
         "config.ladder.cells: unknown key"),  # the range gives the cells
        ("spectrum", {"ladder": {"cells": 2}, "couplings": {**HOMOG, "bonds": {"1-2": 1.0}},
                      "method": "fermion"}, "config.couplings.bonds: unknown key"),
        ("spectrum", {"ladder": {"cells": 2}, "couplings": HOMOG, "method": "spin-dense",
                      "k": 3}, "config.k: unknown key"),
    ]
    for command, doc, message in cases:
        assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert f"config error: {message}\n" == capsys.readouterr().err
        assert not out.exists()
    # seed, threads and tol are accepted by every command, as their flags are
    doc = {"ladder": {"cells": 2}, "couplings": HOMOG, "method": "fermion",
           "seed": 1, "threads": 1, "tol": 1e-8}
    assert cli.main(["spectrum", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert cli.main(["perturb", "--config", write_config(tmp_path, perturb), "--seed", "2"]) == 0


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, {"majoranas": 8, "samples": 10, "seed": 11})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("rp-verify", "--config", cfg, "--out", str(a)).returncode == 0
    assert run_cli("rp-verify", "--config", cfg, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()

    sweep_cfg = write_config(
        tmp_path,
        {"ladder": {"cells": 3, "boundary": "closed"}, "couplings": HOMOG},
        name="sweep.json",
    )
    assert run_cli("sweep", "--config", sweep_cfg, "--threads", "1",
                   "--out", str(a)).returncode == 0
    assert run_cli("sweep", "--config", sweep_cfg, "--threads", "2",
                   "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_ladder_guard_precedes_build_ladder(tmp_path, capsys, monkeypatch):
    built = []

    def recorder(cells, boundary="open"):
        assert cells <= freefermion.MAX_SCAN_CELLS, "build_ladder called past the guard"
        built.append(cells)
        return build_ladder(cells, boundary)

    monkeypatch.setattr(cli, "build_ladder", recorder)
    for cells in (10**9, freefermion.MAX_SCAN_CELLS + 1):
        doc = {"ladder": {"cells": cells, "boundary": "closed"}, "couplings": HOMOG}
        assert cli.main(["sweep", "--config", write_config(tmp_path, doc)]) == 3
        assert "guard exceeded" in capsys.readouterr().err
    assert built == []
    # at the guard the ladder is built and the sweep's own guard refuses it
    doc = {"ladder": {"cells": freefermion.MAX_SCAN_CELLS, "boundary": "closed"}, "couplings": HOMOG}
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc)]) == 3
    assert built == [freefermion.MAX_SCAN_CELLS]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli.main(["spectrum"]) == 2  # --config required
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["spectrum", "--config", str(bad)]) == 2

    wrong_type = write_config(
        tmp_path,
        {"ladder": {"cells": "two"}, "couplings": HOMOG, "method": "spin-dense"},
        name="type.json",
    )
    assert cli.main(["spectrum", "--config", wrong_type]) == 2

    no_seed = write_config(
        tmp_path,
        {"ladder": {"cells": 2}, "couplings": HOMOG, "method": "spin-iterative", "k": 2},
        name="noseed.json",
    )
    assert cli.main(["spectrum", "--config", no_seed]) == 2

    too_big = write_config(
        tmp_path,
        {"ladder": {"cells": 4}, "couplings": HOMOG, "method": "spin-dense"},
        name="big.json",
    )
    out = tmp_path / "never" / "out.csv"
    assert cli.main(["spectrum", "--config", too_big, "--out", str(out)]) == 3
    assert "guard exceeded" in capsys.readouterr().err
    assert not out.exists()  # failure leaves no artifact behind

    many_k = write_config(
        tmp_path,
        {"ladder": {"cells": 2}, "couplings": HOMOG, "method": "spin-iterative", "k": 65, "seed": 1},
        name="manyk.json",
    )
    assert cli.main(["spectrum", "--config", many_k]) == 3  # k above 64 is a size guard
    assert "guard exceeded" in capsys.readouterr().err

    scan = write_config(
        tmp_path,
        {"ladder": {"boundary": "closed"}, "cells_range": [4, 101],
         "couplings": {"preset": "decaying-top-closed"}},
        name="scan.json",
    )
    assert cli.main(["gap-scan", "--config", scan]) == 3
    # the guard reads the range's end before listing it: no overflow, no giant list
    for last in (1e300, 1e8):
        doc = {"ladder": {"boundary": "closed"}, "cells_range": [2, last],
               "couplings": {"preset": "decaying-top-closed"}}
        assert cli.main(["gap-scan", "--config", write_config(tmp_path, doc)]) == 3
        assert "guard exceeded" in capsys.readouterr().err
    for key, value in (("cells_step", 0), ("cells_range", [1, 3])):
        doc = {"ladder": {"boundary": "closed"}, "cells_range": [4, 6],
               "couplings": {"preset": "decaying-top-closed"}, key: value}
        assert cli.main(["gap-scan", "--config", write_config(tmp_path, doc)]) == 2
        assert f"config.{key}" in capsys.readouterr().err
    # a repeated pattern would get two gaps per N in the BL summary
    twice = {"ladder": {"boundary": "closed"}, "cells_range": [4, 8], "patterns": ["BL", "BL"],
             "couplings": {"preset": "decaying-top-closed", "jx": 1.0, "jy": 0.2, "jz": 2.0}}
    def no_solve(*args, **kwargs):
        raise AssertionError("a repeated pattern must be rejected before any solve")

    with monkeypatch.context() as m:
        m.setattr(cli.freefermion, "big_loop_gap", no_solve)
        assert cli.main(["gap-scan", "--config", write_config(tmp_path, twice)]) == 2
    assert "config.patterns" in capsys.readouterr().err

    # a uniform "t" is validated like "jy"/"jz": bad values are config errors
    for split in ({"jx": 1.0, "t": -0.01}, {"jx": 0.0, "t": 0.01}, {"jx": 1.0, "t": float("nan")}):
        doc = {"ladder": {"cells": 2}, "seed": 1, **split}
        assert cli.main(["perturb", "--config", write_config(tmp_path, doc)]) == 2
        assert "config" in capsys.readouterr().err
    # a config error from a key read passes through with its own path, once
    nan_t = {"ladder": {"cells": 2}, "seed": 1, "jx": 1.0, "t": float("nan")}
    assert cli.main(["perturb", "--config", write_config(tmp_path, nan_t)]) == 2
    err = capsys.readouterr().err
    assert "config.t" in err and "config: config." not in err

    def boom(conf, args):
        raise ConvergenceError("iteration stalled")

    monkeypatch.setitem(cli._COMMANDS, "compare", (boom, "json"))
    ok = write_config(tmp_path, {"ladder": {"cells": 2}}, name="ok.json")
    assert cli.main(["compare", "--config", ok]) == 4
    assert "convergence failure" in capsys.readouterr().err


# size guards: exit 3, "guard exceeded", no artifact (the spin spectrum and gap-scan
# guards, and the ladder guard, are checked in test_exit_codes and
# test_ladder_guard_precedes_build_ladder)
GUARDED = {
    "rp-samples": ("rp-verify", {"majoranas": 16, "samples": cli.MAX_RP_SAMPLES + 1, "seed": 1}),
    "rp-betas": ("rp-verify", {"majoranas": 16, "samples": 1, "seed": 1,
                               "betas": [1.0] * (cli.MAX_RP_BETAS + 1)}),
    # 15 cycles and 16 modes pass their own guards; the union holds 2^31 levels
    "union": ("spectrum", {"ladder": {"cells": 8, "boundary": "open"}, "couplings": HOMOG,
                           "method": "fermion"}),
    # 29 cycles: the 2^29 sectors' columns alone would fill more than the machine
    "sweep": ("sweep", {"ladder": {"cells": 14, "boundary": "closed"}, "couplings": HOMOG}),
}


@pytest.mark.parametrize("case", sorted(GUARDED))
def test_size_guards_exit_3_and_write_nothing(tmp_path, capsys, monkeypatch, case):
    def no_draw(*args, **kwargs):
        raise AssertionError("rp-verify drew before its guards")

    def no_solve(*args, **kwargs):
        raise AssertionError("a sector was solved before the guards")

    monkeypatch.setattr(cli, "_rp_weights", no_draw)
    monkeypatch.setattr(cli.rp, "random_even_element", no_draw)
    monkeypatch.setattr(np.linalg, "svd", no_solve)
    command, doc = GUARDED[case]
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    assert "guard exceeded" in capsys.readouterr().err
    assert not out.exists()


def test_rp_verify_runs_at_its_guards(tmp_path):
    doc = {"majoranas": 2, "samples": cli.MAX_RP_SAMPLES, "seed": 1,
           "betas": [0.5 + k / 64 for k in range(cli.MAX_RP_BETAS)]}
    out = tmp_path / "rp.json"
    assert cli.main(["rp-verify", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["samples"] == cli.MAX_RP_SAMPLES


NON_FINITE = {
    "gap-scan-inf": ("gap-scan", '{"ladder": {"boundary": "closed"}, "cells_range": [4, Infinity], '
                     '"couplings": {"preset": "decaying-top-closed"}}', []),
    "gap-scan-nan": ("gap-scan", '{"ladder": {"boundary": "closed"}, "cells_range": [NaN, 5], '
                     '"couplings": {"preset": "decaying-top-closed"}}', []),
    "rp-nan": ("rp-verify", '{"majoranas": 4, "samples": 2, "seed": 1, "betas": [NaN]}', []),
    "rp-inf": ("rp-verify", '{"majoranas": 4, "samples": 2, "seed": 1, "betas": [Infinity]}', []),
    "rp-1e999": ("rp-verify", '{"majoranas": 4, "samples": 2, "seed": 1, "betas": [1e999]}', []),
    "rp-negative-degree": ("rp-verify", '{"majoranas": 8, "samples": 3, "seed": 1, "max_degree": -2}',
                           []),
    "rp-huge-cross-weight": ("rp-verify", '{"majoranas": 8, "samples": 5, "seed": 3, '
                             '"cross_weights": [1e300, 1, 1, 1]}', []),
    # e^{-beta H} would overflow: beta |E0| is about 2.1e3 at beta = 400, and 1e3 at
    # the default beta = 1 with a cross weight of 1e3
    "rp-gibbs-overflow-beta": ("rp-verify", '{"majoranas": 8, "samples": 3, "seed": 3, "betas": [400]}',
                               []),
    "rp-gibbs-overflow-weight": ("rp-verify", '{"majoranas": 8, "samples": 5, "seed": 3, '
                                 '"cross_weights": [1e3, 1, 1, 1]}', []),
    "perturb-closed-n2": ("perturb", '{"ladder": {"cells": 2, "boundary": "closed"}, "jx": 1.0, '
                          '"t": 0.02}', []),
    "perturb-huge-int": ("perturb", '{"ladder": {"cells": 2}, "seed": 1, "jx": 1' + "0" * 400
                         + ', "t": 0.01}', []),
    "perturb-digit-limit": ("perturb", '{"ladder": {"cells": 2}, "seed": 1, "jx": 1' + "0" * 5000
                            + ', "t": 0.01}', []),
    "compare-tol-nan": ("compare", '{"ladder": {"cells": 2}, "couplings": {"preset": "homogeneous-xyz"}, '
                        '"tol": NaN}', []),
    "compare-tol-negative": ("compare", '{"ladder": {"cells": 2}, "couplings": '
                             '{"preset": "homogeneous-xyz"}, "tol": -1}', []),
    "compare-flag-negative": ("compare", '{"ladder": {"cells": 2}, "couplings": '
                              '{"preset": "homogeneous-xyz"}}', ["--tolerance", "-1"]),
    "compare-flag-nan": ("compare", '{"ladder": {"cells": 2}, "couplings": '
                         '{"preset": "homogeneous-xyz"}}', ["--tolerance", "nan"]),
    "spectrum-k-zero": ("spectrum", '{"ladder": {"cells": 2}, "couplings": {"preset": '
                        '"homogeneous-xyz"}, "method": "spin-iterative", "k": 0, "seed": 1}', []),
    "spectrum-k-negative": ("spectrum", '{"ladder": {"cells": 2}, "couplings": {"preset": '
                            '"homogeneous-xyz"}, "method": "spin-iterative", "k": -3, "seed": 1}',
                            []),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_and_negative_values_are_config_errors(tmp_path, capsys, case):
    command, text, flags = NON_FINITE[case]
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    path = {"rp-huge-cross-weight": "config.cross_weights", "rp-gibbs-overflow-beta": "config.betas",
            "rp-gibbs-overflow-weight": "config.betas", "perturb-closed-n2": "config.ladder",
            "spectrum-k-zero": "config.k", "spectrum-k-negative": "config.k"}
    if case in path:
        assert path[case] in err
    assert not out.exists()


def _failing_solve(ladder, couplings, patterns):
    raise MalformedMatrixError(f"no solve at {ladder.n_cells}")


# every place a command turns a library error into a config error that names a
# config path: command, config, the exact start of the message ("scan-solve"
# stubs the gap solve to fail)
SCAN_DOC = {"ladder": {"boundary": "closed"}, "cells_range": [4, 5],
            "couplings": {"preset": "decaying-top-closed"}}
CONFIG_ERROR_SITES = {
    "ladder": ("sweep", {"ladder": {"cells": 1}, "couplings": HOMOG}, "config.ladder: "),
    "couplings-preset": ("spectrum", {"ladder": {"cells": 2}, "method": "fermion",
                                      "couplings": {"preset": "homogeneous-xyz", "jx": 0}},
                         "config.couplings: "),
    "couplings-bonds": ("spectrum", {"ladder": {"cells": 2}, "method": "fermion",
                                     "couplings": {"bonds": {"1-2": 1.0}}},
                        "config.couplings.bonds: "),
    "sector": ("spectrum", {"ladder": {"cells": 2}, "couplings": HOMOG, "method": "fermion",
                            "sector": "p99"}, "config.sector: "),
    "scan-pattern": ("gap-scan", {**SCAN_DOC, "patterns": ["BL", "p99"]},
                     "config.patterns: 'p99' at N=4: "),
    "scan-solve": ("gap-scan", SCAN_DOC, "config.couplings: at N=4: no solve at 4"),
    "split": ("perturb", {"ladder": {"cells": 2}, "jx": 1.0, "t": -0.01}, "config: "),
    "perturb-ring": ("perturb", {"ladder": {"cells": 2, "boundary": "closed"}, "jx": 1.0,
                                 "t": 0.02}, "config.ladder: "),
    "rp-weights": ("rp-verify", {"majoranas": 8, "samples": 5, "seed": 3,
                                 "cross_weights": [1e300, 1, 1, 1]}, "config.cross_weights: "),
    "rp-trace-bound": ("rp-verify", {"majoranas": 8, "samples": 3, "seed": 3, "betas": [400]},
                       "config.betas: "),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERROR_SITES))
def test_library_errors_name_their_config_path(tmp_path, capsys, monkeypatch, case):
    command, doc, prefix = CONFIG_ERROR_SITES[case]
    if case == "scan-solve":
        monkeypatch.setattr(cli.freefermion, "big_loop_gap", _failing_solve)
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}"), err
    assert not err[len(f"config error: {prefix}"):].startswith("config"), err  # wrapped once
    assert not out.exists()


def test_cli_import_loads_no_scipy():
    code = ("import sys, vortexladder.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_open_compare_loads_no_scipy(tmp_path):
    cfg = write_config(tmp_path, {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG})
    code = ("import sys; from vortexladder import cli; "
            f"code = cli.main(['compare', '--config', {cfg!r}, '--out', {str(tmp_path / 'c.json')!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def _python_json(code, env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_process_starts_numpy_blas_on_one_thread():
    """A process that imports the CLI before numpy starts numpy's OpenBLAS on
    one thread and keeps the caller's OPENBLAS_NUM_THREADS; in one that
    imported numpy first, the count is a plain numpy process's."""
    read = ("import json, os, vortexladder.cli as cli; "
            "print(json.dumps([[get() for path, (get, _) in cli._loaded_blas().items() "
            "if 'numpy.libs' in path], os.environ.get('OPENBLAS_NUM_THREADS')]))")
    plain = ("import ctypes, json, os, pathlib, numpy; "
             "libs = pathlib.Path(numpy.__file__).resolve().parent.parent / 'numpy.libs'; "
             "paths = sorted(libs.glob('*openblas*')); "
             "lib = paths and ctypes.CDLL(str(paths[0]), mode=os.RTLD_NOLOAD); "
             "print(json.dumps(lib and lib.scipy_openblas_get_num_threads64_()))")
    for value in (None, "3"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if value is not None:
            env["OPENBLAS_NUM_THREADS"] = value
        numpy_own = _python_json(plain, env)
        if not numpy_own:
            pytest.skip("numpy bundles no OpenBLAS")
        assert _python_json(read, env) == [[1], value]
        assert _python_json("import numpy; " + read, env) == [[numpy_own], value]


_RECORD_MALLOPT = """
import ctypes, json
calls = []

class CDLL(ctypes.CDLL):
    def __getattr__(self, name):
        fn = super().__getattr__(name)
        if name != "mallopt":
            return fn

        def mallopt(*args):
            calls.append(args)
            return fn(*args)
        return mallopt

ctypes.CDLL = CDLL
"""


def test_cli_process_keeps_its_freed_heap():
    """A process that imports the CLI before numpy sets glibc's mmap
    threshold to 4 MiB and its trim threshold to 64 MiB, once; one that
    imported numpy first keeps its allocator as it was."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("the C library has no mallopt")
    read = "import vortexladder.cli; print(json.dumps(calls))"
    assert _python_json(_RECORD_MALLOPT + read, None) == [[-3, 4 << 20], [-1, 64 << 20]]
    assert _python_json(_RECORD_MALLOPT + "import numpy; " + read, None) == []


def test_lanczos_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The Lanczos paths (16 spins) write the same bytes whatever
    OPENBLAS_NUM_THREADS the caller set: commands run BLAS on one thread."""
    closed = {"ladder": {"cells": 4, "boundary": "closed"}, "couplings": HOMOG, "seed": 3}
    configs = {
        "compare": write_config(tmp_path, closed),
        "spectrum": write_config(tmp_path, {**closed, "method": "spin-iterative", "k": 4},
                                 name="iterative.json"),
    }
    for command, cfg in configs.items():
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}.json"
            proc = run_cli(command, "--config", cfg, "--format", "json", "--out", str(out),
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], command


def _loaded_openblas():
    """(get, set) thread-count functions of the loaded OpenBLAS builds
    bundled with numpy and scipy, by file name, found independently of
    ``cli._loaded_blas``."""
    found = {}
    for package, symbol in (("numpy", "scipy_openblas_{}_num_threads64_"),
                            ("scipy", "scipy_openblas_{}_num_threads")):
        root = Path(importlib.util.find_spec(package).origin).resolve().parent.parent
        for path in root.glob(f"{package}.libs/*openblas*"):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            except (OSError, AttributeError):  # not loaded, or no RTLD_NOLOAD here
                continue
            get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found[path.name] = (get, set_)
    return found


def _blas_counts():
    return {name: get() for name, (get, _) in _loaded_openblas().items()}


def test_commands_restore_the_callers_blas_threads(tmp_path, monkeypatch):
    """In-process, a command runs on one BLAS thread with
    OPENBLAS_NUM_THREADS=1, and leaves every loaded OpenBLAS and the
    variable as it found them, on success and on a config error.  A library
    the command loads (scipy's, when no earlier test loaded it) gets the
    count the loaded ones had."""
    original = _blas_counts()
    if not original:
        pytest.skip("no bundled OpenBLAS is loaded")
    during = []
    spectrum, fmt = cli._COMMANDS["spectrum"]

    def recording(conf, args):
        try:
            return spectrum(conf, args)
        finally:
            during.append((os.environ.get("OPENBLAS_NUM_THREADS"), _blas_counts()))

    monkeypatch.setitem(cli._COMMANDS, "spectrum", (recording, fmt))
    doc = {"ladder": {"cells": 2, "boundary": "open"}, "couplings": HOMOG,
           "method": "spin-iterative", "seed": 1}
    ok = write_config(tmp_path, {**doc, "k": 2})
    bad = write_config(tmp_path, {**doc, "k": 0}, name="bad.json")  # exit 2 inside the command
    try:
        for env in (None, "3"):
            if env is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
            for cfg, code in ((ok, 0), (bad, 2)):
                for _, set_ in _loaded_openblas().values():
                    set_(2)
                assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == code
                assert os.environ.get("OPENBLAS_NUM_THREADS") == env
                counts = _blas_counts()
                assert counts == dict.fromkeys(counts, 2)
                assert during.pop() == ("1", dict.fromkeys(counts, 1))
    finally:
        fallback = next(iter(original.values()))
        for name, (_, set_) in _loaded_openblas().items():
            set_(original.get(name, fallback))
