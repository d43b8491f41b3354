"""The functions the benchmark in ``perfbench/`` traces and requires exist.

``perfbench/run.py`` names functions each workload must call (``EXERCISED``)
and counts calls to others (``CALLS``, ``SELF_S``); a traced run that
records no call to a required one fails.  Each name must resolve to a public
function of its ``vortexladder`` module, or to a method listed in
``perfbench/spans.py``, so a rename or deletion fails here first.  The
benchmark's own modules are only imported, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench's ``run`` and ``spans`` modules, imported under their own
    top-level names and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("run", "spans", "workloads")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    try:
        run = importlib.import_module("run")
        importlib.import_module("workloads")  # imports the library names its checks use
        yield run, sys.modules["spans"]
    finally:
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_traced_names_resolve_to_public_functions(bench):
    run, spans = bench
    names = {n for names in run.EXERCISED.values() for n in names}
    names |= set(run.CALLS) | set(run.SELF_S)
    assert set(run.EXERCISED) == {"sweep", "spin-ed", "gap-scan", "rp"}
    for name in sorted(names):
        layer, path = name.split(".", 1)
        assert layer in spans.LAYERS, name
        module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
        if "." in path:
            assert path in spans.METHODS.get(layer, ()), name
            cls_name, meth = path.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), name
        else:
            assert spans._is_public_function(getattr(module, path, None), module), name


def test_benchmark_jobs_parse_with_the_cli(bench):
    # perfbench passes --seed and --threads to every command it runs
    from vortexladder import cli

    workloads = sys.modules["workloads"]
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, 1, small=True):
            assert job.command in cli._COMMANDS, job.name
            args = parser.parse_args(job.cli_args("c.json", "o.json"))
            assert (args.command, args.seed, args.threads) == (job.command, job.seed, job.threads)


@pytest.mark.parametrize("seed", [101, 202])
def test_benchmark_job_configs_run_through_the_cli(bench, tmp_path, seed):
    """Every small job of every workload exits 0 through ``cli.main`` and
    passes its artifact check; the benchmark counts any other exit, such as
    a config key the CLI rejects, as a failed operation."""
    from vortexladder import cli

    workloads = sys.modules["workloads"]
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, seed, small=True):
            config, out = tmp_path / f"{job.name}.json", tmp_path / f"{job.name}.out"
            config.write_bytes(job.config_bytes())
            assert cli.main(job.cli_args(str(config), str(out))) == 0, (workload, job.name)
            job.check(out.read_bytes())
