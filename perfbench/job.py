"""Run one vortexladder CLI command as ``python -m vortexladder`` would.

    python3 perfbench/job.py STAMP TRACE JOB -- [COMMAND CLI-ARGS...]

Right after ``vortexladder.cli`` is imported, the monotonic clock reading
(the clock ``time.perf_counter`` shares with the parent on Linux) and the
imported package path are written to STAMP.  When TRACE is not ``-``, the
layer functions are wrapped before the command runs and the spans are
written to TRACE when it ends.  The exit code is the CLI's.  Without a
COMMAND only STAMP is written: a probe of the set-up time.
"""

import sys
import time

import vortexladder.cli

_imported = time.perf_counter()


def main() -> int:
    stamp, trace, job, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    with open(stamp, "w") as fh:
        fh.write(f"{_imported!r}\n{vortexladder.__file__}\n")
    if not cli_args:
        return 0
    tracer = None
    if trace != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import runpy

    sys.argv = ["vortexladder", *cli_args]
    try:
        runpy.run_module("vortexladder", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    finally:
        if tracer is not None:
            tracer.dump(trace, job)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
