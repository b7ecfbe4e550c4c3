"""One zetaflat CLI invocation, as the benchmark spawns it.

    python3 perfbench/child.py REPORT_FILE MODE -- CLI_ARGS...

Runs `zetaflat.cli.entry(CLI_ARGS)` exactly as `python -m zetaflat.cli`
would, from the src/ tree next to this directory, and writes a marshal
report to REPORT_FILE: CLOCK_MONOTONIC stamps for import done, instance
list built and report written, the peak resident set, the exit code and
the active backend.  MODE is `run` for the plain invocation or `trace` for
the same with spans recorded (see tracer.py).
"""

import marshal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def peak_rss_kb():
    """High-water resident set of this process image.

    VmHWM belongs to the memory map made by exec, so unlike ru_maxrss it
    does not include the spawning process's memory.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    report_path, mode, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace"):
        sys.exit("usage: child.py REPORT_FILE run|trace -- CLI_ARGS...")
    if not (SRC / "zetaflat" / "cli.py").is_file():
        sys.exit(f"no zetaflat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zetaflat
    import zetaflat.cli as cli
    if Path(zetaflat.__file__).resolve().parent != SRC / "zetaflat":
        sys.exit(f"imported zetaflat from {zetaflat.__file__}, not {SRC}")
    report = {"t_imported": time.monotonic(),
              "backend": zetaflat.active_backend()}

    recorder = None
    if mode == "trace":
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()

    def write_report(rc):
        report["rc"] = rc
        report["peak_rss_kb"] = peak_rss_kb()
        if recorder is not None:
            modules = sys.modules
            report["spans"] = recorder.dump()
            report["caches"] = {
                "zeta_residue": tuple(modules["zetaflat.finite_padic"]
                                      ._zeta_residue.cache_info()[:2]),
                "connector": tuple(modules["zetaflat.connected_sum"]
                                   .connector.cache_info()[:2]),
            }
        with open(report_path, "wb") as fh:
            marshal.dump(report, fh)
        report["t_written"] = time.monotonic()
        with open(report_path, "ab") as fh:
            marshal.dump(report["t_written"], fh)

    verify_tasks = cli.verify_tasks

    def timed_verify_tasks(*args, **kwargs):
        tasks = verify_tasks(*args, **kwargs)
        report["t_setup"] = time.monotonic()
        return tasks

    cli.verify_tasks = timed_verify_tasks
    rc = cli.entry(cli_args)
    sys.stdout.flush()
    write_report(rc)
    sys.exit(rc)


if __name__ == "__main__":
    main()
