"""One fresh benchmark process: import cbwsim, run a workload, write a result file.

Usage (started by ``run.py``, which sets ``PYTHONPATH`` to the checkout's
``src`` and pins BLAS/OpenMP to one thread)::

    child.py T0_NS import
    child.py T0_NS run WORKLOAD SEED SECONDS TRACE RESULT_JSON SPANS_JSONL

``T0_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process; set-up time runs from there to the end of
``import cbwsim.cli``.  ``import`` mode prints that time and exits.

``run`` mode repeats the workload's CLI calls until ``SECONDS`` have
passed (at least a few times), timing only the ``dispatch`` calls and
checking the outputs between iterations.  With ``TRACE`` 0 it also times a
fixed reference kernel right after each iteration, so that every iteration
but the first is bracketed by two reference timings taken under the same
host load, and it starts one ``import`` process after each iteration, so
that the set-up samples are spread over the run like the iterations.
With ``TRACE`` 1 it alternates untraced iterations with traced ones and
reports per-name span summaries and work counters of each traced
iteration; it counts a failed operation if a dominant span is missing or if
the call and work counts differ between traced iterations.
"""

import sys
import time

MIN_ITERATIONS = 3  # untraced run: iterations, however long they take
MIN_PAIRS = 2  # traced run: (untraced, traced) iteration pairs


class ReferenceKernel:
    """A fixed CPU load that depends on nothing in cbwsim.

    It mixes, in about equal shares of time, what the workloads spend their
    time on: interpreted Python, batched 2x2 complex matrix products over 1e5
    and over 5e3 points, and Poisson and binomial draws on 1e4-element
    arrays.  Its time moves with the speed the shared host gives this
    process, and with nothing the benchmarked code does.  Its inputs are made
    once, so that later runs time only the kernel.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.matrices = rng.random((100_000, 2, 2)) + 1j * rng.random((100_000, 2, 2))
        self.few_matrices = self.matrices[:5_000].copy()

    def run(self) -> float:
        """Run the kernel once; return its wall time."""
        np = self.np
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        for _ in range(3):
            float(np.abs(self.matrices @ self.matrices).sum())
        for _ in range(60):
            float(np.abs(self.few_matrices @ self.few_matrices).sum())
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(300):
            k = rng.poisson(0.04, 10_000)
            n1 = rng.binomial(k, 0.3)
            np.count_nonzero((n1 > 0) & (k - n1 > 0))
        return time.perf_counter() - start


def _run_once(cli, workload, out, seed, tally) -> float:
    """Run the workload's CLI calls once into an empty ``out``; return their wall time."""
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = workload.commands(out, seed)
    results = []
    start = time.perf_counter()
    for argv in commands:
        # Any exception escaping dispatch is a failed invocation, not a crash of the run.
        try:
            results.append(cli.dispatch(argv))
        except Exception as exc:  # noqa: BLE001
            results.append(exc)
    wall = time.perf_counter() - start
    for argv, code in zip(commands, results):
        tally.record(f"cbwsim {argv[0]}", code == 0, f"exit {code!r}")
    return wall


def _setup_probe() -> float:
    """Set-up time of a fresh ``import``-mode process."""
    import json
    import subprocess

    proc = subprocess.run([sys.executable, __file__, str(time.monotonic_ns()), "import"],
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)["setup_s"]


def _check(workload, out, tally) -> None:
    for name, check in workload.checks(out):
        tally.run_check(f"check {name}", check)


def main(argv) -> int:
    t0_ns = int(argv[0])
    start = time.perf_counter()
    import cbwsim.cli as cli

    import_s = time.perf_counter() - start
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    # Everything below is imported after the set-up interval on purpose.
    import json
    import platform
    import resource
    from pathlib import Path

    import numpy as np

    if argv[1] == "import":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import cbwsim
    from cbwsim.config import ScanConfig, SourceModel
    from spans import Tracer, summarize
    from workloads import WORKLOADS, Tally

    name, seed, seconds, trace = argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    result_path, spans_path = Path(argv[6]), Path(argv[7])
    workload = WORKLOADS[name]
    out = result_path.parent / "out"
    tally = Tally()
    result = {
        "import_s": import_s,
        "cbwsim_file": cbwsim.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "walls": [],
    }

    begin = time.perf_counter()
    cycle_start = None

    def more(done: int, minimum: int) -> bool:
        """Start another cycle only if one as long as the last still fits in ``seconds``."""
        nonlocal cycle_start
        now = time.perf_counter()
        last = now - cycle_start if cycle_start is not None else 0.0
        cycle_start = now
        return done < minimum or now - begin + last <= seconds

    if not trace:
        # This process's own start is not a sample: in a fresh checkout it
        # also compiles the package's bytecode, which users pay once.
        result["setup_samples"], result["reference_walls"] = [], []
        reference = None
        while more(len(result["walls"]), MIN_ITERATIONS):
            result["walls"].append(_run_once(cli, workload, out, seed, tally))
            if reference is None:
                # Read before the reference kernel and the checks first run,
                # so that their memory is not counted.
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                reference = ReferenceKernel()
            result["reference_walls"].append(reference.run())
            _check(workload, out, tally)
            result["setup_samples"].append(_setup_probe())
    else:
        tracer = Tracer()
        result.update(traced_walls=[], summaries=[], counters=[])
        default = ScanConfig()
        result["default_scan_windows"] = default.points * round(
            default.bin_duration / SourceModel().window_duration)
        pair = 0
        while more(pair, MIN_PAIRS):
            # Alternate which side of the pair runs first.
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                if traced:
                    tracer.run_id = pair
                    tracer.install(cbwsim)
                try:
                    wall = _run_once(cli, workload, out, seed, tally)
                finally:
                    tracer.uninstall()
                result["traced_walls" if traced else "walls"].append(wall)
                _check(workload, out, tally)
            result["summaries"].append(summarize(tracer.spans_of(pair)))
            result["counters"].append(dict(tracer.counters[pair]))
            pair += 1
        missing = [s for s in workload.dominant_spans
                   if any(s not in summary for summary in result["summaries"])]
        tally.record("dominant spans recorded", not missing, f"missing {missing}")
        # The same calls with the same seed do the same work: every traced
        # iteration must make as many calls to each function and count as
        # much work as the first one.
        counts = [({k: v["calls"] for k, v in summary.items()}, counters)
                  for summary, counters in zip(result["summaries"], result["counters"])]
        changed = [i for i, c in enumerate(counts) if c != counts[0]]
        tally.record("call and work counts repeat", not changed,
                     f"traced iterations {changed} differ from the first")
        tracer.write(spans_path)

    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
