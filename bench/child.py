"""Measured processes; ``run.py`` starts them.

    child.py setup CORPUS_DIR
        import augdist, load the rules and the corpus, then print one JSON
        line; the parent times the process from its start to that line.
    child.py serve TIMEOUT_S
        import augdist once and say so; then, for each JSON job line on
        stdin, fork a child that runs one ``augdist.cli.main(["evaluate",
        ...])`` and writes its time, exit code and peak RSS (plus the trace
        figures) to the job's result file, and reply with the child's wait
        status. A child still running after TIMEOUT_S seconds is killed.

Every evaluate thus starts from the same freshly imported state, without
paying the import again: in particular the process-wide feature cache is
empty, as it is for a user's ``augdist evaluate``.

Untraced steps also read the host's speed while they run (``Speedometer``),
so the parent can scale their times to one reference speed.
"""

import json
import os
import random
import signal
import statistics
import sys
import time

import numpy
from scipy.optimize import linear_sum_assignment

# CPU seconds of the measured process between two reference bursts. The
# host's phases switch within tens of milliseconds, so bursts are short and
# frequent.
BURST_EVERY_S = 0.02


def reference_work() -> float:
    """Seconds taken by a fixed computation, about 1 ms on an undisturbed
    core: dict and tuple churn, a sort and small assignment problems, the
    mix the program's distances run, with no code of the program in it."""
    rng = random.Random(0)
    start = time.perf_counter()
    for k in range(8):
        counts: dict[tuple[str, int], int] = {}
        for i in range(150):
            key = (f"n{rng.randrange(60)}", i % 7)
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda item: (item[1], item[0]))
        costs = numpy.array([[((i * 31 + j * 17 + k) % 23) / 23 for j in range(10)] for i in range(10)])
        linear_sum_assignment(costs)
    return time.perf_counter() - start


class Speedometer:
    """The host's speed over a measured step, read from ``reference_work``.

    Other tenants of a shared host slow a core down by up to about twice,
    in phases from tens of milliseconds to minutes, and slow the reference
    much as they slow the program. After one unrecorded warm-up run, whose
    fresh process pays page faults and cold caches, the reference runs four
    times before the step, once every ``BURST_EVERY_S`` of the process's CPU
    time during it (from a profiling-timer signal, whose handler runs
    between two bytecodes of the step) and four times after.
    ``reference_s`` is the harmonic mean of its recorded durations,
    ``burst_s`` the time all runs took, which the parent takes off the
    step's time.
    """

    def __enter__(self) -> "Speedometer":
        self.warm_up_s = reference_work()
        self.bursts = [reference_work() for _ in range(4)]
        self.inside: list[float] = []
        signal.signal(signal.SIGPROF, lambda *_: self.inside.append(reference_work()))
        signal.setitimer(signal.ITIMER_PROF, BURST_EVERY_S, BURST_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.bursts += self.inside + [reference_work() for _ in range(4)]

    def figures(self) -> dict[str, float]:
        return {"burst_s": self.warm_up_s + sum(self.bursts), "reference_s": statistics.harmonic_mean(self.bursts)}


def setup(corpus_dir: str) -> None:
    with Speedometer() as speed:
        import augdist

        rules = augdist.load_rules(f"{corpus_dir}/rules")
        dataset = augdist.load_corpus(corpus_dir)
    print(json.dumps({"rules": len(rules), "entries": len(dataset.correct) + len(dataset.misuse),
                      **speed.figures()}), flush=True)


def evaluate(corpus: str, algorithm: str, out: str, traced: bool, speed: bool, result: str) -> None:
    """One evaluate; a traced one gets no speedometer, whose bursts would
    land inside the traced calls."""
    import contextlib
    import resource

    import augdist.cli

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    argv = ["evaluate", f"{corpus}/rules", corpus, "-a", algorithm, "--workers", "1", "--out", out]
    start = time.perf_counter()
    with Speedometer() if speed else contextlib.nullcontext() as speedometer:
        code = augdist.cli.main(argv)
    seconds = time.perf_counter() - start
    figures = {
        "seconds": seconds,
        "exit": code,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if speedometer is not None:
        figures.update(speedometer.figures())
    if tracer is not None:
        figures["trace"] = tracing.summary(tracer)
    with open(result, "w") as handle:
        json.dump(figures, handle)


def serve(timeout_s: int) -> None:
    import augdist.cli  # noqa: F401  (the state every job starts from)

    # Forking is only safe while this process has a single thread.
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise SystemExit(f"refusing to fork from a process with {threads} threads")
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        job = json.loads(line)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(timeout_s)
                log = os.open(job.pop("log"), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                os.dup2(log, 1)
                os.dup2(log, 2)
                evaluate(**job)
                code = 0
            except BaseException:  # the forked child must never return into this loop
                import traceback

                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": status}), flush=True)


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        setup(*rest)
    else:
        serve(int(rest[0]))
