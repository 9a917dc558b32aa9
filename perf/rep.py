"""One repetition of one workload, in a fresh process.

    python3 perf/rep.py WORKLOAD --seed N [--pass K] [--quick Q]
                        [--profile FILE]

Builds the workload's inputs from the seed and pass (set-up), runs its
timed phase, and prints one JSON object as its last line of standard
output: the workload's result (see ``workloads.py``) plus ``pass``,
``setup_s`` (from this file's first line, at ``setup_start_s``, to the
end of set-up: interpreter-level imports, ``repro`` import and input
construction), ``calibration_s`` (the noise model's ``[time, kernel
seconds]`` samples, on the same clock as the cells' ``start_s``; see
``calibration.py``) and ``peak_rss_mb``.

``--profile FILE`` makes this the traced repetition: the timed phase
runs under cProfile (raw stats written to FILE) with the layer census
installed, and the result gains ``layers`` (see ``layers.py``).

Exit status 3 means there is no ``src/repro`` to import: there is no
program to measure.
"""

import time

REP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

EXIT_NO_PROGRAM = 3


def peak_rss_mb():
    """Peak resident set of this process or of its largest waited-for
    child, whichever is larger (``ru_maxrss`` is in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def run_rep(name, seed, quick=1, pass_index=0, profile_path=None):
    """Set up and run one repetition in this process; returns its result.

    ``calibration_s`` holds the noise-model kernel samples taken while
    the rep ran (see ``calibration.py``).
    """
    import calibration
    import workloads

    workload_cls = workloads.WORKLOADS[name]
    if profile_path is None:
        with calibration.Sampler() as sampler:
            workload = workload_cls(seed, quick=quick, pass_index=pass_index)
            setup_s = sampler.clock() - REP_START
            result = workload.run(sampler.clock)
        # a rep shorter than one sampling period has no samples of its own
        samples = sampler.samples or calibration.sample(10)
    else:
        result, setup_s, samples = _run_traced(
            workload_cls, seed, quick, pass_index, profile_path)
    result["pass"] = pass_index
    result["setup_start_s"] = REP_START
    result["setup_s"] = setup_s
    result["calibration_s"] = samples
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def _run_traced(workload_cls, seed, quick, pass_index, profile_path):
    """Set up the workload and run its timed phase under the profiler,
    with the layer census installed throughout: the objects holding the
    counters are built during set-up.

    A sampler would be profiled with the work, so the kernel is timed
    just before and just after the timed phase.
    """
    import cProfile
    import pstats

    import calibration
    import layers

    with layers.Census() as census:
        workload = workload_cls(seed, quick=quick, pass_index=pass_index)
        setup_s = time.perf_counter() - REP_START
        samples = calibration.sample(10)
        before = census.totals()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = workload.run()
        finally:
            profiler.disable()
        after = census.totals()
    samples += calibration.sample(10)
    profiler.dump_stats(profile_path)
    result["layers"] = layers.layer_metrics(
        pstats.Stats(profiler), before, after, census.sync, result["ops"])
    return result, setup_s, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--quick", type=int, default=1)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("rep: no program at %s" % os.path.join(SRC, "repro"),
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    result = run_rep(args.workload, args.seed, quick=args.quick,
                     pass_index=args.pass_index, profile_path=args.profile)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
