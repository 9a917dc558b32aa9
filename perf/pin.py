"""Pin the simulated headline values of seeds 0-2 into references.json.

    python3 perf/pin.py [--workload NAME ...]

``run.py`` compares every run of a pinned seed against these values
(``sim_drift``), so a change that only speeds the simulator up must
leave them untouched.  Re-pin only with a change that is meant to alter
simulated behaviour, and say so in that change.
"""

import argparse
import json
import sys

import run

PINNED_SEEDS = (0, 1, 2)


def main(argv=None):
    names = [workload["name"]
             for workload in run.load_declaration()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args(argv)
    references = run.load_references()
    for name in args.workload or names:
        pinned = {}
        for seed in PINNED_SEEDS:
            reps, _ = run.measure(name, seed, 0)
            headline, disagree = run.merge_headlines(reps)
            problems = [problem for rep in reps for problem in rep["problems"]]
            if problems or disagree or any(rep["failed"] for rep in reps):
                print("pin: %s seed %d did not check out: %s %s"
                      % (name, seed, problems, disagree), file=sys.stderr)
                return run.EXIT_FAILED
            pinned[str(seed)] = headline
        references[name] = pinned
    with open(run.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
