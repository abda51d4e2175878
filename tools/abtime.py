"""Alternating A/B wall time of two source trees, run by hand:
``tools/abtime.py [--pairs N] A_SRC B_SRC -- ARGV...``.

Runs ``python -m mtmetrics.cli ARGV`` with ``PYTHONPATH`` set to each ``src``
tree in fresh processes, N pairs, alternating which side runs first, after
one untimed run per side that writes its bytecode caches. Both sides must
exit alike and print the same stdout bytes. Prints each side's median and
quartiles, the per-pair B/A ratio's median with a 95% bootstrap interval
(resampled with ``random.Random(SEED)``), and how many pairs B wins. An
A/A run (one tree twice) should give an interval that holds 1.0.
"""

import argparse, math, os, random, statistics, subprocess, sys, time

ROUNDS = 10_000  # bootstrap resamples
SEED = 0  # of the bootstrap, so a run's interval can be recomputed


def run_once(src, argv):
    """Wall seconds, exit code and stdout of one fresh CLI process."""
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the warm-up write caches
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "mtmetrics.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, done.returncode, done.stdout


def resample_medians(values, rounds, rng):
    """Medians of `rounds` resamples of `values`, each drawn with replacement."""
    return [statistics.median(rng.choices(values, k=len(values))) for _ in range(rounds)]


def percentile_interval(samples, level):
    """The central `level` share of `samples`: the smallest value whose share
    of samples at or below it exceeds the lower tail, and the smallest whose
    share reaches one minus the upper tail."""
    ordered, tail = sorted(samples), (1 - level) / 2
    low = int(tail * len(ordered))  # no more than `tail` of them lie below it
    high = math.ceil((1 - tail) * len(ordered)) - 1
    return ordered[low], ordered[high]


def bootstrap_interval(values, rounds=ROUNDS):
    """95% percentile bootstrap interval of the median of `values`."""
    return percentile_interval(resample_medians(values, rounds, random.Random(SEED)), 0.95)


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, IQR {q3 - q1:.4f} s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.pairs < 2 or not cli_argv:
        parser.error("needs --pairs >= 2 and the CLI arguments after --")
    sides = {"A": args.a_src, "B": args.b_src}
    outputs = {name: run_once(src, cli_argv)[1:] for name, src in sides.items()}  # warm-up
    if outputs["A"] != outputs["B"]:
        print("A and B differ in exit code or stdout bytes", file=sys.stderr)
        return 1
    times = {"A": [], "B": []}
    for pair in range(args.pairs):
        for name in ("AB" if pair % 2 == 0 else "BA"):
            seconds, *output = run_once(sides[name], cli_argv)
            if tuple(output) != outputs[name]:
                print(f"pair {pair + 1}: {name}'s output changed between runs", file=sys.stderr)
                return 1
            times[name].append(seconds)
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    low, high = bootstrap_interval(ratios)
    wins = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"argv: {' '.join(cli_argv)}; {args.pairs} alternating pairs")
    for name in sides:
        print(f"{name} {sides[name]}: {summary(times[name])}")
    print(f"B/A per pair: median {statistics.median(ratios):.3f}, 95% interval "
          f"[{low:.3f}, {high:.3f}] ({ROUNDS} resamples, seed {SEED})")
    print(f"B wins {wins} of {args.pairs} pairs; exit {outputs['A'][0]}, "
          f"{len(outputs['A'][1])} stdout bytes, equal on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
