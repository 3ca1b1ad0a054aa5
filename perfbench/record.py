"""Record the answers of every case of a workload population.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each case once, refuses to record if any oracle fails, and writes
``answers/<workload>.json``.  Recorded answers are the reference the runner
compares every later answer with, so record them only on a commit whose
answers are trusted, and only when the population itself changes.
"""

import json
import sys

import run


def record(workload):
    import workloads
    population = workloads.build_population(workload)
    workloads.warm_up(workload)
    _, _, done = run.run_pass(population, range(len(population)))
    answers = {}
    bad = []
    for case, results in done:
        if any(isinstance(r, Exception) for r in results):
            bad.append(f"case {case.index} ({case.label}): {results}")
            continue
        bad += [f"case {case.index} ({case.label}): {v}"
                for v in case.check(results)]
        answers[str(case.index)] = [case.answer(i, r)
                                    for i, r in enumerate(results)]
    if bad:
        raise SystemExit("not recorded, oracle failures:\n" + "\n".join(bad))
    path = run.HERE / "answers" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                       for k, v in answers.items())
    path.write_text(f'{{"workload": {json.dumps(workload)}, "answers": {{\n'
                    f"{rows}\n}}}}\n")
    print(f"{workload}: {len(answers)} cases -> {path.name}")


if __name__ == "__main__":
    run.load_program()
    import workloads
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
