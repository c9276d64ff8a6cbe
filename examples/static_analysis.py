"""Static safety analysis: certify before you solve.

Runs the multi-pass analyzer over every Datalog program shipped in
``examples/programs/`` and prints, for each: the diagnostics, the
counting-safety certificate (safe / unsafe / unknown — decided by SCC
analysis of the L graph, never by running a fixpoint), and the method
recommendation.  Then demonstrates the serving-layer consequence: a
:class:`SolverService` refuses a certified-unsafe counting request with
a typed :class:`~repro.errors.UnsafeQueryError` before any fixpoint
starts, and an ``adaptive`` batch on the same goal runs the method the
static report recommended.
"""

from pathlib import Path

from repro.analysis.static import run_static_analysis
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.errors import UnsafeQueryError
from repro.service import SolverService

PROGRAMS = Path(__file__).resolve().parent / "programs"


def load(path):
    """Parse a program file, splitting ground facts into a Database."""
    program = parse_program(path.read_text())
    database = Database()
    rules = []
    for rule in program.rules:
        if rule.is_fact:
            database.add_atom(rule.head)
        else:
            rules.append(rule)
    return Program(rules, program.query), database


def main():
    for path in sorted(PROGRAMS.glob("*.dl")):
        program, database = load(path)
        report = run_static_analysis(program, database)
        print(f"=== {path.name}")
        print(f"goal: {report.goal}")
        certificate = report.certificate
        print(f"counting safety: {certificate.verdict} "
              f"({certificate.reason})")
        if certificate.cycle:
            print("witness cycle: "
                  + " -> ".join(map(repr, certificate.cycle)))
        for diagnostic in report.diagnostics:
            print(f"  {diagnostic}")
        if report.recommended_method:
            print(f"recommended method: {report.recommended_method}")
        print()

    # The serving layer acts on the certificate: a counting request it
    # certified divergent is refused before any fixpoint starts, and
    # ``adaptive`` runs the certified-bound ranking's pick instead.
    program, database = load(PROGRAMS / "flights_cyclic.dl")
    service = SolverService(database)
    print("=== serving a certified-unsafe counting request")
    try:
        service.solve_batch(program, method="counting")
    except UnsafeQueryError as refusal:
        print(f"refused: {refusal}")
    result = service.solve_batch(program, method="adaptive")
    print(f"adaptive served: {result.method}")
    for source, answers in sorted(result.answers.items(), key=repr):
        print(f"  {source}: {sorted(answers, key=repr)}")

if __name__ == "__main__":
    main()
