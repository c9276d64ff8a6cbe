"""An interactive deductive-database shell.

``python -m repro repl`` starts a small LDL-style console::

    dl> parent(ann, mona).              % assert a fact
    dl> sg(X, Y) :- flat(X, Y).        % add a rule
    dl> sg(X, Y) :- parent(X, X1), sg(X1, Y1), parent(Y, Y1).
    dl> ?- sg(ann, Y).                  % run a query
    Y = ben
    dl> .method adaptive                % choose the evaluation method
    dl> .analyze sg(ann, Y)             % magic-graph diagnosis
    dl> .explain sg(ann, ben)           % proof tree
    dl> .rules / .facts / .help / .quit

Queries on CSL-shaped programs run through the paper's methods (per
``.method``); everything else falls back to semi-naive evaluation.
Designed to be driven programmatically too (:meth:`Repl.execute` maps
one input line to a list of output lines), which is how the test-suite
exercises it.
"""

from __future__ import annotations

from typing import List, Optional

from .core.csl import CSLQuery
from .core.solver import SOLVE_METHODS, solve
from .datalog.database import Database
from .datalog.evaluation import answer_tuples
from .datalog.parser import parse_program
from .datalog.program import Program
from .errors import NotCSLError, ReproError

_HELP = """\
Enter facts (p(a, b).), rules (p(X) :- q(X).), or queries (?- p(a, Y).).
Dot commands:
  .method NAME     evaluation method for CSL queries (default: auto)
                   one of: """ + ", ".join(SOLVE_METHODS) + """
  .analyze GOAL    magic-graph diagnosis for a goal, e.g. .analyze sg(a, Y)
  .plan GOAL       full EXPLAIN: counting set, reduced sets, predictions
  .explain FACT    proof tree for a ground fact, e.g. .explain sg(a, b)
  .rules           list the current rules
  .facts           list the stored facts
  .retract FACT    delete a stored fact, e.g. .retract parent(ann, mona)
  .load FILE       read rules and facts from a Datalog file
  .save FILE       write the current rules and facts to a file
  .clear           drop all rules and facts
  .help            this text
  .quit            leave"""


class Repl:
    """State + line dispatcher for the interactive shell."""

    def __init__(self):
        self.database = Database()
        self.rules: List = []
        self.method = "auto"
        self.done = False

    # --- public API -----------------------------------------------------

    def execute(self, line: str) -> List[str]:
        """Process one input line; returns the lines to display."""
        line = line.strip()
        if not line or line.startswith("%"):
            return []
        try:
            if line.startswith("."):
                return self._command(line)
            return self._statement(line)
        except ReproError as error:
            return [f"error: {error}"]

    def run(self, stdin=None, stdout=None) -> None:  # pragma: no cover
        import sys

        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write("repro deductive shell — .help for commands\n")
        while not self.done:
            stdout.write("dl> ")
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            for output in self.execute(line):
                stdout.write(output + "\n")

    # --- internals --------------------------------------------------------

    def _program(self, query=None) -> Program:
        return Program(list(self.rules), query)

    def _statement(self, line: str) -> List[str]:
        program = parse_program(line)
        output: List[str] = []
        for rule in program.rules:
            if rule.is_fact:
                added = self.database.add_atom(rule.head)
                output.append("stored." if added else "duplicate.")
            else:
                rule.check_safety()
                self.rules.append(rule)
                output.append("rule added.")
        if program.query is not None:
            output.extend(self._query(program.query))
        return output

    def _query(self, goal) -> List[str]:
        program = self._program(goal)
        variables = [t for t in goal.terms if t.is_variable]
        try:
            query = CSLQuery.from_program(program, database=self.database)
        except NotCSLError:
            query = None
        if query is not None and self.method != "naive" and len(variables) == 1:
            result = solve(query, method=self.method)
            answers = sorted(result.answers, key=repr)
            footer = (f"-- {len(answers)} answer(s), method "
                      f"{result.method}, {result.cost.retrievals} retrievals")
            return [f"{variables[0].name} = {a}" for a in answers] + [footer]
        # Non-CSL programs, ground goals, and multi-variable goals use
        # the generic engine.
        database = self.database.copy()
        tuples = sorted(answer_tuples(program, database), key=repr)
        footer = (f"-- {len(tuples)} answer(s), seminaive, "
                  f"{database.total_cost()} retrievals")
        if not variables:
            return (["true." if tuples else "false."] + [footer])
        lines = []
        for tup in tuples:
            bindings = ", ".join(
                f"{var.name} = {value}" for var, value in zip(variables, tup)
            )
            lines.append(bindings)
        return lines + [footer]

    def _command(self, line: str) -> List[str]:
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""

        if command in (".quit", ".exit"):
            self.done = True
            return ["bye."]
        if command == ".help":
            return _HELP.splitlines()
        if command == ".method":
            if argument not in SOLVE_METHODS:
                return [f"unknown method {argument!r}; "
                        f"choose from: {', '.join(SOLVE_METHODS)}"]
            self.method = argument
            return [f"method = {argument}"]
        if command == ".rules":
            return [str(rule) for rule in self.rules] or ["(no rules)"]
        if command == ".facts":
            lines = []
            for name in self.database.names():
                for tup in sorted(self.database.facts(name), key=repr):
                    rendered = ", ".join(str(v) for v in tup)
                    lines.append(f"{name}({rendered}).")
            return lines or ["(no facts)"]
        if command == ".retract":
            return self._retract(argument)
        if command == ".clear":
            self.database = Database()
            self.rules = []
            return ["cleared."]
        if command == ".load":
            return self._load_file(argument)
        if command == ".save":
            return self._save_file(argument)
        if command == ".analyze":
            return self._analyze(argument)
        if command == ".plan":
            return self._plan(argument)
        if command == ".explain":
            return self._explain(argument)
        return [f"unknown command {command}; try .help"]

    def _load_file(self, path: str) -> List[str]:
        if not path:
            return ["usage: .load FILE"]
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            return [f"error: {error}"]
        program = parse_program(text)
        facts = rules = 0
        for rule in program.rules:
            if rule.is_fact:
                self.database.add_atom(rule.head)
                facts += 1
            else:
                rule.check_safety()
                self.rules.append(rule)
                rules += 1
        return [f"loaded {facts} fact(s) and {rules} rule(s) from {path}"]

    def _save_file(self, path: str) -> List[str]:
        if not path:
            return ["usage: .save FILE"]
        from .datalog.io import dump_database

        try:
            with open(path, "w") as handle:
                for rule in self.rules:
                    handle.write(str(rule) + "\n")
                count = dump_database(self.database, handle)
        except OSError as error:
            return [f"error: {error}"]
        return [f"saved {count} fact(s) and {len(self.rules)} rule(s) to {path}"]

    def _retract(self, fact_text: str) -> List[str]:
        from .datalog.parser import parse_atom

        if not fact_text:
            return ["usage: .retract FACT"]
        atom = parse_atom(fact_text.rstrip("."))
        if not atom.is_ground():
            return ["retract needs a ground fact."]
        removed = self.database.remove_fact(
            atom.predicate, *(t.value for t in atom.terms)
        )
        return ["retracted." if removed else "no such fact."]

    def _analyze(self, goal_text: str) -> List[str]:
        from .core.complexity import compute_statistics
        from .datalog.parser import parse_atom

        goal = parse_atom(goal_text)
        query = CSLQuery.from_program(
            self._program(goal), database=self.database
        )
        stats = compute_statistics(query)
        return [
            f"class: {stats.graph_class.value}",
            f"nodes: {stats.n_l} magic ({stats.n_s} single, "
            f"{stats.n_m - stats.n_s} multiple, "
            f"{stats.n_l - stats.n_m} recurring)",
            f"arcs: m_L={stats.m_l} m_E={stats.m_e} m_R={stats.m_r}, "
            f"i_x={stats.i_x}",
        ]

    def _plan(self, goal_text: str) -> List[str]:
        from .core.explain import explain_evaluation
        from .datalog.parser import parse_atom

        goal = parse_atom(goal_text)
        query = CSLQuery.from_program(
            self._program(goal), database=self.database
        )
        return explain_evaluation(query).splitlines()

    def _explain(self, fact_text: str) -> List[str]:
        from .datalog.parser import parse_atom
        from .datalog.provenance import evaluate_with_provenance

        goal = parse_atom(fact_text)
        if not goal.is_ground():
            return ["explain needs a ground fact."]
        provenance = evaluate_with_provenance(
            self._program(), self.database.copy()
        )
        proof = provenance.proof(
            goal.predicate, tuple(t.value for t in goal.terms)
        )
        return proof.render().splitlines()


def run_repl() -> int:  # pragma: no cover
    Repl().run()
    return 0
