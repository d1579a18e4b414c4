"""The pattern index behind the modular layer: every lookup it serves gives
what a scan of all modules gives, and the number of pattern checks grows
linearly with the number of modules under collective control."""

import contextlib
import io
import itertools
import random
import warnings
from collections import Counter
from pathlib import Path

import pytest

import randprog
from modasp.cli import main
from modasp.engine import (
    CompiledParts,
    _solve,
    enumerate_kappa_stable,
    is_answer_set,
    is_kappa_stable,
)
from modasp.errors import EngineError
from modasp.grounding import Domain
from modasp.instantiation import collective_modular, collective_union
from modasp.intensionality import (
    IntensionalityStatement,
    PatternIndex,
    lambda_holds,
    may_share_instance,
    pattern_str,
    patterns_unify,
)
from modasp.modular import (
    CoherenceReport,
    Violation,
    _module_order_refusal,
    dependency_graph,
    is_coherent,
    is_simple_module,
    modular_answer_sets,
    strongly_connected_components,
    theorem1_check,
    union_program,
)
from modasp.parsing import parse_control, parse_program
from modasp.program import PredAtom, atom_order_key
from modasp.terms import Arith, Numeral, Sort, Variable, is_precomputed, simplify

FIXTURES = Path(__file__).parent / "fixtures"

CHAIN_LP = """\
#program base.
p(0).
#program step(k).
p(k+1) :- p(k).
"""
CHAIN_CTL = """\
use base.
use step(k) for k in 0..n-1.
domain 0..n.
"""


# --- full-scan references: every module is tried for every lookup ------------------


def scan_matching_modules(P, atom):
    return [
        i
        for i, module in enumerate(P.modules)
        if any(
            may_share_instance(u, atom.args)
            for u in module.kappa.patterns_for(atom.pred)
        )
    ]


def scan_edges(P):
    edges = set()
    seen = set()
    for module in P.modules:
        for rule in module.pi.rules:
            if rule in seen or rule.head is None:
                continue
            seen.add(rule)
            heads = scan_matching_modules(P, rule.head)
            for literal in rule.body:
                if literal.negations or not isinstance(literal.atom, PredAtom):
                    continue
                for j in scan_matching_modules(P, literal.atom):
                    for i in heads:
                        edge = ((rule.head.name, i), (literal.atom.name, j))
                        if edge[0] != edge[1]:
                            edges.add(edge)
    return edges


def scan_module_order(P, edges):
    module_edges = {(i, j) for (_, i), (_, j) in edges if i != j}
    for i, module in enumerate(P.modules):
        for rule in module.pi.rules:
            for literal in rule.body:
                if literal.negations and isinstance(literal.atom, PredAtom):
                    module_edges.update(
                        (i, j) for j in scan_matching_modules(P, literal.atom) if j != i
                    )
    components = strongly_connected_components(range(len(P.modules)), module_edges)
    if any(len(c) > 1 for c in components):
        return None
    return [i for (i,) in components]


def scan_report(P):
    violations = []
    for i, module in enumerate(P.modules):
        simple, witness = is_simple_module(module)
        if not simple:
            violations.append(
                Violation(
                    "module-not-simple",
                    f"head atom {witness} of module {i} matches no pattern of "
                    "its statement",
                )
            )
    for key in sorted(P.signature().predicates):
        for i in range(len(P.modules)):
            for j in range(i + 1, len(P.modules)):
                for u_i in P.modules[i].kappa.patterns_for(key):
                    for u_j in P.modules[j].kappa.patterns_for(key):
                        if patterns_unify(u_i, u_j) is not None:
                            violations.append(
                                Violation(
                                    "tuples-unify",
                                    f"{key[0]}{pattern_str(u_i)} of module {i} "
                                    f"unifies with {key[0]}{pattern_str(u_j)} "
                                    f"of module {j}",
                                )
                            )
    preds = sorted(P.signature().predicates)
    vertices = [(name, i) for name, _ in preds for i in range(len(P.modules))]
    for component in strongly_connected_components(vertices, scan_edges(P)):
        indices = {i for _, i in component}
        if len(indices) > 1:
            names = ", ".join(f"({p},{i})" for p, i in component)
            violations.append(
                Violation(
                    "scc-spans-modules",
                    f"strongly connected component {{{names}}} spans modules "
                    f"{sorted(indices)}",
                )
            )
    return CoherenceReport(not violations, tuple(violations))


def scan_region(statement, universe):
    return sum(1 << b for b, atom in enumerate(universe) if lambda_holds(statement, atom))


# --- random programs ---------------------------------------------------------------


def universe_of(P, values):
    """Every atom over the program's predicates and the given values."""
    return sorted(
        (
            PredAtom(name, args)
            for name, arity in P.signature().predicates
            for args in itertools.product(values, repeat=arity)
        ),
        key=atom_order_key,
    )


def programs():
    """Mostly incoherent programs with binary, zero-arity and mixed
    patterns, then coherent unary ones, each with the values to build a
    universe from."""
    rng = random.Random(4242)
    for _ in range(300):
        yield randprog.random_pattern_program(rng), randprog.PATTERN_VALUES
    for _ in range(100):
        P, dom = randprog.random_coherent_program(rng)
        yield P, dom.terms_sorted()


@pytest.fixture(scope="module")
def corpus():
    return list(programs())


FIXTURE_PLANS = [
    ("gamma1.lp", "gamma1.ctl"),
    ("p1.lp", "p1.ctl"),
    ("property.lp", "property3.ctl"),
    ("tangle.lp", "tangle.ctl"),
    ("terms.lp", "terms.ctl"),
]


def solvable():
    """The modular readings of the fixture plans with their domains, then
    seeded coherent programs."""
    for lp, ctl in FIXTURE_PLANS:
        prog = parse_program((FIXTURES / lp).read_text(encoding="utf-8"))
        plan = parse_control((FIXTURES / ctl).read_text(encoding="utf-8"), prog)
        dom = Domain.build([collective_union(prog, plan.specs)], *plan.domain)
        yield collective_modular(prog, plan), dom
    rng = random.Random(4343)
    for _ in range(100):
        yield randprog.random_coherent_program(rng)


class TestPatternIndex:
    def test_sharing_is_every_statement_with_a_pattern_that_may_share(self):
        rng = random.Random(99)
        queries = matched = 0
        for _ in range(200):
            P = randprog.random_pattern_program(rng)
            statements = [m.kappa for m in P.modules]
            index = PatternIndex(statements)
            for _ in range(20):
                atom = randprog.random_pattern_atom(rng)
                expected = sum(
                    1 << s
                    for s, statement in enumerate(statements)
                    if any(
                        may_share_instance(u, atom.args)
                        for u in statement.patterns_for(atom.pred)
                    )
                )
                assert index.sharing(atom.pred, atom.args) == expected
                queries += 1
                # A variable or arithmetic left after simplifying: the
                # lookup tries values with `_match` at some shapes.
                matched += not all(is_precomputed(simplify(a)) for a in atom.args)
        assert queries == 4000 and 1000 < matched < 3000

    def test_variable_and_arithmetic_arguments_read_the_whole_position(self):
        index = PatternIndex(
            [
                IntensionalityStatement.of({("q", 2): [(Numeral(1), Variable("X2"))]}),
                IntensionalityStatement.of({("q", 2): [(Numeral(2), Variable("X2"))]}),
                IntensionalityStatement.of({("q", 2): [(Variable("X1"), Numeral(0))]}),
            ]
        )

        def statements(*args):
            return index.sharing(("q", 2), args)

        n_plus_1 = Arith("+", Variable("N", Sort.INTEGER), Numeral(1))
        assert statements(n_plus_1, Numeral(0)) == 0b111
        assert statements(n_plus_1, Numeral(5)) == 0b011
        assert statements(Numeral(2), Variable("Y")) == 0b110
        assert statements(Arith("+", Numeral(1), Numeral(1)), Numeral(5)) == 0b010
        assert index.sharing(("q", 1), (Numeral(1),)) == 0


class TestAgainstFullScan:
    def test_corpus_has_both_kinds(self, corpus):
        coherent = sum(is_coherent(P).coherent for P, _ in corpus)
        assert 100 < coherent < len(corpus) - 100

    def test_dependency_graph_edges(self, corpus):
        for P, _ in corpus:
            assert dependency_graph(P).edges == scan_edges(P)

    def test_module_order_or_refusal(self, corpus):
        refused = 0
        for P, _ in corpus:
            cyclic = scan_module_order(P, scan_edges(P)) is None
            refusal = _module_order_refusal(P, dependency_graph(P))
            refused += refusal is not None
            assert (refusal is not None) == cyclic
        assert 0 < refused < len(corpus)

    def test_coherence_report_text_and_order(self, corpus):
        for P, _ in corpus:
            expected = scan_report(P)
            got = is_coherent(P)
            assert got == expected
            assert str(got) == str(expected)

    def test_compiled_region_masks(self, corpus):
        for P, values in corpus:
            universe = universe_of(P, values)
            region = [atom for atom in universe if not lambda_holds(P.kappa, atom)]
            compiled = CompiledParts(universe, P, [()] * len(P.modules), region)
            full = (1 << len(universe)) - 1
            regions = [scan_region(m.kappa, universe) for m in P.modules]
            for checker, region in zip(compiled.checkers, regions):
                assert checker.ext_mask == full & ~region
            intensional = scan_region(P.kappa, universe)
            defined = 0
            for region in regions:
                defined |= region
            assert compiled.allowed == full & ~(intensional & ~defined)

    def test_solved_region_masks(self, monkeypatch):
        """The module regions of a modular solve, looked up in `P.patterns`,
        are those of a direct `lambda_holds` scan of its base; the solve
        calls neither `PatternIndex.sharing` nor `lambda_holds` once the
        analysis exists."""
        import modasp.engine as engine_mod

        def forbidden(*args):
            raise AssertionError("regions are looked up exactly")

        several = 0
        for P, dom in solvable():
            P.analysis
            with monkeypatch.context() as patched:
                patched.setattr(PatternIndex, "sharing", forbidden)
                patched.setattr(engine_mod, "lambda_holds", forbidden)
                compiled, _ = _solve(P, dom, "reduct", 64)
            base, full = compiled.base, compiled.full
            assert compiled.intensional == scan_region(P.kappa, base)
            assert [c.ext_mask for c in compiled.checkers] == [
                full & ~scan_region(m.kappa, base) for m in P.modules
            ]
            several += len(P.modules) > 1
        assert several > 20


def _built_indexes(monkeypatch):
    """The statement lists of every `PatternIndex` built from now on."""
    built = []
    init = PatternIndex.__init__

    def counting(self, statements):
        built.append(statements)
        init(self, statements)

    monkeypatch.setattr(PatternIndex, "__init__", counting)
    return built


def test_solving_builds_no_pattern_index(monkeypatch):
    """Solving and membership read the index `P.patterns` of the module
    statements: once it exists, `modular_answer_sets`, `theorem1_check` and
    `is_answer_set` build no other."""
    cases = list(solvable())
    for P, _ in cases:
        P.patterns
    built = _built_indexes(monkeypatch)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the incoherent fixture warns
        for P, dom in cases:
            for I in modular_answer_sets(P, dom, "reduct", 64):
                assert is_answer_set(I, P, dom, "reduct")
                checked += len(P.modules) > 1
            theorem1_check(P, dom, "reduct", 64)
            try:
                modular_answer_sets(P, dom, "topo", 64)
            except EngineError:
                pass  # a cyclic module order
    assert built == [] and checked > 20


def test_union_reading_builds_no_pattern_index(monkeypatch, capsys):
    """The one module of the union reading is under the global statement,
    whose region needs no lookup: solving or checking it, in the API or in
    the CLI, builds no pattern index, so no region lookup either."""
    cases = [(P.kappa, union_program(P), dom) for P, dom in solvable()]
    built = _built_indexes(monkeypatch)
    checked = 0
    for kappa, pi, dom in cases:
        for I in enumerate_kappa_stable(kappa, pi, dom, "reduct", 64):
            assert is_kappa_stable(I, kappa, pi, dom)
            checked += 1
    files = str(FIXTURES / "p1.lp"), "--control", str(FIXTURES / "p1.ctl")
    model = "q(0,0) q(0,1) q(0,2) q(0,3) q(0,4)"
    for argv in (("solve",), ("check-model", "--model", model)):
        assert main([argv[0], *files, "--mode", "union", *argv[1:]]) == 0
    assert model in capsys.readouterr().out
    assert built == [] and checked > 20


# --- call counts ---------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts of the pattern checks made through the modular layer and the
    compile step."""
    import modasp.engine as engine_mod
    import modasp.intensionality as intensionality_mod
    import modasp.modular as modular_mod

    counts = Counter()

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for target, name in (
        (intensionality_mod, "_match"),
        (modular_mod, "patterns_unify"),
        (modular_mod, "lambda_holds"),
        (engine_mod, "lambda_holds"),
    ):
        monkeypatch.setattr(target, name, counting(name, getattr(target, name)))
    monkeypatch.setattr(
        PatternIndex, "sharing", counting("sharing", PatternIndex.sharing)
    )
    holding = PatternIndex.holding

    def looking_up(self, atom):
        found = holding(self, atom)
        counts["holding"] += 1
        counts["held"] += found.bit_count()
        return found

    monkeypatch.setattr(PatternIndex, "holding", looking_up)
    return counts


def run_counted(calls, argv):
    calls.clear()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue(), dict(calls)


class TestLinearity:
    # The pattern lookups and checks, and the exact region lookups with the
    # statements they return.
    CHECKS = (
        "sharing", "_match", "patterns_unify", "lambda_holds", "holding", "held"
    )

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--mode", "modular", "--engine", "topo", "--cap", "1000"],
            ["check-coherence"],
        ],
        ids=["solve-topo", "check-coherence"],
    )
    def test_chain_checks_grow_with_the_module_count(self, command, calls, tmp_path):
        lp, ctl = tmp_path / "chain.lp", tmp_path / "chain.ctl"
        lp.write_text(CHAIN_LP, encoding="utf-8")
        ctl.write_text(CHAIN_CTL, encoding="utf-8")
        counts = {}
        for n in (100, 400):
            argv = [command[0], str(lp), "--control", str(ctl), "-c", f"n={n}", *command[1:]]
            code, out, counts[n] = run_counted(calls, argv)
            assert code == 0
        # Four times the modules, at most about four times the checks (a
        # scan of every module per lookup makes it sixteen).
        for name in self.CHECKS:
            assert counts[400].get(name, 0) <= 4.5 * counts[100].get(name, 0), name
        assert counts[100]["sharing"] > 0
        if command[0] == "solve":
            assert counts[100]["holding"] > counts[100]["held"] / 2 > 0

    def test_modular_check_model_region_checks(self, calls):
        # The n=200 property model: 201 atoms q(i,i), 201 modules with one
        # pattern each and one global pattern.  Every module region used to
        # test every atom (40,602 calls); each atom now meets the global
        # pattern and the one module pattern that holds its value.
        n = 200
        model = " ".join(f"q({i},{i})" for i in range(n + 1))
        argv = [
            "check-model", str(FIXTURES / "property.lp"),
            "--control", str(FIXTURES / "property.ctl"), "-c", f"n={n}",
            "--mode", "modular", "--model", model,
        ]
        code, out, counts = run_counted(calls, argv)
        assert (code, out) == (0, "answer set\n")
        atoms, patterns = n + 1, (n + 1) + 1
        assert counts["lambda_holds"] <= 2 * (atoms + patterns)
