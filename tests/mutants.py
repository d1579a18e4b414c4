"""A table of mutants of `src/modasp`, each with the tests that must kill it.

    python tests/mutants.py [NAME ...]

For each row (or each named row), the script copies the repository, without
`.git`, into a temporary directory, replaces the row's snippet by its
replacement in the copy and runs the row's tests there with pytest.  A
mutant is killed when one of its tests fails.  The rows' tests first run
once on an unmutated copy, which must pass.  The script prints one line a
mutant and exits 1 when a mutant survives, 2 when the unmutated copy fails
or pytest cannot run a row's tests.  It uses the standard library only,
and pytest does not collect it; `test_mutant_table.py` checks in tier-1
that every snippet occurs exactly once in its file.

A change that moves a snippet updates its row; a claim that a test fails on
a mutated copy adds the mutant as a row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/modasp
    snippet: str  # occurs exactly once in `file`
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


MUTANTS = (
    # The search (`engine.py`).
    Mutant(
        "search-drops-empty-part", "engine.py",
        "atoms = list(members.values()) or [0]", "atoms = list(members.values())",
        (
            "tests/test_engine.py::TestSearch::test_empty_block_mask_checks_the_partial",
            "tests/test_engine.py::TestSearch::test_modular_parts_match_sweep",
        ),
    ),
    Mutant(
        "split-drops-the-empty-part", "engine.py",
        "            rows[k][j].append(entry)",
        "            m and rows[k][j].append(entry)",
        (
            "tests/test_engine.py::TestSearch::test_empty_block_mask_checks_the_partial",
            "tests/test_engine.py::TestSplit::test_empty_part_removes_every_answer",
        ),
    ),
    Mutant(
        "here-world-reads-negation", "engine.py",
        "(there if literal.negations else here)",
        "(there if literal.negations == 2 else here)",
        (
            "tests/test_engine.py::TestHTSatisfaction::test_negation_is_read_at_the_there_world",
            "tests/test_engine.py::TestReferenceAgreement::test_compiled_checker_matches_literal_evaluation",
        ),
    ),
    Mutant(
        "search-lets-rule-free-own-atoms-be-true", "engine.py",
        "        free &= ext_mask\n", "        free &= free\n",
        (
            "tests/test_engine.py::TestSearch::test_blocks_match_plain_sweep",
            "tests/test_control_text.py::test_check_model_accepts_each_printed_answer_set",
        ),
    ),
    Mutant(
        "base-cap-off-by-one", "engine.py",
        "if len(base) > cap:", "if len(base) >= cap:",
        (
            "tests/test_cli.py::TestSolveCommand::test_property_n200_modular_topo_at_the_model_size",
        ),
    ),
    Mutant(
        "brute-walk-cap-off-by-one", "engine.py",
        "if walked > DEFAULT_CAP:", "if walked >= DEFAULT_CAP:",
        (
            "tests/test_cli.py::TestBruteCap::test_cap_is_the_bound",
        ),
    ),
    Mutant(
        "unfounded-closure-starts-from-true", "engine.py",
        "possible & c.ext_mask, c.compiled, c.watch, true, possible",
        "true & c.ext_mask, c.compiled, c.watch, true, possible",
        (
            "tests/test_cli.py::TestOutputPass::test_each_base_atom_rendered_once",
        ),
    ),
    Mutant(
        "unfounded-closure-needs-true", "engine.py",
        "possible & c.ext_mask, c.compiled, c.watch, true, possible",
        "possible & c.ext_mask, c.compiled, c.watch, true, true",
        (
            "tests/test_engine.py::TestSearch::test_blocks_match_plain_sweep",
        ),
    ),
    Mutant(
        "unfounded-closure-blocked-on-possible", "engine.py",
        "possible & c.ext_mask, c.compiled, c.watch, true, possible",
        "possible & c.ext_mask, c.compiled, c.watch, possible, possible",
        (
            "tests/test_acceptance.py::test_criterion_5_theorem1_property_suite",
        ),
    ),
    Mutant(
        "forward-conflict-ignored", "engine.py",
        "if derived & ~possible:", "if False:",
        (
            "tests/test_acceptance.py::test_criterion_6_engine_cross_validation",
            "tests/test_engine.py::TestSearch::test_blocks_match_plain_sweep",
        ),
    ),
    Mutant(
        "watch-files-lowest-pos-bit-only", "engine.py",
        "watch.setdefault(bit, []).append(i)\n                pos ^= bit",
        "watch.setdefault(bit, []).append(i)\n                pos = 0",
        (
            "tests/test_engine.py::TestIndex::test_compiled_parts_index_their_tables",
            "tests/test_engine.py::TestSearch::test_positive_loops_match_sweep",
        ),
    ),
    Mutant(
        "negneg-keeps-last-rule-only", "engine.py",
        "negnegs |= negneg", "negnegs = negneg",
        (
            "tests/test_engine.py::TestSearch::test_rule_order_changes_nothing",
        ),
    ),
    Mutant(
        "constraint-head-is-zero", "engine.py",
        "bottom = 1 << len(index)", "bottom = 0",
        (
            "tests/test_engine.py::TestEnumerate::test_fixpoint_constraint_rejects_least_model",
            "tests/test_cli.py::TestOutputPass::test_lone_empty_answer_set_prints_one_empty_line",
        ),
    ),
    Mutant(
        "closure-condition-dropped", "engine.py",
        "self.allowed = self.full & ~(self.intensional & ~defined)",
        "self.allowed = self.full",
        (
            "tests/test_modular.py::TestModularMembership::test_cross_module_cycle",
        ),
    ),
    Mutant(
        "membership-skips-closure-condition", "engine.py",
        "return compiled.allowed == T and all(", "return all(",
        (
            "tests/test_modular.py::TestModularMembership::test_cross_module_cycle",
        ),
    ),
    Mutant(
        "answers-left-unsorted", "engine.py",
        "return sorted(set(masks), key=_order_key)",
        "return list(set(masks))",
        (
            "tests/test_engine.py::TestOutputOrder::test_agrees_with_sorting_by_set_bits",
        ),
    ),
    Mutant(
        "order-key-puts-empty-mask-last", "engine.py",
        'translate(_FLIP) if mask else ""', 'translate(_FLIP) if mask else "1"',
        (
            "tests/test_engine.py::TestOutputOrder::test_every_mask_below_2_to_the_12",
        ),
    ),
    Mutant(
        "module-regions-shifted-by-one", "engine.py",
        "regions[low.bit_length() - 1] |= bit",
        "regions[low.bit_length() - 2] |= bit",
        (
            "tests/test_pattern_index.py::TestAgainstFullScan::test_solved_region_masks",
        ),
    ),
    Mutant(
        "kappa-region-from-a-second-index", "engine.py",
        "region = P.patterns.outside(1 << len(P.modules), P._predicates, dom)",
        "region = extensional_region(P.kappa, P._predicates, dom)",
        (
            "tests/test_pattern_index.py::test_solving_builds_only_the_program_index",
        ),
    ),
    Mutant(
        "search-ignores-a-root-conflict", "engine.py",
        "        if root is None:\n            return []",
        "        if root is None:\n            continue",
        (
            "tests/test_cli.py::TestIncrementalPlan::test_unsat_plan_is_decided_at_the_root",
        ),
    ),
    Mutant(
        "union-reading-under-a-module-mask", "engine.py",
        "self.full, self.tables, self.ext_masks, self.full & ~self.intensional",
        "self.full, self.tables, self.ext_masks, self.ext_masks[-1]",
        (
            "tests/test_engine.py::TestForwardTables::test_forward_tables_partition_the_concatenated_rules",
            "tests/test_modular.py::TestOneCompile::test_random_coherent_programs",
        ),
    ),
    Mutant(
        "brute-rejects-without-intensional-atoms", "engine.py",
        "if int_mask == 0:\n            return True",
        "if int_mask == 0:\n            return False",
        (
            "tests/test_control_text.py::test_every_engine_agrees_with_brute",
            "tests/test_control_text.py::test_check_model_accepts_each_printed_answer_set",
        ),
    ),
    Mutant(
        "spanning-components-not-seeded", "engine.py",
        "if len(P.modules) > 1 and P.analysis.spanning:", "if False:",
        (
            "tests/test_modular.py::TestCoherence::test_repeated_variable_cycle",
            "tests/test_modular.py::TestModularMembership::test_cross_module_cycle",
        ),
    ),
    Mutant(
        "one-module-solve-analyses", "engine.py",
        "if len(P.modules) > 1 and P.analysis.spanning:",
        "if P.analysis.spanning:",
        (
            "tests/test_modular.py::TestOneModuleReading::test_builds_no_analysis",
            "tests/test_cli.py::TestOneSolvingCall::test_union_solve_analyses_nothing",
        ),
    ),
    Mutant(
        "topo-refusal-dropped", "engine.py",
        'if engine == "topo" and P.analysis.topo_refusal is not None:',
        "if False:",
        (
            "tests/test_modular.py::TestModularAnswerSets::test_topo_requires_coherence",
            "tests/test_modular.py::TestModularAnswerSets::test_topo_refuses_negative_module_cycle",
        ),
    ),
    Mutant(
        "engine-applies-everywhere", "engine.py",
        "if engine not in allowed:", "if False:",
        (
            "tests/test_cli.py::TestLoadOrder::test_topo_in_union_mode_is_usage_error",
            "tests/test_cli.py::TestSolveCommand::test_fixpoint_in_modular_mode_is_usage_error",
        ),
    ),
    # Grounding (`grounding.py`).
    Mutant(
        "match-reads-undecided-arithmetic-as-false", "grounding.py",
        "return True  # as in `N+N`", "return False  # as in `N+N`",
        (
            "tests/test_ground_graph.py::test_every_ground_edge_is_an_analysis_edge",
        ),
    ),
    Mutant(
        "match-drops-interval-check", "grounding.py",
        "dom is not None and not dom.int_lo <= value.value <= dom.int_hi",
        "False",
        (
            "tests/test_grounding.py::TestHandCases::test_values_outside_the_variable_pools",
            "tests/test_grounding.py::TestContract::test_random_rule_programs",
        ),
    ),
    Mutant(
        "match-drops-domain-check", "grounding.py",
        "elif dom is not None and value not in dom:", "elif False:",
        (
            "tests/test_grounding.py::TestHandCases::test_values_outside_the_variable_pools",
        ),
    ),
    Mutant(
        "grounding-skips-watched-rules", "grounding.py",
        "        if not watch:\n            continue",
        "        if True:\n            continue",
        (
            "tests/test_grounding.py::TestContract::test_random_rule_programs",
        ),
    ),
    Mutant(
        "reachable-grounding-drops-seeds", "grounding.py",
        "    for atom in seeds:\n        derive(atom)",
        "    for atom in ():\n        derive(atom)",
        (
            "tests/test_acceptance.py::test_criterion_3_kappa_stability_fixtures",
            "tests/test_cli.py::TestCheckModel::test_accepted_models",
        ),
    ),
    # The records (`terms.py`).
    Mutant(
        "record-constructor-skips-post-init", "terms.py",
        'check = getattr(cls, "__post_init__", None)', "check = None",
        (
            "tests/test_value_classes.py::test_checks_run_when_built_and_when_unpickled",
        ),
    ),
    # The modular layer and instantiation.
    Mutant(
        "identical-instantiations-kept-apart", "instantiation.py",
        "modules = list(\n        dict.fromkeys(", "modules = list(\n        list(",
        (
            "tests/test_control_text.py::test_a_repeated_use_line_changes_nothing",
        ),
    ),
    Mutant(
        "symbolic-value-under-arithmetic-accepted", "instantiation.py",
        "    if integer:\n        name = min(integer)",
        "    if False:\n        name = min(integer)",
        (
            "tests/test_cli.py::TestSolveCommand::test_symbolic_value_for_integer_placeholder",
        ),
    ),
    Mutant(
        "tuples-unify-skips-last-predicate", "modular.py",
        "for key in sorted(P.signature().predicates):",
        "for key in sorted(P.signature().predicates)[:-1]:",
        (
            "tests/test_modular.py::TestCoherence::test_every_predicate_is_checked_for_unifying_tuples",
            "tests/test_modular.py::TestCoherence::test_identical_patterns_unify",
            "tests/test_control_text.py::test_renaming_predicates_renames_the_answer_sets",
        ),
    ),
    Mutant(
        "matching-modules-drops-its-last-module", "modular.py",
        "return _bits(_sharing(P, atom.pred, atom.args))",
        "return _bits(_sharing(P, atom.pred, atom.args))[:-1]",
        (
            "tests/test_ground_graph.py::test_every_ground_edge_is_an_analysis_edge",
        ),
    ),
    Mutant(
        "coherence-lookup-keeps-integer-sorts", "modular.py",
        "[Variable(e.name) if isinstance(e, Variable) else e for e in u_i]",
        "[e for e in u_i]",
        (
            "tests/test_modular.py::TestCoherence::test_integer_sorted_pattern_variable_unifies_with_a_symbol",
        ),
    ),
    Mutant(
        "requirement-skips-every-module", "intensionality.py",
        "if module_kappa == kappa:", "if True:",
        (
            "tests/test_intensionality.py::TestCheckRequirement::test_uncovered_pattern_reported",
            "tests/test_intensionality.py::TestCheckRequirement::test_other_modules_keep_their_index",
        ),
    ),
    Mutant(
        "index-drops-a-shape", "intensionality.py",
        "for k, shape in shaped.items())",
        "for k, shape in list(shaped.items())[1:])",
        (
            "tests/test_intensionality.py::TestRegionLookup::test_each_bit_is_lambda_holds",
            "tests/test_intensionality.py::TestRegionLookup::test_extensional_region_is_a_product_scan",
        ),
    ),
    Mutant(
        "kappa-bit-reaches-sharing-readers", "modular.py",
        "return P.patterns.sharing(pred, args) & ~(1 << len(P.modules))",
        "return P.patterns.sharing(pred, args)",
        (
            "tests/test_pattern_index.py::TestAgainstFullScan::test_dependency_graph_edges",
            "tests/test_pattern_index.py::TestAgainstFullScan::test_coherence_report_text_and_order",
        ),
    ),
    Mutant(
        "region-lookup-skips-open-predicates", "intensionality.py",
        "entry[0] |= 1 << s", "pass",
        (
            "tests/test_pattern_index.py::TestAgainstFullScan::test_compiled_region_masks",
            "tests/test_pattern_index.py::TestAgainstFullScan::test_solved_region_masks",
        ),
    ),
    Mutant(
        "sharing-skips-the-match-scan", "intensionality.py",
        "if statements & ~found and may_share_instance(",
        "if False and may_share_instance(",
        (
            "tests/test_pattern_index.py::TestPatternIndex::test_sharing_is_every_statement_with_a_pattern_that_may_share",
        ),
    ),
    Mutant(
        "unify-ignores-ground-clash", "intensionality.py",
        "        elif a != b:\n            return None\n    return theta",
        "        elif False:\n            return None\n    return theta",
        (
            "tests/test_intensionality.py::TestPatternsUnify::test_distinct_ground_elements_fail",
        ),
    ),
    # The front end (`parsing.py`, `cli.py`).
    Mutant(
        "list-stops-after-first-item", "parsing.py",
        "    items = [item(ts)]\n    while ts.at(\"COMMA\"):",
        "    items = [item(ts)]\n    while False:",
        (
            "tests/test_parsing.py::TestParseProgram::test_rule_before_declaration_is_base",
        ),
    ),
    Mutant(
        "rule-accepts-comparison-head", "parsing.py",
        "if isinstance(head, Comparison):", "if False:",
        (
            "tests/test_parsing.py::TestParseProgram::test_comparison_head_rejected",
        ),
    ),
    Mutant(
        "term-depth-unbounded", "parsing.py",
        "if self.depth > MAX_TERM_DEPTH:", "if False:",
        (
            "tests/test_parsing.py::TestTermDepth::test_one_past_the_bound_is_refused",
        ),
    ),
    Mutant(
        "positioned-errors-lose-position", "parsing.py",
        'raise type(err)(f"line {tok.line}, column {tok.column}: {err}") from None',
        "raise",
        (
            "tests/test_cli.py::TestErrorPaths::test_refused_with_exit_2",
            "tests/test_parsing.py::test_control_error_carries_position",
        ),
    ),
    Mutant(
        "ranged-use-accepts-empty-range", "parsing.py",
        "if lo > hi and not allow_empty:", "if False:",
        (
            "tests/test_parsing.py::TestParseControl::test_reversed_range_needs_allow_empty",
        ),
    ),
    Mutant(
        "parse-takes-control-again", "cli.py",
        '"parse": (_cmd_parse, "list subprograms and their rules", ()),',
        '"parse": (_cmd_parse, "list subprograms and their rules", _PLAN),',
        (
            "tests/test_cli.py::TestEveryOptionIsRead::test_every_option_is_read",
        ),
    ),
    Mutant(
        "check-model-skips-the-signature", "cli.py",
        "atom.pred in predicates for atom in candidate.atoms",
        "True for atom in candidate.atoms",
        (
            "tests/test_cli.py::TestCheckModel::test_atom_of_a_predicate_outside_the_plan_is_rejected",
            "tests/test_control_text.py::test_check_model_accepts_each_printed_answer_set",
        ),
    ),
    Mutant(
        "cap-accepts-minus-one", "cli.py",
        "if int(text) >= 0:", "if int(text) >= -1:",
        (
            "tests/test_cli.py::TestErrors::test_cap_below_zero_is_a_usage_error",
        ),
    ),
    Mutant(
        "read-lets-unicode-error-escape", "cli.py",
        "except (OSError, UnicodeDecodeError) as err:", "except OSError as err:",
        (
            "tests/test_fuzz.py::test_a_non_utf8_file_exits_2",
        ),
    ),
)


def _copy(directory: Path) -> Path:
    copy = directory / "repo"
    shutil.copytree(
        ROOT,
        copy,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"
        ),
    )
    return copy


def _pytest(copy: Path, tests) -> int:
    """The exit code of pytest on `tests` in `copy`, importing its `src`."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def run(mutants) -> int:
    with tempfile.TemporaryDirectory() as directory:
        copy = _copy(Path(directory))
        tests = sorted({t for m in mutants for t in m.tests})
        if _pytest(copy, tests) != 0:
            print("the unmutated copy fails the tests of the table")
            return 2
        worst = 0
        for m in mutants:
            path = copy / "src" / "modasp" / m.file
            original = path.read_text(encoding="utf-8")
            mutated = original.replace(m.snippet, m.replacement)
            path.write_text(mutated, encoding="utf-8")
            code = _pytest(copy, m.tests)
            path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            print(f"{verdict:9} {m.name}", flush=True)
            worst = max(worst, {0: 1, 1: 0}.get(code, 2))
    return worst


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    sys.exit(run([m for m in MUTANTS if not names or m.name in names]))
