"""Command-line behaviour: output surfaces, exit codes, determinism."""

import argparse
import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modasp.cli as cli
import modasp.engine as engine_mod
import modasp.modular as modular_mod
from modasp.cli import build_parser, main
from modasp.grounding import ground
from modasp.program import PredAtom

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_lists_subprograms(self, capsys):
        code, out, _ = run(capsys, "parse", fixture("property.lp"))
        assert code == 0
        assert out.splitlines() == [
            "#program base.",
            "q(0,0).",
            "#program property(k).",
            "q(N,k+1) :- q(N-1,k).",
        ]

    def test_machine_output(self, capsys):
        code, out, _ = run(
            capsys, "parse", fixture("property.lp"), "--output", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "parse"
        assert [s["name"] for s in doc["subprograms"]] == ["base", "property"]
        assert doc["subprograms"][1]["params"] == ["k"]


class TestInstantiateCommand:
    def test_union_lists_display_2(self, capsys):
        code, out, _ = run(
            capsys,
            "instantiate",
            fixture("property.lp"),
            "--control",
            fixture("property.ctl"),
            "-c",
            "n=2",
            "--mode",
            "union",
        )
        assert code == 0
        assert out.splitlines() == [
            "q(0,0).",
            "q(N,0+1) :- q(N-1,0).",
            "q(N,1+1) :- q(N-1,1).",
        ]

    def test_modular_dump(self, capsys):
        code, out, _ = run(
            capsys,
            "instantiate",
            fixture("property.lp"),
            "--control",
            fixture("property.ctl"),
            "-c",
            "n=1",
            "--mode",
            "modular",
            "--output",
            "machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == {"q/2": ["q(X1,X2)"]}
        assert doc["modules"][0]["kappa"] == {"q/2": ["q(0,0)"]}
        # Patterns are substituted and simplified; rules keep raw arithmetic.
        assert doc["modules"][1]["kappa"] == {"q/2": ["q(X1,1)"]}
        assert doc["modules"][1]["rules"] == ["q(N,0+1) :- q(N-1,0)."]


class TestSolveCommand:
    def test_property_n100_fixpoint(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            fixture("property.lp"),
            "--control",
            fixture("property.ctl"),
            "-c",
            "n=100",
            "--mode",
            "union",
            "--engine",
            "fixpoint",
        )
        assert code == 0
        expected = " ".join(f"q({i},{i})" for i in range(101))
        assert out == expected + "\n"

    def test_property_n200_modular_topo_at_the_model_size(self, capsys):
        # The modules reach only the 201 atoms of the one model; grounding
        # them in full gave a base of 40,001 heads, over the cap.
        code, out, _ = run(
            capsys, "solve", fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", "n=200", "--mode", "modular",
            "--engine", "topo", "--cap", "201",
        )
        assert code == 0
        assert out == " ".join(f"q({i},{i})" for i in range(201)) + "\n"

    def test_modes_agree_on_small_property(self, capsys):
        results = {}
        for mode, engine in (("union", "reduct"), ("modular", "reduct")):
            code, out, _ = run(
                capsys,
                "solve",
                fixture("property.lp"),
                "--control",
                fixture("property3.ctl"),
                "--mode",
                mode,
                "--engine",
                engine,
            )
            assert code == 0
            results[mode] = out
        assert results["union"] == results["modular"]
        assert results["union"] == "q(0,0) q(1,1) q(2,2) q(3,3)\n"

    def test_modes_agree_on_p1(self, capsys):
        outputs = {}
        for mode in ("union", "modular"):
            code, out, _ = run(
                capsys,
                "solve",
                fixture("p1.lp"),
                "--control",
                fixture("p1.ctl"),
                "--mode",
                mode,
            )
            assert code == 0
            outputs[mode] = out
        assert outputs["union"] == outputs["modular"]
        assert outputs["union"] == "q(0,0) q(0,1) q(0,2) q(0,3) q(0,4)\n"

    def test_symbolic_value_for_integer_placeholder(self, capsys, tmp_path):
        control = tmp_path / "sym.ctl"
        control.write_text("use base. use property(a). domain 0..2.", encoding="utf-8")
        code, _, err = run(
            capsys,
            "solve",
            fixture("property.lp"),
            "--control",
            str(control),
            "--mode",
            "modular",
        )
        assert code == 2
        assert "integer-sorted" in err

    def test_deterministic_output(self, capsys):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(
                capsys,
                "solve",
                fixture("gamma1.lp"),
                "--control",
                fixture("gamma1.ctl"),
                "--engine",
                "reduct",
            )
            outputs.add(out)
        assert len(outputs) == 1

    def test_fixpoint_in_modular_mode_is_usage_error(self, capsys):
        code, _, err = run(
            capsys,
            "solve",
            fixture("property.lp"),
            "--control",
            fixture("property3.ctl"),
            "--mode",
            "modular",
            "--engine",
            "fixpoint",
        )
        assert code == 2
        assert "union" not in err.split()  # message names modular engines

    def test_capacity_exit_code(self, capsys):
        code, _, err = run(
            capsys,
            "solve",
            fixture("gamma1.lp"),
            "--control",
            fixture("gamma1.ctl"),
            "--engine",
            "brute",
            "--cap",
            "4",
        )
        assert code == 3
        assert "capacity" in err


class TestCheckCoherence:
    def test_p1_coherent(self, capsys):
        code, out, _ = run(
            capsys,
            "check-coherence",
            fixture("p1.lp"),
            "--control",
            fixture("p1.ctl"),
        )
        assert code == 0
        assert out == "coherent\n"

    def test_incoherent_exit_1(self, capsys, tmp_path):
        program = tmp_path / "two.lp"
        program.write_text(
            "#program a.\nq(0,1).\n#program b.\nq(1,1).\n", encoding="utf-8"
        )
        control = tmp_path / "two.ctl"
        control.write_text(
            "use a.\nuse b.\ndomain 0..1.\n"
            "module a: q(X,1).\nmodule b: q(Y,1).\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "check-coherence", str(program), "--control", str(control)
        )
        assert code == 1
        assert "tuples-unify" in out


class TestCompare:
    def test_property_n3(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            fixture("property.lp"),
            "--control",
            fixture("property3.ctl"),
            "--engine",
            "brute",
        )
        assert code == 0
        assert "equal: yes" in out
        assert "q(0,0) q(1,1) q(2,2) q(3,3)" in out

    def test_fixpoint_refused_before_modular_construction(self, capsys):
        # property.lp has no subprogram gamma1.ctl's modules could come
        # from, so the modular construction would fail; the engine check
        # comes first, as in `solve`.
        code, _, err = run(
            capsys,
            "compare",
            fixture("property.lp"),
            "--control",
            fixture("gamma1.ctl"),
            "--engine",
            "fixpoint",
        )
        assert code == 2
        assert "brute, reduct, topo" in err

    def test_machine_report(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            fixture("p1.lp"),
            "--control",
            fixture("p1.ctl"),
            "--output",
            "machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["equal"] is True
        assert doc["modular"] == [
            ["q(0,0)", "q(0,1)", "q(0,2)", "q(0,3)", "q(0,4)"]
        ]


class TestCheckModel:
    def test_rejected_model_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "check-model",
            fixture("gamma1.lp"),
            "--control",
            fixture("gamma1.ctl"),
            "--model",
            "q(0,1)",
        )
        assert code == 1
        assert out == "not a kappa-stable model\n"

    def test_accepted_models(self, capsys):
        for model in ("q(1,3)", "q(0,0) q(0,1) q(0,2)"):
            code, out, _ = run(
                capsys,
                "check-model",
                fixture("gamma1.lp"),
                "--control",
                fixture("gamma1.ctl"),
                "--model",
                model,
            )
            assert code == 0
            assert out == "kappa-stable model\n"

    def test_modular_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "check-model",
            fixture("p1.lp"),
            "--control",
            fixture("p1.ctl"),
            "--mode",
            "modular",
            "--model",
            "q(0,0) q(0,1) q(0,2) q(0,3) q(0,4)",
        )
        assert code == 0
        assert out == "answer set\n"
        code, out, _ = run(
            capsys,
            "check-model",
            fixture("p1.lp"),
            "--control",
            fixture("p1.ctl"),
            "--mode",
            "modular",
            "--model",
            "q(1,4)",
        )
        assert code == 1
        assert out == "not an answer set\n"

    def test_out_of_domain_model_is_an_error(self, capsys):
        code, _, err = run(
            capsys,
            "check-model",
            fixture("p1.lp"),
            "--control",
            fixture("p1.ctl"),
            "--mode",
            "modular",
            "--model",
            "q(1,5)",
        )
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize(
        "mode, yes, no",
        [
            ("union", "kappa-stable model\n", "not a kappa-stable model\n"),
            ("modular", "answer set\n", "not an answer set\n"),
        ],
        ids=["union", "modular"],
    )
    def test_atom_of_a_predicate_outside_the_plan_is_rejected(
        self, capsys, tmp_path, mode, yes, no
    ):
        # `solve` never prints `zzz(1)`, so no candidate holding it is an
        # answer set; the domain check still comes first.
        lp, ctl = tmp_path / "even.lp", tmp_path / "even.ctl"
        lp.write_text(
            "p(X) :- e(X), not q(X).\nq(X) :- e(X), not p(X).\n", encoding="utf-8"
        )
        ctl.write_text(
            "use base. domain 0..1. intensional p(X). intensional q(X).\n",
            encoding="utf-8",
        )
        files = str(lp), "--control", str(ctl), "--mode", mode
        code, out, _ = run(capsys, "solve", *files)
        assert (code, len(out.splitlines())) == (0, 9)
        assert "zzz" not in out
        for model, verdict in (("e(1) p(1)", (0, yes)), ("e(1) p(1) zzz(1)", (1, no))):
            code, out, _ = run(capsys, "check-model", *files, "--model", model)
            assert (code, out) == verdict, model
        code, out, err = run(capsys, "check-model", *files, "--model", "zzz(7)")
        assert (code, out) == (2, "")
        assert "outside the declared domain" in err

    def test_property_n200_union_grounds_only_what_the_model_reaches(self, capsys):
        # The full grounding has 40,001 instances and took about 2 s; the
        # candidate reaches 201 of them.
        model = " ".join(f"q({i},{i})" for i in range(201))
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "check-model", fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", "n=200", "--model", model,
        )
        elapsed = time.perf_counter() - start
        assert (code, out) == (0, "kappa-stable model\n")
        assert elapsed < 0.5, f"took {elapsed:.2f}s"

    @pytest.mark.parametrize("mode", ["union", "modular"])
    @pytest.mark.parametrize("engine", ["brute", "reduct"])
    def test_grounds_nothing_in_full(self, capsys, monkeypatch, mode, engine):
        import modasp.engine as engine_mod
        import modasp.grounding as grounding_mod
        import modasp.modular as modular_mod

        calls = []

        def counting_ground(pi, dom):
            calls.append(pi)
            return ground(pi, dom)

        assert not hasattr(modular_mod, "ground")
        for module in (engine_mod, grounding_mod):
            monkeypatch.setattr(module, "ground", counting_ground)
        codes = []
        for model in ("q(0,0) q(1,1) q(2,2) q(3,3)", "q(0,0) q(1,1)"):
            code, _, _ = run(
                capsys, "check-model", fixture("property.lp"), "--control",
                fixture("property3.ctl"), "--mode", mode, "--engine", engine,
                "--model", model,
            )
            codes.append(code)
        assert codes == [0, 1]
        assert calls == []


class TestModularLoad:
    """Modular commands take their domain from the module rules and build
    no union program of their own."""

    COMMANDS = [
        ["solve", "--mode", "modular"],
        ["compare"],
        ["check-model", "--mode", "modular", "--model", "q(0,0)"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_no_union_program(self, capsys, monkeypatch, argv):
        import modasp.cli as cli_mod

        monkeypatch.setattr(cli_mod, "collective_union", None)
        command, *options = argv
        code, out, _ = run(
            capsys, command, fixture("p1.lp"), "--control", fixture("p1.ctl"),
            *options,
        )
        assert code in (0, 1) and out

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_missing_domain_comes_before_construction(self, capsys, tmp_path, argv):
        # Without a domain the usage error wins over the construction
        # error this plan would raise (exit 1).
        program = tmp_path / "r.lp"
        program.write_text("q(0,1).\n", encoding="utf-8")
        control = tmp_path / "r.ctl"
        control.write_text("use base.\nintensional q(X,2).\n", encoding="utf-8")
        command, *options = argv
        code, out, err = run(
            capsys, command, str(program), "--control", str(control), *options
        )
        assert (code, out) == (2, "")
        assert "must declare a domain" in err


class TestLoadOrder:
    """`solve`, `compare` and `check-model` share one load path.  It
    refuses a plan without a domain, then an engine the reading does not
    take, and only then builds the reading; `check-model` parses its
    candidate before all of these."""

    def test_model_typo_wins_over_construction_error(self, capsys, tmp_path):
        # The modular construction of this plan fails (exit 1).
        program = tmp_path / "r.lp"
        program.write_text("q(0,1).\n", encoding="utf-8")
        control = tmp_path / "r.ctl"
        control.write_text(
            "use base.\ndomain 0..1.\nintensional q(X,2).\n", encoding="utf-8"
        )
        code, out, err = run(
            capsys, "check-model", str(program), "--control", str(control),
            "--mode", "modular", "--model", "q(0,",
        )
        assert (code, out) == (2, "")
        assert "construction" not in err

    def test_topo_in_union_mode_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "solve", fixture("p1.lp"), "--control", fixture("p1.ctl"),
            "--mode", "union", "--engine", "topo",
        )
        assert (code, out) == (2, "")
        assert "brute, reduct, fixpoint" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--engine", "fixpoint"],
            ["solve", "--mode", "modular", "--engine", "fixpoint"],
            ["compare", "--engine", "fixpoint"],
        ],
    )
    def test_missing_domain_comes_before_engine(self, capsys, tmp_path, argv):
        control = tmp_path / "nodomain.ctl"
        control.write_text("use base.\n", encoding="utf-8")
        command, *options = argv
        code, out, err = run(
            capsys, command, fixture("gamma1.lp"), "--control", str(control),
            *options,
        )
        assert (code, out) == (2, "")
        assert "must declare a domain" in err


class TestCheckModelModesAgree:
    """Both modes validate the candidate and ground every part before any
    part may reject it, so they fail on the same inputs."""

    LP = "#program base.\np(1).\n#program s(k).\nq(X) :- not r(X).\n"

    def check(self, capsys, tmp_path, control, model):
        lp = tmp_path / "u.lp"
        lp.write_text(self.LP, encoding="utf-8")
        ctl = tmp_path / "u.ctl"
        ctl.write_text(control, encoding="utf-8")
        results = []
        for mode in ("union", "modular"):
            for engine in ("brute", "reduct"):
                results.append(
                    run(
                        capsys, "check-model", str(lp), "--control", str(ctl),
                        "--mode", mode, "--engine", engine, "--model", model,
                    )
                )
        return results

    def test_unsafe_module_is_an_error(self, capsys, tmp_path):
        # The base module alone rejects the empty candidate; the unsafe
        # rule of s(1) is reported all the same.
        for code, out, err in self.check(
            capsys, tmp_path, "use base. use s(1). domain 0..2.", ""
        ):
            assert (code, out) == (2, "")
            assert "positive body atom" in err

    def test_out_of_domain_candidate_without_modules(self, capsys, tmp_path):
        for code, out, err in self.check(capsys, tmp_path, "domain 0..2.", "p(7)"):
            assert (code, out) == (2, "")
            assert "outside the declared domain" in err


class TestBruteCap:
    """`brute` walks the subsets of a part's intensional atoms in the
    candidate, so it refuses more than `DEFAULT_CAP` of them up front."""

    @staticmethod
    def check(capsys, n, mode, engine):
        model = " ".join(f"q({i},{i})" for i in range(n + 1))
        return run(
            capsys, "check-model", fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", f"n={n}", "--mode", mode,
            "--engine", engine, "--model", model,
        )

    def test_union_over_the_cap_exits_3_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = self.check(capsys, 24, "union", "brute")
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "")
        assert "25 intensional atoms" in err
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_modular_parts_hold_one_atom_each(self, capsys):
        assert self.check(capsys, 200, "modular", "brute")[:2] == (0, "answer set\n")

    @pytest.mark.parametrize(
        "mode, verdict", [("union", "kappa-stable model"), ("modular", "answer set")]
    )
    def test_reduct_is_not_capped(self, capsys, mode, verdict):
        assert self.check(capsys, 24, mode, "reduct")[:2] == (0, verdict + "\n")

    def test_cap_is_the_bound(self, capsys, monkeypatch):
        # Three intensional atoms: walked at cap 3, refused at cap 2.
        import modasp.engine as engine_mod

        monkeypatch.setattr(engine_mod, "DEFAULT_CAP", 3)
        assert self.check(capsys, 2, "union", "brute")[0] == 0
        monkeypatch.setattr(engine_mod, "DEFAULT_CAP", 2)
        assert self.check(capsys, 2, "union", "brute")[0] == 3

    def test_solve_refuses_at_the_leaf(self, capsys, monkeypatch):
        # The one model of the n=2 chain holds three intensional atoms; the
        # base cap (10) allows it, the walk cap (2) does not.
        import modasp.engine as engine_mod

        monkeypatch.setattr(engine_mod, "DEFAULT_CAP", 2)
        code, out, err = run(
            capsys, "solve", fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", "n=2", "--mode", "union",
            "--engine", "brute", "--cap", "10",
        )
        assert (code, out) == (3, "")
        assert "3 intensional atoms of one part (cap 2)" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "parse", "no-such-file.lp")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("parse", "lp"),
            ("solve", "lp"),
            ("solve", "ctl"),
            ("check-coherence", "lp"),
            ("check-coherence", "ctl"),
        ],
    )
    def test_non_utf8_file_exit_2(self, capsys, tmp_path, command, bad):
        paths = {}
        for ext, text in (("lp", "q(0,0).\n"), ("ctl", "use base.\ndomain 0..1.\n")):
            paths[ext] = tmp_path / f"f.{ext}"
            if ext == bad:
                paths[ext].write_bytes(b"\xff\xfe")
            else:
                paths[ext].write_text(text, encoding="utf-8")
        control = [] if command == "parse" else ["--control", str(paths["ctl"])]
        code, out, err = run(capsys, command, str(paths["lp"]), *control)
        assert (code, out) == (2, "")
        assert f"cannot read {paths[bad]}: " in err
        assert "Traceback" not in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text("p(X :- q.", encoding="utf-8")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_requirement_violation_exit_1(self, capsys, tmp_path):
        program = tmp_path / "r.lp"
        program.write_text("q(0,1).\n", encoding="utf-8")
        control = tmp_path / "r.ctl"
        control.write_text(
            "use base.\ndomain 0..1.\nintensional q(X,2).\n", encoding="utf-8"
        )
        code, _, err = run(
            capsys, "solve", str(program), "--control", str(control),
            "--mode", "modular",
        )
        assert code == 1
        assert "construction" in err

    def test_missing_domain(self, capsys, tmp_path):
        control = tmp_path / "nodomain.ctl"
        control.write_text("use base.\n", encoding="utf-8")
        code, _, err = run(
            capsys,
            "solve",
            fixture("gamma1.lp"),
            "--control",
            str(control),
        )
        assert code == 2
        assert "domain" in err

    def test_bad_const_override(self, capsys):
        code, _, err = run(
            capsys,
            "solve",
            fixture("property.lp"),
            "--control",
            fixture("property.ctl"),
            "-c",
            "n=ten",
        )
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["instantiate", "--engine", "reduct"],
            ["instantiate", "--cap", "4"],
            ["check-model", "--model", "q(0,0)", "--cap", "4"],
            ["compare", "--mode", "union"],
        ],
    )
    def test_unread_options_are_refused(self, capsys, argv):
        command, *options = argv
        code, out, err = run(
            capsys, command, fixture("p1.lp"), "--control", fixture("p1.ctl"), *options
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("options", [["--control", "p1.ctl"], ["-c", "n=3"]])
    def test_parse_refuses_plan_options(self, capsys, options):
        code, out, err = run(capsys, "parse", fixture("p1.lp"), *options)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--engine", "reduct"],
            ["solve", "--engine", "fixpoint"],
            ["compare", "--engine", "reduct"],
        ],
    )
    @pytest.mark.parametrize("cap", ["-1", "-25", "four"])
    def test_cap_below_zero_is_a_usage_error(self, capsys, argv, cap):
        command, *options = argv
        code, out, err = run(
            capsys, command, fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", "n=3", *options, "--cap", cap,
        )
        assert (code, out) == (2, "")
        assert err == f"error: argument --cap: expected an integer >= 0, got {cap!r}\n"

    def test_cap_zero_is_accepted(self, capsys):
        code, out, err = run(
            capsys, "solve", fixture("property.lp"), "--control",
            fixture("property.ctl"), "-c", "n=3", "--engine", "fixpoint",
            "--cap", "0",
        )
        assert (code, err) == (0, "")
        assert out.startswith("q(0,0) q(1,1)")

    def test_unknown_command_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate", "x.lp")
        assert code == 2


_ERROR_LP = "#program base.\np.\n#program s(k).\nq(k).\n#program t(a,b).\nr(a,b).\n"


def _bad_program(text, position):
    return ["parse", "e.lp"], {"e.lp": text}, position


def _bad_control(text, position, *options):
    argv = ["solve", "e.lp", "--control", "e.ctl", *options]
    return argv, {"e.lp": _ERROR_LP, "e.ctl": text}, position


# A symbolic value for a placeholder that occurs under arithmetic.
_SYMBOLIC_FILES = {
    "e.lp": "#program m(k). r(k+1) :- p(k).",
    "e.ctl": "use m(a). domain 0..2. intensional r(X).",
}


def _symbolic(command, mode):
    argv = [command, "e.lp", "--control", "e.ctl", "--mode", mode]
    return argv, _SYMBOLIC_FILES, "line 1, column 1"


class TestErrorPaths:
    """Every refusal exits 2; those inside a file say where.  File names in
    `argv` are made in a fresh directory from `files` (None: a directory,
    which cannot be read as a file)."""

    @pytest.mark.parametrize(
        "argv, files, position",
        [
            _bad_program("use base @.", "line 1, column 10"),
            _bad_program("p(,).", "line 1, column 3"),
            _bad_program("1 :- q.", "line 1, column 1"),
            _bad_program("#program s(k,k).", "line 1, column 14"),
            _bad_program("p(f(1)+1).", "line 1, column 1"),
            _bad_program("q.\n  p(f(X+1)) :- q(X).", "line 2, column 3"),
            _symbolic("solve", "union"),
            _symbolic("solve", "modular"),
            _symbolic("instantiate", "union"),
            (
                ["check-model", "e.lp", "--control", "e.ctl", "--model", "1<2"],
                {"e.lp": _ERROR_LP, "e.ctl": "domain 0..1."},
                "line 1, column 1",
            ),
            _bad_control("use s(X).", "line 1, column 1"),
            _bad_control("const n < 3.", "line 1, column 9"),
            _bad_control("domain 0..1.\ndomain 0..2.", "line 2, column 1"),
            _bad_control("frobnicate.", "line 1, column 1"),
            _bad_control("use s(k) for k of 0..1.", "line 1, column 16"),
            _bad_control("use s(k) for k in 0..1 allow full.", "line 1, column 30"),
            _bad_control("use s(1) for k in 0..1.", "line 1, column 5"),
            _bad_control("use t(k) for k in 0..1.", "line 1, column 1"),
            _bad_control("domain 0..1.", None, "-c", "n"),
            (["solve", "e.lp"], {"e.lp": _ERROR_LP}, None),
            _bad_control(None, None),
        ],
    )
    def test_refused_with_exit_2(self, capsys, tmp_path, argv, files, position):
        code, out, err = self.run_files(capsys, tmp_path, argv, files)
        assert (code, out) == (2, "")
        if position is None:
            assert "column" not in err
        else:
            assert err.startswith(f"error: {position}: ")

    def test_symbolic_value_is_refused_alike_in_both_modes(self, capsys, tmp_path):
        errs = {
            self.run_files(capsys, tmp_path, *_symbolic("solve", mode)[:2])[2]
            for mode in ("union", "modular")
        }
        assert errs == {
            "error: line 1, column 1: placeholder k is integer-sorted (it occurs "
            "under arithmetic) but the valuation assigns a\n"
        }

    @staticmethod
    def run_files(capsys, tmp_path, argv, files):
        for name, text in files.items():
            if text is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        return run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))

    def test_negative_constant_solves(self, capsys, tmp_path):
        lp = tmp_path / "e.lp"
        lp.write_text(_ERROR_LP, encoding="utf-8")
        ctl = tmp_path / "e.ctl"
        ctl.write_text("const n = -3.\nuse s(n).\ndomain n..0.\n", encoding="utf-8")
        assert run(capsys, "solve", str(lp), "--control", str(ctl))[:2] == (0, "q(-3)\n")


_EVEN_LP = "p(X) :- not r(X), s(X).\nr(X) :- not p(X), s(X).\n"
_EVEN_CTL = "use base.\ndomain 0..5.\nintensional p(X).\nintensional r(X).\n"


def _even_files(directory):
    """Two even negative loops over 0..5: an 18-atom base, 729 answer sets."""
    lp, ctl = directory / "even.lp", directory / "even.ctl"
    lp.write_text(_EVEN_LP, encoding="utf-8")
    ctl.write_text(_EVEN_CTL, encoding="utf-8")
    return [str(lp), "--control", str(ctl)]


class TestOutputPass:
    """Answers leave the search as masks, and output renders each base atom
    once; text output builds no machine document and never imports json."""

    @pytest.mark.parametrize(
        "command, header",
        [
            (["solve"], None),
            (["solve", "--mode", "modular"], None),
            (["compare"], "modular answer sets (729):"),
        ],
    )
    def test_each_base_atom_rendered_once(
        self, capsys, tmp_path, monkeypatch, command, header
    ):
        rendered = collections.Counter()
        render, search = PredAtom.__str__, engine_mod._search

        def counting(atom):
            rendered[atom] += 1
            return render(atom)

        def searching(*args):
            found = search(*args)
            rendered.clear()  # grounding renders too; output starts here
            return found

        monkeypatch.setattr(PredAtom, "__str__", counting)
        monkeypatch.setattr(engine_mod, "_search", searching)
        monkeypatch.setattr(modular_mod, "_search", searching)
        code, out, _ = run(capsys, command[0], *_even_files(tmp_path), *command[1:])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == header if header else len(lines) == 729
        assert len(rendered) == 18 and set(rendered.values()) == {1}

    def test_lone_empty_answer_set_prints_one_empty_line(self, capsys, tmp_path):
        lp, ctl = tmp_path / "c.lp", tmp_path / "c.ctl"
        lp.write_text(":- s(X).\n", encoding="utf-8")
        ctl.write_text("use base.\ndomain 0..2.\nintensional p(X).\n", encoding="utf-8")
        for mode in ("union", "modular"):
            argv = ["solve", str(lp), "--control", str(ctl), "--mode", mode]
            assert run(capsys, *argv)[:2] == (0, "\n")

    def test_text_output_leaves_json_unimported(self, tmp_path):
        files = _even_files(tmp_path)
        model = ["--model", "s(0) p(0)"]
        commands = [
            ["parse", files[0]],
            ["instantiate", *files, "--mode", "modular"],
            ["solve", *files],
            ["check-coherence", *files],
            ["compare", *files],
            ["check-model", *files, *model],
        ]
        script = (
            "import sys\n"
            "from modasp.cli import main\n"
            f"codes = [main(argv) for argv in {commands!r}]\n"
            "print(codes, 'json' in sys.modules, file=sys.stderr)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert child.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"
        assert child.stdout.count("\n") > 2 * 729


class TestOneSolvingCall:
    """Every solving command builds one reading and reaches `_solve` once;
    the union reading is the one-module program, whose solve analyses no
    modular program."""

    @pytest.mark.parametrize(
        "command", [["solve"], ["solve", "--mode", "modular"], ["compare"]]
    )
    def test_each_command_solves_once(self, capsys, monkeypatch, command):
        calls = []
        solve = engine_mod._solve

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(cli, "_solve", counting)
        monkeypatch.setattr(modular_mod, "_solve", counting)
        files = fixture("p1.lp"), "--control", fixture("p1.ctl")
        code, out, _ = run(capsys, command[0], *files, *command[1:])
        assert code == 0 and "q(0,0) q(0,1) q(0,2) q(0,3) q(0,4)" in out
        assert len(calls) == 1

    def test_union_solve_analyses_nothing(self, capsys, monkeypatch):
        def forbidden(P):
            raise AssertionError("a union solve analyses no modular program")

        monkeypatch.setattr(modular_mod, "_analyse", forbidden)
        for engine in ("brute", "reduct"):
            code, out, _ = run(
                capsys, "solve", fixture("p1.lp"), "--control", fixture("p1.ctl"),
                "--mode", "union", "--engine", engine,
            )
            assert (code, out) == (0, "q(0,0) q(0,1) q(0,2) q(0,3) q(0,4)\n")


class _RecordingNamespace(argparse.Namespace):
    """A namespace that records each attribute read once `reads` is set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


def _subparsers(parser):
    (action,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


# A value for each option without choices; an option with choices takes its
# first.  A new option without either fails the test until it is added here.
_OPTION_VALUES = {
    "control": fixture("property3.ctl"),
    "const": "n=2",
    "cap": "24",
    "model": "q(0,0) q(1,1)",
}


def _unread_options(parser, command, monkeypatch, capsys):
    """The options of `command` that `main`, run with `parser` and given
    every one of them on the property fixture, never reads."""
    argv, dests = [command, fixture("property.lp")], {"program"}
    for action in _subparsers(parser)[command]._actions:
        if action.option_strings and action.dest != "help":
            choices = action.choices
            value = choices[0] if choices else _OPTION_VALUES[action.dest]
            argv += [action.option_strings[-1], value]
            dests.add(action.dest)
    namespace = _RecordingNamespace()

    def parse_args(args):
        argparse.ArgumentParser.parse_args(parser, args, namespace=namespace)
        namespace.reads = set()
        return namespace

    monkeypatch.setattr(parser, "parse_args", parse_args)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    return sorted(dests - namespace.reads)


class TestEveryOptionIsRead:
    """Every option of every command is read when the command runs: an
    option that the handler ignores would be accepted and do nothing."""

    @pytest.mark.parametrize("command", sorted(_subparsers(build_parser())))
    def test_every_option_is_read(self, monkeypatch, capsys, command):
        assert _unread_options(build_parser(), command, monkeypatch, capsys) == []

    def test_an_ignored_option_is_named(self, monkeypatch, capsys):
        parser = build_parser()
        _subparsers(parser)["parse"].add_argument("--extra", choices=("x",))
        assert _unread_options(parser, "parse", monkeypatch, capsys) == ["extra"]
