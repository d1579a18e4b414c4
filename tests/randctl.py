"""Seeded generator of program and control file pairs, written as text, for
the end-to-end suite of collective control (`test_control_text.py`).

Each program has a `base` subprogram of facts and one or two parametric
subprograms `m1(k)`, `m2(k)` whose rules use `k` under arithmetic.  Each
control file has a `const n = v.` line, one ranged `use` line per
parametric subprogram (with `allow empty` whenever its range is empty, and
sometimes otherwise), optional `intensional` and `module` lines, and
`domain 0..4.`  Every range lies in 0..3, so each `k+1` is in the domain.

Module patterns of two subprograms often unify and `module` lines need not
match the rules, so about half the programs are incoherent; a partial
`intensional` statement can leave a module pattern uncovered, which the
modular reading refuses.
"""

import random
from typing import NamedTuple

MAX_N = 4

# Rules of a parametric subprogram over its parameter k; each is safe.
RULES = (
    "q(X,k+1) :- q(X,k).",
    "p(k+1) :- q(X,k).",
    "p(k+1) :- p(k), not r(k+1).",
    "r(k+1) :- p(k), not p(k+1).",
    "q(X,k+1) :- e(X), not r(k).",
    "r(k) :- q(k,k).",
    ":- r(k+1), p(k+1).",
    "p(k+1) :- e(k+1), not not p(k).",
)

# Patterns a `module` line may give a parametric subprogram.
MODULE_PATTERNS = ("q(X,k+1)", "p(k+1)", "r(k+1)", "r(k)", "q(X,k)")

FACTS = ("q(0,0).", "q(1,0).", "p(0).", "r(2).", "e(1).")


class Use(NamedTuple):
    """One ranged `use` line: `use name(k) for k in lo..n-1.`"""

    name: str
    lo: int
    allow_empty: bool

    def ranged(self) -> str:
        tail = " allow empty" if self.allow_empty else ""
        return f"use {self.name}(k) for k in {self.lo}..n-1{tail}."

    def expanded(self, n: int) -> list[str]:
        """One plain `use` line per value of the range at `n`."""
        return [f"use {self.name}({i})." for i in range(self.lo, n)]


class Case(NamedTuple):
    """A generated program file with the parts of its control file."""

    program: str
    n: int
    uses: tuple[Use, ...]
    statements: tuple[str, ...]  # `intensional` and `module` lines

    def control(self, n=None, expanded=False) -> str:
        """The control file with `const n = n.` (default: the generated
        value), and its ranged `use` lines, or one plain `use` line per
        value when `expanded`."""
        n = self.n if n is None else n
        lines = [f"const n = {n}.", "use base."]
        for use in self.uses:
            lines.extend(use.expanded(n) if expanded else [use.ranged()])
        lines.extend(self.statements)
        lines.append("domain 0..4.")
        return "\n".join(lines) + "\n"


def random_case(rng: random.Random) -> Case:
    n = rng.randint(0, MAX_N)
    names = ["m1", "m2"][: rng.randint(1, 2)]
    lines = ["#program base."] + rng.sample(FACTS, rng.randint(1, 3))
    uses = []
    statements = []
    for name in names:
        rules = [RULES[0]] + rng.sample(RULES[1:], rng.randint(0, 3))
        lines += [f"#program {name}(k)."] + rules
        lo = rng.randint(0, 1)
        uses.append(Use(name, lo, lo >= n or rng.random() < 0.2))
        if rng.random() < 0.4:
            patterns = rng.sample(MODULE_PATTERNS, rng.randint(1, 2))
            statements.append(f"module {name}: {', '.join(patterns)}.")
    if rng.random() < 0.5:
        statements += ["intensional q(X,Y).", "intensional p(X)."]
        statements += rng.choice(
            (["intensional r(X)."], ["intensional r(1).", "intensional r(2)."])
        )
        if rng.random() < 0.5:
            statements.append("intensional e(X).")
    rng.shuffle(statements)
    return Case("\n".join(lines) + "\n", n, tuple(uses), tuple(statements))
