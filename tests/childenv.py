"""The environment of a child interpreter that runs the same modasp as the
test process: the `src` directory of the imported package comes first on
`PYTHONPATH`, as an absolute path, so that a child started in any working
directory imports that code and not another checkout's."""

import os
from pathlib import Path

import modasp

SRC = Path(modasp.__file__).resolve().parent.parent


def child_env(**extra: str) -> dict[str, str]:
    """`os.environ` with `extra` added and `SRC` first on `PYTHONPATH`."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env
