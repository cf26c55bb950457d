"""Every CLI output on the bundled models, byte for byte.

``tests/golden/cli.json`` holds the exit code, stdout and stderr of:

- ``check`` on each bundled model;
- ``repair --kind all`` on each, with the text of every file it writes;
- ``seed`` on each but ``client_db``, with the files it writes (criterion
  11 pins the ``client_db`` campaign);
- ``admissible`` on every ordered pair.

The output directory reads as ``<out>`` and the model path as ``<model>``.
A change that means to alter an output regenerates the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of ``tests/golden/cli.json`` shows what it altered.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from tarepair import BUNDLED_MODELS, bundled_model_path
from tarepair.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
OUT = object()


def _invocations():
    """``(key, argv, model path)`` per pinned command; ``OUT`` in ``argv``
    stands for the output directory."""
    for name in BUNDLED_MODELS:
        model = str(bundled_model_path(name))
        yield f"check {name}", ["check", model], model
        yield f"repair {name}", ["repair", model, "--kind", "all", "--out", OUT], model
        if name != "client_db":
            yield f"seed {name}", ["seed", model, "--out", OUT], model
    for a in BUNDLED_MODELS:
        for b in BUNDLED_MODELS:
            argv = ["admissible", str(bundled_model_path(a)), str(bundled_model_path(b))]
            yield f"admissible {a} {b}", argv, argv[1]


def outputs() -> dict[str, dict]:
    """The pinned outputs of the current code, keyed by command."""
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, argv, model) in enumerate(_invocations()):
            out_dir = Path(tmp) / str(i)
            argv = [str(out_dir) if a is OUT else a for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)

            def normal(text: str) -> str:
                return text.replace(str(out_dir), "<out>").replace(model, "<model>")

            entry = {"exit": code, "stdout": normal(stdout.getvalue()), "stderr": normal(stderr.getvalue())}
            if out_dir.is_dir():
                entry["files"] = {p.name: normal(p.read_text(encoding="utf-8")) for p in sorted(out_dir.iterdir())}
            result[key] = entry
    return result


def test_bundled_model_outputs_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
