"""Every function of the program is reached by what the program is for.

The census runs, in this process, one tiny set-up and one pass of each
workload of the benchmark (``perfbench/workload.py``, imported read-only)
and then the articulatory chain on the decode-lex40 set-up's models:
``invert``, ``train-am`` and ``decode`` with ``--features
fbk+w2v-bn+artic``. A ``sys.setprofile`` hook records the code object of
every Python call; the memoised functions' caches are emptied first, so
that what an earlier caller left there is not taken for unreached code.
Every function defined in ``src/sslasr/*.py`` (class
bodies, lambdas and comprehensions excluded) must be among them, except

- a function that a per-layer metric of ``BENCHMARK.json`` names (read
  from the file, so the exemption shrinks with the metrics), because a
  traced benchmark run looks it up; and
- an entry of ``ALLOWLIST``, which states why it stays. An entry that the
  census reaches, or that is no longer defined, fails too.

Run it as a script, ``python tests/test_reach.py``, to print the census:
each function no run reaches, with its ``file:line`` and the exemption
that covers it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import logging
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sslasr"
sys.path.insert(0, str(ROOT / "perfbench"))

import workload  # noqa: E402 - puts src/ on the path when run as a script
from sslasr.config import load_config, merge_config  # noqa: E402

# "module.qualname" -> why the function stays although no run reaches it
ALLOWLIST: dict[str, str] = {}


def defined_functions(path):
    """The code objects of every function defined in the source file
    ``path``, nested ones included; class bodies, lambdas and
    comprehensions are left out."""
    found, stack = [], [compile(path.read_text(), str(path), "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                    found.append(const)
    return found


def _key(code):
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_qualname


def _artic_chain(lex40):
    """``invert``, then ``train-am`` and ``decode`` of the three-stream
    features, on the models and corpus of a DecodeLex40 set-up."""
    root, corpus, common = lex40.root, lex40.corpus, lex40.common
    models = ["--model", root / "ft.spm", "--adapter", root / "adapter.spm"]
    lex40.cli("invert", *common, "--corpus", corpus, *models, "--mdn-out", root / "mdn.spm")
    artic = ["--corpus", corpus, "--features", "fbk+w2v-bn+artic", *models,
             "--mdn", root / "mdn.spm"]
    lex40.cli("train-am", *common, *artic, "--out", root / "am_artic.spm")
    lex40.cli("decode", *common, *artic, "--lexicon", corpus / "lexicon.json",
              "--am", root / "am_artic.spm", "--out", root / "artic.jsonl")


def _runs(work):
    # a memoised function that an earlier caller filled would not be called
    for module in [m for name, m in sys.modules.items() if name.startswith("sslasr.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    specs = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    for name, cls in workload.WORKLOADS.items():
        spec = specs[name]
        cfg = load_config(None, merge_config(merge_config(spec["config"], spec["tiny"]),
                                             {"seed": spec["seed"]}))
        run = cls(spec, cfg, spec["jobs"], 1, work / name)
        run.setup(0)
        run.test_ids()
        run.run_pass(0)
        if isinstance(run, workload.DecodeLex40):
            _artic_chain(run)


def census():
    """``(path, line, dotted name, exemption)`` of every function of
    ``src/sslasr`` that the runs do not reach, in file order; the
    exemption is None, a BENCHMARK.json metric or an ALLOWLIST reason.
    Also returns the dotted names of the functions reached."""
    reached = set()

    def hook(frame, event, _arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    # the CLI's progress lines and WER tables are not the census
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            _runs(Path(tmp))
        finally:
            sys.setprofile(previous)
    reached = {_key(code) for code in reached}
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    unreached, reached_names = [], set()
    for path in sorted(SRC.glob("*.py")):
        for code in sorted(defined_functions(path), key=lambda c: c.co_firstlineno):
            name = f"{path.stem}.{code.co_qualname}"
            if _key(code) in reached:
                reached_names.add(name)
                continue
            metric = next((m for m in metrics if m.startswith(name + ".")), None)
            why = f"BENCHMARK.json names {metric}" if metric else ALLOWLIST.get(name)
            unreached.append((path.relative_to(ROOT), code.co_firstlineno, name, why))
    return unreached, reached_names


@pytest.fixture(scope="module")
def result():
    return census()


def test_every_function_is_reached(result):
    unreached, _ = result
    bare = [f"{path}:{line} {name}" for path, line, name, why in unreached if why is None]
    assert not bare, ("functions that no workload reaches; delete them, or allowlist one "
                      "with its reason:\n" + "\n".join(bare))


def test_allowlist_is_short_and_current(result):
    unreached, reached = result
    assert len(ALLOWLIST) < 10
    assert all(ALLOWLIST.values()), "every allowlist entry states its reason"
    reached_entries = sorted(set(ALLOWLIST) & reached)
    assert not reached_entries, f"allowlisted but reached: {reached_entries}"
    undefined = sorted(set(ALLOWLIST) - reached - {name for _, _, name, _ in unreached})
    assert not undefined, f"allowlisted but not defined: {undefined}"


def test_defined_functions_skip_bodies_lambdas_and_comprehensions(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class A:\n"
        "    @property\n"
        "    def v(self):\n"
        "        return [x for x in (1,)]\n"
        "    @v.setter\n"
        "    def v(self, x):\n"
        "        pass\n"
        "def f():\n"
        "    def g():\n"
        "        return lambda: 0\n"
        "    return (y for y in g())\n"
    )
    found = [(c.co_firstlineno, c.co_qualname) for c in defined_functions(path)]
    assert sorted(found) == [(2, "A.v"), (5, "A.v"), (8, "f"), (9, "f.<locals>.g")]


def main():
    logging.basicConfig(level=logging.WARNING)
    unreached, reached = census()
    print(f"{len(reached)} functions reached, {len(unreached)} not:")
    for path, line, name, why in unreached:
        print(f"{path}:{line} {name}  [{why or 'NOT EXEMPT'}]")


if __name__ == "__main__":
    main()
