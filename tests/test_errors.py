"""Error classes say only their exit code: the rule, and the code each category exits with."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qgen
import qgen.cli
import qgen.mcq
from qgen.cli import main
from qgen.errors import InputError, PipelineStateError, ProviderError


def test_only_the_exit_code_categories_are_error_classes():
    defined = set()
    for info in pkgutil.iter_modules(qgen.__path__, "qgen."):
        module = importlib.import_module(info.name)
        defined |= {
            f"{info.name}.{name}" for name, obj in vars(module).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == info.name
        }
    # McqValidationError never leaves the MCQ parser, which reads its category.
    assert defined == {
        "qgen.errors.QgenError",
        "qgen.errors.InputError",
        "qgen.errors.ProviderError",
        "qgen.errors.PipelineStateError",
        "qgen.mcq.McqValidationError",
    }


def test_only_the_mcq_constructor_refuses_an_invariant():
    tree = ast.parse(Path(qgen.mcq.__file__).read_text(encoding="utf-8"))
    mcq = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Mcq")
    post_init = next(n for n in mcq.body if isinstance(n, ast.FunctionDef) and n.name == "__post_init__")
    invariants = {"BAD_OPTION_COUNT", "DUPLICATE_OPTION", "ANSWER_NOT_IN_OPTIONS"}

    def uses(node):
        return [
            n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and n.attr in invariants
            or isinstance(n, ast.Name) and n.id in invariants and isinstance(n.ctx, ast.Load)
        ]

    inside = uses(post_init)
    assert set(inside) == invariants
    # Every use in the module is one of the constructor's.
    assert sorted(uses(tree)) == sorted(inside)


@pytest.mark.parametrize("error, code", [
    (InputError("bad input"), 2),
    (ProviderError(503, "unavailable"), 3),
    (PipelineStateError("stale artifact"), 4),
])
def test_each_category_exits_with_its_code(monkeypatch, capsys, error, code):
    def run(cfg, work, providers):
        raise error

    stage = qgen.cli.Stage("report", reads=lambda cfg, work: [], writes=lambda cfg, work: [], run=run)
    monkeypatch.setitem(qgen.cli.COMMANDS, "report", (stage,))
    assert main(["report"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
