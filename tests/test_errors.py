"""Error classes say only their exit code: the rule, and the code each category exits with."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import qgen
import qgen.cli
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


@pytest.mark.parametrize("error, code", [
    (InputError("bad input"), 2),
    (ProviderError(503, "unavailable"), 3),
    (PipelineStateError("stale artifact"), 4),
])
def test_each_category_exits_with_its_code(monkeypatch, capsys, error, code):
    def stage(cfg):
        raise error

    monkeypatch.setitem(qgen.cli._COMMANDS, "report", stage)
    assert main(["report"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"
