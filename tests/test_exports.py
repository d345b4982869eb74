"""Every exception class that funalg defines is exported from funalg.

A public function may raise any of them, so a caller can catch each by
the name funalg exports.  Two classes never leave their module and are
named here as the exemptions: specialize.Abort, which a compiled run
raises and the evaluator catches, and cli.CliError, which the CLI turns
into its exit code.
"""

import importlib
import pkgutil

import funalg

_INTERNAL = {"funalg.specialize.Abort", "funalg.cli.CliError"}


def test_every_exception_class_is_exported():
    errors = set()
    for info in pkgutil.iter_modules(funalg.__path__):
        module = importlib.import_module(f"funalg.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                errors.add(f"{module.__name__}.{name}")
    assert _INTERNAL <= errors
    missing = sorted(e for e in errors - _INTERNAL
                     if e.rpartition(".")[2] not in funalg.__all__)
    assert not missing, f"not in funalg.__all__: {missing}"
