"""Run one knotcert CLI job with a span around every public function.

    python3 bench/tracer.py SPANS_OUT -- <knotcert arguments...>

After importing knotcert, every public module-level function of each
layer (one layer per ``src/knotcert`` module; public means the name does
not start with ``_``; classes are not wrapped) is replaced by a wrapper
that records a span.  The wrapper is rebound everywhere the function is
referenced: in every knotcert module that imported the name, and in
module-level dicts such as ``certify.CERTIFIERS``, through which the CLI
dispatches.  Then ``knotcert.cli.main`` runs on the job's arguments.

Spans (name, start, end, parent, counters) stay in memory and are
written to SPANS_OUT as JSON when the job ends.  Nothing is written to
stdout, so the job's own output is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "words", "magnus", "decomp", "lyndon", "schreier",
    "trivializer", "bounds", "seifert", "certify", "cli",
)


def _letters(value) -> int:
    """Letters in a word, or in a tuple of words; 0 for anything else."""
    if not isinstance(value, (tuple, list)):
        return 0
    if value and isinstance(value[0], (tuple, list)):
        return sum(_letters(w) for w in value)
    return len(value)


def _letters_in(values, result) -> dict:
    """Letters in the first argument of a words function."""
    return {"letters_in": _letters(values[0]) if values else 0}


# Work counters, keyed by span name, read from a call's arguments (in
# parameter order) and its result.
COUNTERS = {
    "magnus.expand": lambda values, result: {"letters": _letters(values[0]), "degree": values[1]},
    "schreier.rewrite_to_word": lambda values, result: {"letters_out": len(result)},
    "lyndon.left_normed_combination": lambda values, result: {"terms": len(result)},
    "decomp.decompose": lambda values, result: {
        "letters_in": _letters(values[0]),
        "factors": len(result.factors),
        "residual": len(result.residual),
    },
    "trivializer.verify_family": lambda values, result: {"deletions": result.checked},
    "seifert.int_det": lambda values, result: {"dim": len(values[0])},
    "seifert.poly_matrix_det": lambda values, result: {"dim": len(values[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counters]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name, _letters_in if name.startswith("words.") else None)
        bind = inspect.signature(fn).bind if counter is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(list(bind(*args, **kwargs).arguments.values()), result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap each layer's public functions and rebind every reference."""
        wrapped = {}
        for layer in LAYERS:
            module = modules[f"knotcert.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    wrapped[id(value)] = (value, self.wrap(f"{layer}.{attr}", value))
        for mod_name, module in modules.items():
            if mod_name != "knotcert" and not mod_name.startswith("knotcert."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT -- ARGS...")
    argv = sys.argv[3:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import knotcert.cli

    import_s = time.perf_counter() - t0
    tracer.install(sys.modules)
    code = None
    try:
        code = knotcert.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
