"""Child-process side of the traced run: spans, Fraction counting and the sweep.

Run as a script in a fresh interpreter with hyperbern on ``PYTHONPATH``:

    python probe.py trace SPANS_JSON PASS_ID -- CLI_ARGS...
    python probe.py count COUNT_JSON -- CLI_ARGS...
    python probe.py sweep FN SIZE

``trace`` wraps the public module-level functions of the four hyperbern
modules, runs one CLI command in-process and writes the spans.  ``count``
counts ``Fraction.__new__`` calls during one CLI command.  ``sweep`` times one
call of one kernel or builder at one size and prints the seconds as JSON.
CLI output goes to stdout exactly as ``python -m hyperbern.cli`` writes it.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("algebra", "core", "identities", "cli")

# Only public module-level functions are wrapped: wrapping private hot helpers
# (``_int_dot_rev`` gets ~225k calls on the default verify) doubles the run.
_EXTRA_PUBLIC = {"cli": ("render_csv", "render_json", "parse_csv", "parse_json", "_emit")}

# builders whose argument sets are recorded, for the distinct-call ratio
DISTINCT_TRACKED = ("hb_numbers", "hb_polys", "hb_higher_polys_series", "a_poly", "a_poly_at_zero")


class Recorder:
    """Spans kept in memory: (name index, start, end, parent index, ok)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.arg_sets: dict[str, set] = {name: set() for name in DISTINCT_TRACKED}

    def wrap(self, layer: str, attr: str, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{attr}")
        spans, stack = self.spans, self.stack
        perf_counter = time.perf_counter
        arg_set = self.arg_sets.get(attr) if layer == "core" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if arg_set is not None:
                arg_set.add(repr((args, sorted(kwargs.items()))))
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                spans[idx] = (name_id, start, perf_counter(), parent, ok)
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each public function and rebind it in every module that holds it."""
        import inspect

        import hyperbern
        from hyperbern import algebra, cli, core, identities

        modules = {"algebra": algebra, "core": core, "identities": identities, "cli": cli}
        holders = [hyperbern, *modules.values()]
        for layer, mod in modules.items():
            names = tuple(getattr(mod, "__all__", ())) + _EXTRA_PUBLIC.get(layer, ())
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(layer, attr, fn)
                for holder in holders:
                    for key, value in vars(holder).items():
                        if value is fn:
                            setattr(holder, key, wrapper)

    def dump(self, path: str, pass_id: int) -> None:
        doc = {
            "pass": pass_id,
            "names": self.names,
            "spans": self.spans,
            "distinct": {k: len(v) for k, v in self.arg_sets.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _run_cli(args: list[str]) -> int:
    from hyperbern import cli

    try:
        cli.cli.main(args=args, prog_name="hyperbern")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    return 0


def _trace(path: str, pass_id: int, args: list[str]) -> int:
    rec = Recorder()
    rec.install()
    code = _run_cli(args)
    sys.stdout.flush()
    rec.dump(path, pass_id)
    return code


def _count(path: str, args: list[str]) -> int:
    from fractions import Fraction

    import hyperbern.cli  # noqa: F401  (import-time Fractions are not counted)

    original = Fraction.__new__
    calls = 0

    def counting_new(cls, *a, **k):
        nonlocal calls
        calls += 1
        return original(cls, *a, **k)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        code = _run_cli(args)
    finally:
        Fraction.__new__ = original
    sys.stdout.flush()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"new_calls": calls}, fh)
    return code


# kernel and builder calls of the scaling sweep, at level N = 3 and order r = 3.
# Inputs are built before the clock starts; each call returns the length of the
# sequence it built, which the parent checks.
def _sweep_call(fn: str, size: int):
    from hyperbern import algebra, core

    if fn == "series_invert":
        a = core.normalized_denominator(3, size)
        return lambda: len(algebra.series_invert(a).coeffs), size + 1
    if fn == "series_pow":
        f = algebra.series_invert(core.normalized_denominator(3, size))
        return lambda: len(algebra.series_pow(f, 3).coeffs), size + 1
    if fn == "hb_numbers":
        return lambda: len(core.hb_numbers(3, size).values), size + 1
    if fn == "hb_higher_polys_series":
        return lambda: len(core.hb_higher_polys_series(3, 3, size).polys), size + 1
    if fn == "hb_higher_polys_recurrence":
        return lambda: len(core.hb_higher_polys_recurrence(3, 3, size).polys), size + 1
    if fn == "a_poly":  # its size is the order r; the table has r entries
        return lambda: len(core.a_poly(3, size).entries), size
    raise ValueError(f"unknown sweep function {fn!r}")


def _sweep(fn: str, size: int) -> int:
    call, expected_len = _sweep_call(fn, size)
    start = time.perf_counter()
    got_len = call()
    seconds = time.perf_counter() - start
    ok = got_len == expected_len
    print(json.dumps({"seconds": seconds, "ok": ok}))
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "trace":
        return _trace(argv[1], int(argv[2]), argv[argv.index("--") + 1:])
    if mode == "count":
        return _count(argv[1], argv[argv.index("--") + 1:])
    if mode == "sweep":
        return _sweep(argv[1], int(argv[2]))
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
