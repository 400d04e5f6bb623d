"""Spans and counters recorded from outside the package.

install() rebinds module attributes of the package to timing wrappers inside
the benchmark process.  Every binding of a wrapped function is replaced,
including names one module imported from another (for example
tubes.pointwise_extrinsic_mean or cli.compare_tubes), so spans follow the
real call path.  A span records name, start, end, parent span and op id;
spans and counters stay in memory until write() at the end of the run.
Untraced runs never call install().
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ["rotubes", "rotubes.so3", "rotubes.curves", "rotubes.gkf", "rotubes.tubes",
           "rotubes.simulation", "rotubes.battery", "rotubes.io", "rotubes.cli"]


def _stack_size(trailing: int):
    def points(args, kwargs, result) -> int:
        a = np.asarray(args[0] if args else next(iter(kwargs.values())))
        return int(a.size // trailing)
    return points


def _grid_points(args, kwargs, result) -> int:
    return len(args[0].grid)


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


# (span or counter name, module, attribute, kind, points function)
# kind "span" times the call; kind "count" only counts calls and points.
HOOKS = [
    ("so3.exp", "rotubes.so3", "exp_so3", "span", _stack_size(3)),
    ("so3.log", "rotubes.so3", "log_so3", "span", _stack_size(9)),
    ("so3.check_rotation", "rotubes.so3", "check_rotation", "span", _stack_size(9)),
    ("so3.project", "rotubes.so3", "project_to_so3", "span", _stack_size(9)),
    ("curves.extrinsic_mean", "rotubes.curves", "pointwise_extrinsic_mean", "span", None),
    ("curves.apply_action", "rotubes.curves", "apply_action", "span", None),
    ("gkf.solve_quantile", "rotubes.gkf", "solve_quantile", "span", None),
    ("gkf.expected_ec", "rotubes.gkf", "expected_ec", "count", None),
    ("gkf.lkc", "rotubes.gkf", "lkc_estimate", "span", None),
    ("tubes.ingredients", "rotubes.tubes", "tube_ingredients", "span", None),
    ("tubes.spd_check", "rotubes.tubes", "_check_spd", "count", None),
    ("tubes.assemble", "rotubes.tubes", "assemble_tube", "span", None),
    ("tubes.build", "rotubes.tubes", "build_tube", "span", None),
    ("tubes.contains", "rotubes.tubes", "tube_contains", "span", None),
    ("tubes.compare", "rotubes.tubes", "compare_tubes", "span", _grid_points),
    ("tubes.act_on_tube", "rotubes.tubes", "act_on_tube", "span", None),
    ("simulation.sample", "rotubes.simulation", "sample_gp_sample", "span", None),
    ("simulation.coverage", "rotubes.simulation", "coverage_experiment", "span", None),
    ("battery.run", "rotubes.battery", "run_battery", "span", None),
    ("io.ingest", "rotubes.io", "ingest_curve_csv", "span", None),
    ("io.ingest.parse", "rotubes.io", "_parse_numeric_rows", "count", _result_len),
    ("io.json_write", "rotubes.io", "atomic_write_json", "span", _file_bytes),
    ("io.json_read", "rotubes.io", "tube_from_json", "span", None),
    ("io.json_read", "rotubes.io", "action_from_json", "span", None),
]

# Counts of a hook's calls (or points) made while a given span is open.
NESTED = [
    ("io.ingest.rows_projected", "so3.project", "io.ingest"),
    ("gkf.expected_ec.in_solve", "gkf.expected_ec", "gkf.solve_quantile"),
    ("tubes.compare.exp_calls", "so3.exp", "tubes.compare"),
]

CLI_COMMANDS = ("tube", "compare")


class HookError(RuntimeError):
    """A hook target no longer exists or no module binds it."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # Span columns, one entry per finished span.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        self.stack: list[list] = []         # [span id, child time] of open spans
        self.op = 0                         # id of the op now running
        self.calls: list[int] = []
        self.points: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.open: list[int] = []
        self.extra: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.points, self.errors, self.open):
                col.append(0)
            self.self_s.append(0.0)
        return self._index[name]

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def calls_of(self, name: str) -> int:
        return self.calls[self._index[name]] if name in self._index else 0

    def points_of(self, name: str) -> int:
        return self.points[self._index[name]] if name in self._index else 0

    def self_of(self, name: str) -> float:
        return self.self_s[self._index[name]] if name in self._index else 0.0

    def errors_of(self, name: str) -> int:
        return self.errors[self._index[name]] if name in self._index else 0

    # -- wrappers ------------------------------------------------------------

    def _nested(self, name: str) -> list[tuple[str, int]]:
        return [(key, self.index(parent)) for key, hook, parent in NESTED if hook == name]

    def _post(self, idx: int, nested, points_fn, args, kwargs, result) -> None:
        self.calls[idx] += 1
        pts = points_fn(args, kwargs, result) if points_fn is not None else 1
        self.points[idx] += pts
        for key, parent in nested:
            if self.open[parent]:
                self.add(key, pts)

    def span_wrapper(self, name: str, fn, points_fn, on_exit=None):
        idx = self.index(name)
        nested = self._nested(name)

        def wrapper(*args, **kwargs):
            return self._run_span(idx, nested, points_fn, on_exit, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _run_span(self, idx, nested, points_fn, on_exit, fn, args, kwargs):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        self.open[idx] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[idx] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            self.open[idx] -= 1
            duration = end - start
            own = duration - frame[1]
            self.self_s[idx] += own
            if self.stack:
                self.stack[-1][1] += duration
            self.span_id.append(span_id)
            self.span_name.append(idx)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(start)
            self.span_end.append(end)
        self._post(idx, nested, points_fn, args, kwargs, result)
        if on_exit is not None:
            on_exit(args, result, own)
        return result

    def count_wrapper(self, name: str, fn, points_fn):
        idx = self.index(name)
        nested = self._nested(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._post(idx, nested, points_fn, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def cli_wrapper(self, fn):
        """cli_main: one span per command, named cli.<command>."""
        spans = {cmd: self.index(f"cli.{cmd}") for cmd in CLI_COMMANDS}

        def wrapper(argv=None):
            idx = spans.get(argv[0]) if argv else None
            if idx is None:
                return fn(argv)
            return self._run_span(idx, [], None, None, fn, (argv,), {})
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]

        def sample_exit(args, result, own):
            if args[0].i == 3:
                self.add("simulation.sample.self_s_ou", own)

        def compare_exit(args, result, own):
            self.add("tubes.compare.nonoverlap_points", int(np.count_nonzero(~result.overlap)))

        exits = {"simulation.sample": sample_exit, "tubes.compare": compare_exit}
        targets = []
        for name, module, attr, kind, points_fn in HOOKS:
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                raise HookError(f"hook target {module}.{attr} no longer exists")
            if kind == "span":
                wrapper = self.span_wrapper(name, fn, points_fn, exits.get(name))
            else:
                wrapper = self.count_wrapper(name, fn, points_fn)
            targets.append((fn, wrapper))
        cli = importlib.import_module("rotubes.cli")
        targets.append((cli.cli_main, self.cli_wrapper(cli.cli_main)))

        for fn, wrapper in targets:
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise HookError(f"no module binds {fn.__module__}.{fn.__name__}")

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """All spans and counters, as numpy arrays plus name tables."""
        np.savez_compressed(
            path, names=np.array(self.names), span_id=np.frombuffer(self.span_id, np.int64),
            span_name=np.frombuffer(self.span_name, np.int32),
            span_parent=np.frombuffer(self.span_parent, np.int64),
            span_op=np.frombuffer(self.span_op, np.int64),
            span_start=np.frombuffer(self.span_start, np.float64),
            span_end=np.frombuffer(self.span_end, np.float64),
            calls=np.array(self.calls), points=np.array(self.points),
            errors=np.array(self.errors), self_s=np.array(self.self_s),
            extra_names=np.array(sorted(self.extra)),
            extra_values=np.array([self.extra[k] for k in sorted(self.extra)]))
