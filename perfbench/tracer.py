"""Traced mode: spans around the package's public functions, from outside.

The package imports names with ``from .x import y``, so each module holds
its own binding of every function it calls. Patching only the defining
module would miss most calls; ``install`` rebinds the name in every
``syndemic`` module whose attribute is the original function, and
``uninstall`` puts the originals back. Each call of a wrapped function
records a span (name, start, end, parent, item id). ``full_rhs`` is called
thousands of times per integration, so it keeps a count and a total time
instead of spans; that time is charged to the enclosing span as child time.
A span's self time is its duration minus its child spans and the
``full_rhs`` calls made directly inside it.
"""
import json
import os
import time
from pathlib import Path

SPANNED = {
    "dynamics": ("integrate", "steady_state_by_integration"),
    "equilibria": ("hiv_free", "tb_free_numeric", "syndemic"),
    "stability": ("fd_jacobian", "eigenvalues", "bifurcation_analysis"),
    "reproduction": ("ngm_decomposition",),
    "scenarios": ("run_treatment_impact", "write_scenario_csv"),
    "cli": ("main",),
}
SOLVES = ("equilibria.hiv_free", "equilibria.tb_free_numeric", "equilibria.syndemic")

PER_LAYER = (
    ("model.full_rhs.calls", "count"),
    ("model.full_rhs.us_per_call", "us"),
    ("dynamics.integrate.self_ms", "ms"),
    ("dynamics.integrate.self_us_per_step", "us"),
    ("dynamics.integrate.steps_accepted", "count"),
    ("dynamics.integrate.steps_rejected", "count"),
    ("dynamics.integrate.rhs_evals", "count"),
    ("dynamics.steady_state.ms", "ms"),
    ("dynamics.steady_state.chunks", "count"),
    ("dynamics.steady_state.unsettled", "count"),
    ("equilibria.solve.self_ms", "ms"),
    ("equilibria.relax_share", "ratio"),
    ("equilibria.jacobian_builds", "count"),
    ("stability.fd_jacobian.calls", "count"),
    ("stability.fd_jacobian.self_ms", "ms"),
    ("stability.eigenvalues.self_ms", "ms"),
    ("stability.bifurcation_analysis.self_ms", "ms"),
    ("reproduction.ngm_decomposition.self_ms", "ms"),
    ("scenarios.run_treatment_impact.self_ms", "ms"),
    ("scenarios.write_scenario_csv.ms", "ms"),
    ("scenarios.write_scenario_csv.bytes", "bytes"),
    ("cli.simulate.self_ms", "ms"),
    ("cli.simulate.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _extra(name, args, out):
    """Work counters a span keeps from the call's arguments or result."""
    if name == "dynamics.integrate":
        return {k: out.stats[k] for k in ("accepted", "rejected", "rhs_evals")}
    if name == "dynamics.steady_state_by_integration":
        return {"converged": bool(out[1])}
    if name == "scenarios.write_scenario_csv":
        return {"bytes": sum(os.path.getsize(f) for f in out)}
    if name == "cli.main":
        argv = list(args[0])
        out_dir = Path(argv[argv.index("--out") + 1])
        return {"bytes": sum(os.path.getsize(out_dir / f)
                             for f in ("trajectory.csv", "trajectory.svg"))}
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in
                                    ("model", *SPANNED)]
        self.spans = []        # [name, start_ns, end_ns, parent, item, self_ns, extra]
        self.stack = []        # [span index, child ns] of the open spans
        self.item = None
        self.rhs_calls = 0
        self.rhs_ns = 0
        self.wrappers = {}     # original function -> wrapper
        self.patched = []      # (module, attribute, original)
        for module, names in SPANNED.items():
            for name in names:
                fn = getattr(getattr(package, module), name)
                self.wrappers[fn] = self._span(f"{module}.{name}", fn)
        full_rhs = package.model.full_rhs
        self.wrappers[full_rhs] = self._counted(full_rhs)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([index, 0])
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                extra = _extra(name, args, out) if out is not None else None
                spans[index] = [name, start, end, parent, self.item,
                                end - start - child, extra]
        return wrapped

    def _counted(self, fn):
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.rhs_calls += 1
                self.rhs_ns += elapsed
                if stack:
                    stack[-1][1] += elapsed
        return wrapped

    def install(self):
        for module in self.modules:
            for attr, value in vars(module).items():
                wrapper = self.wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self.patched.append((module, attr, value))
        for module, attr, value in self.patched:
            setattr(module, attr, self.wrappers[value])

    def uninstall(self):
        for module, attr, value in self.patched:
            setattr(module, attr, value)
        self.patched.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "item", "self_ns", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"name": "model.full_rhs", "calls": self.rhs_calls,
                                 "total_ns": self.rhs_ns}) + "\n")

    def summary(self, items, rounds):
        """Per-layer metrics over the traced items: per item, except the
        unsettled relaxations (per round) and the per-call and per-step
        figures."""
        spans = self.spans
        by_name = {}
        for span in spans:
            by_name.setdefault(span[0], []).append(span)

        def named(name):
            return by_name.get(name, ())

        def self_ms(*names):
            return sum(s[5] for name in names for s in named(name)) / items / 1e6

        def duration(span):
            return span[2] - span[1]

        def counter(name, key):
            return sum(s[6][key] for s in named(name) if s[6])

        def under(span, names):
            parent = span[3]
            while parent != -1:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        integrate, steady = "dynamics.integrate", "dynamics.steady_state_by_integration"
        trial_steps = counter(integrate, "accepted") + counter(integrate, "rejected")
        integrate_self_ns = sum(s[5] for s in named(integrate))
        solve_ns = sum(duration(s) for name in SOLVES for s in named(name))
        relax_ns = sum(duration(s) for s in named(steady) if under(s, SOLVES))
        chunks = sum(1 for s in named(integrate) if s[3] != -1 and spans[s[3]][0] == steady)
        return {
            "model.full_rhs.calls": self.rhs_calls / items,
            "model.full_rhs.us_per_call": self.rhs_ns / self.rhs_calls / 1e3 if self.rhs_calls else 0.0,
            "dynamics.integrate.self_ms": self_ms(integrate),
            "dynamics.integrate.self_us_per_step":
                integrate_self_ns / trial_steps / 1e3 if trial_steps else 0.0,
            "dynamics.integrate.steps_accepted": counter(integrate, "accepted") / items,
            "dynamics.integrate.steps_rejected": counter(integrate, "rejected") / items,
            "dynamics.integrate.rhs_evals": counter(integrate, "rhs_evals") / items,
            "dynamics.steady_state.ms": sum(duration(s) for s in named(steady)) / items / 1e6,
            "dynamics.steady_state.chunks": chunks / items,
            "dynamics.steady_state.unsettled":
                sum(1 for s in named(steady) if s[6] and not s[6]["converged"]) / rounds,
            "equilibria.solve.self_ms": self_ms(*SOLVES),
            "equilibria.relax_share": relax_ns / solve_ns if solve_ns else 0.0,
            "equilibria.jacobian_builds":
                sum(1 for s in named("stability.fd_jacobian") if under(s, SOLVES)) / items,
            "stability.fd_jacobian.calls": len(named("stability.fd_jacobian")) / items,
            "stability.fd_jacobian.self_ms": self_ms("stability.fd_jacobian"),
            "stability.eigenvalues.self_ms": self_ms("stability.eigenvalues"),
            "stability.bifurcation_analysis.self_ms": self_ms("stability.bifurcation_analysis"),
            "reproduction.ngm_decomposition.self_ms": self_ms("reproduction.ngm_decomposition"),
            "scenarios.run_treatment_impact.self_ms": self_ms("scenarios.run_treatment_impact"),
            "scenarios.write_scenario_csv.ms":
                sum(duration(s) for s in named("scenarios.write_scenario_csv")) / items / 1e6,
            "scenarios.write_scenario_csv.bytes": counter("scenarios.write_scenario_csv", "bytes") / items,
            "cli.simulate.self_ms": self_ms("cli.main"),
            "cli.simulate.bytes": counter("cli.main", "bytes") / items,
        }
