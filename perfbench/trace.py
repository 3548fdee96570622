"""Spans around the calls into each finitebath module, installed from outside.

``Tracer.install`` replaces the module (and class) attributes through which
the pipeline calls each layer with thin wrappers that record a span: name,
start, end, parent span and run id.  Nothing under ``src/`` changes; the
wrappers live only in the benchmark's own process and ``uninstall`` puts
the originals back.  Spans are kept in memory until the caller writes them.

A span's layer is the part of its name before the dot; a layer's self time
is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("cli", "bath", "rates", "emme", "exact", "bms", "thermo")


def wrap_targets(fb) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped call.

    ``fb`` maps module names to the imported ``finitebath`` modules.  Names
    imported into ``cli`` or ``emme`` with ``from ... import`` are wrapped
    where the caller looks them up.  ``exact`` diagonalizes through
    ``numpy.linalg.eigh``, which nothing else in the package calls.
    """
    cli, rates, emme, exact, bms, thermo = (
        fb["cli"], fb["rates"], fb["emme"], fb["exact"], fb["bms"], fb["thermo"]
    )
    return [
        (cli, "run", "cli.run"),
        (cli, "build_scenario", "cli.build_scenario"),
        (cli.ScenarioRun, "diagnostics", "cli.diagnostics"),
        (cli, "write_trajectory_csv", "cli.write"),
        (cli, "write_joined_csv", "cli.write"),
        (cli, "write_thermo_csv", "cli.write"),
        (cli, "write_mi_csv", "cli.write"),
        (cli, "build_spectrum", "bath.build_spectrum"),
        (cli, "sample_coupling", "bath.sample_coupling"),
        (cli, "rate_table_rmt", "rates.table"),
        (cli, "rate_table_heuristic", "rates.table"),
        (cli, "rate_table_quadrature", "rates.table"),
        (cli, "correlation_exact", "rates.correlation"),
        (rates, "correlation_exact", "rates.correlation"),
        (rates, "gamma_quadrature", "rates.quadrature"),
        (emme, "lamb_shift", "rates.lamb_shift"),
        (emme, "transition_rates", "rates.transition_rates"),
        (cli, "evolve", "emme.evolve"),
        (cli, "spin_oracle_trajectory", "emme.oracle"),
        (emme.EmmeGenerator, "__init__", "emme.generator_build"),
        (emme.EmmeGenerator, "derivative_blocks", "emme.rhs"),
        (emme.PopulationRateModel, "__init__", "emme.rate_model"),
        (emme.PopulationRateModel, "dpdt", "emme.pop_rate"),
        (cli, "prepare_initial", "exact.prepare_initial"),
        (cli, "run_exact", "exact.run"),
        (exact, "assemble", "exact.assemble"),
        (exact.np.linalg, "eigh", "exact.diag"),
        (exact, "coarse_grain", "exact.coarse_grain"),
        (exact, "quantum_mutual_information", "exact.mi"),
        (cli, "choose_reference_temperature", "bms.reference_temperature"),
        (cli, "bms_rates_from_table", "bms.rates"),
        (cli, "evolve_bms", "bms.evolve"),
        (bms, "bms_generator", "bms.rhs"),
        (cli, "build_ledger", "thermo.ledger"),
        (thermo, "effective_temperature", "thermo.eff_temp"),
        (bms, "effective_temperature", "thermo.eff_temp"),
        (thermo, "clausius_chain", "thermo.clausius"),
    ]


class Tracer:
    """In-memory span recorder; a span is [name, start, end, parent, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.run_id = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, targets):
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def summary(self, run_id: int) -> dict:
        """Total time, self time and call count per span name for one run."""
        index = [n for n, s in enumerate(self.spans) if s[4] == run_id]
        child_time: dict[int, float] = defaultdict(float)
        for n in index:
            s = self.spans[n]
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for n in index:
            name, start, end = self.spans[n][:3]
            own = (end - start) - child_time[n]
            total[name] += end - start
            self_time[name] += own
            calls[name] += 1
            layer_self[name.split(".")[0]] += own
        return {
            "total": dict(total),
            "self": dict(self_time),
            "calls": dict(calls),
            "layer_self": layer_self,
        }
