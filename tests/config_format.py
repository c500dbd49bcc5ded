"""Writing a RunConfig back as config text: a route that only the tests
use, to check that parse_config reads back what it describes, beside
tests/h2.py."""
from typing import List

from syndemic.cli import RUN_OPTIONS, ConfigError, RunConfig
from syndemic.model import COMPARTMENTS


def format_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig; parse_config(format_config(c)) == c.

    A string option (n_ref, out) that the line format cannot hold, because
    it contains ``#`` or a line break or has surrounding whitespace, is a
    ConfigError rather than a file that reads back differently.
    """
    # repr(float(x)): numpy 2 writes a np.float64 as "np.float64(6.0)"
    lines: List[str] = []
    for key in sorted(cfg.assignments):
        lines.append(f"{key} = {float(cfg.assignments[key])!r}")
    if cfg.init_values is not None:
        for name, value in zip(COMPARTMENTS, cfg.init_values):
            lines.append(f"init.{name} = {float(value)!r}")
        if cfg.init_total is not None:
            lines.append(f"init.total = {float(cfg.init_total)!r}")
    defaults = RunConfig()
    for key in RUN_OPTIONS:
        value = getattr(cfg, key)
        if value == getattr(defaults, key):
            continue
        if isinstance(value, str) and ("#" in value or value != value.strip()
                                       or len(value.splitlines()) > 1):
            raise ConfigError(f"{key} {value!r} cannot be written to a "
                              "config line")
        lines.append(f"{key} = {float(value)!r}" if isinstance(value, float)
                     else f"{key} = {value}")
    return "\n".join(lines) + "\n"
