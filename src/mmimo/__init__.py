"""Deterministic massive MIMO link-level simulator.

`errors` and `numerics` load with the package. `capacity`, `channel`,
`pilots` and `transceiver` load on first use: as attributes of `mmimo`,
through `from mmimo import channel`, or when code that needs them runs. So a
run imports only the modules it uses. `import mmimo.cli` loads click,
`config`, `experiments`, `capacity` and orjson: `experiments` writes the
arrays of its tables with orjson, and its experiment table reads
`capacity.RuralConfig` and the dB rule of its keys.
"""

from . import errors, numerics
from .numerics import EmpiricalCdf, Seed

__version__ = "0.1.0"

__all__ = [
    "Seed",
    "EmpiricalCdf",
    "capacity",
    "channel",
    "errors",
    "numerics",
    "pilots",
    "transceiver",
    "__version__",
]

_ON_FIRST_USE = ("capacity", "channel", "pilots", "transceiver")


def __getattr__(name: str):
    # Called only for names not yet bound: importing a submodule binds it
    # here. __import__ takes the import statement's path, which
    # `python -X importtime` reports module by module.
    if name in _ON_FIRST_USE:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
