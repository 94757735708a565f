"""Ternary speculative decoding at desk scale.

A drafter proposes token blocks, a cheap proxy pre-verifies them and
decides per position whether its own verdict can be trusted, and the
expensive target model is consulted only for the untrusted remainder.
Everything runs on small exact token-distribution oracles so decoding
laws, routing behavior, and the latency decomposition can be tested
exactly rather than benchmarked.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all. The command-line module is left out: binding its
``cli`` command here would shadow the ``trispec.cli`` module.
"""

from . import baselines, core, drafting, harness, metrics, models, router, suites, verification
from .baselines import *
from .core import *
from .drafting import *
from .harness import *
from .metrics import *
from .models import *
from .router import *
from .suites import *
from .verification import *

__version__ = "0.1.0"

__all__ = [
    *baselines.__all__,
    *core.__all__,
    *drafting.__all__,
    *harness.__all__,
    *metrics.__all__,
    *models.__all__,
    *router.__all__,
    *suites.__all__,
    *verification.__all__,
]
