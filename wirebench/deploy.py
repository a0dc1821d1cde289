"""The four workloads: a deployment each, and the traffic it carries.

Every deployment is built with the program's one construction path,
``launch()`` or ``launch_chain()``, and driven only through the
``Runtime`` protocol. All share one NAT configuration: the default flow
capacity and external IP, and a 100 ms flow timeout on the simulated
clock, which the driver advances by 1 ms per burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

from repro.chain.spec import ChainSpec, ChainStage, launch_chain
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, PROCESS, RuntimeSpec, launch

CONFIG = NatConfig(expiration_time=100_000)
#: Simulated microseconds per burst: 100 bursts per flow timeout.
TICK_US = 1_000
BURST = 32
#: Forward frames per burst; the other half of a steady burst is echoes.
FORWARDS = BURST // 2
#: 64/594/1518-byte frames at 7:4:1.
IMIX = (64,) * 7 + (594,) * 4 + (1518,)
#: New short flows per burst, repeating: 8 per 160 frames, i.e. 5%.
CHURN = (2, 2, 1, 2, 1)


@dataclass(frozen=True)
class Workload:
    name: str
    launch: Callable[[], object]
    flows: int
    churn: Tuple[int, ...] = (0,)
    sizes: Tuple[int, ...] = (64,)
    #: A deployment launched and stopped without traffic after the
    #: measured phase, to check that ``stop()`` leaves no worker and no
    #: ring segment behind.
    hygiene: Optional[Callable[[], object]] = None


def _nat_inline():
    return launch(
        RuntimeSpec(nf_factory=VigNat, config=CONFIG, execution=INLINE, fastpath="compiled")
    )


def _nat_procs(transport: str):
    return launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=CONFIG,
            workers=2,
            execution=PROCESS,
            transport=transport,
            fastpath="compiled",
        )
    )


def _fw_nat_chain():
    return launch_chain(
        ChainSpec(
            stages=(
                ChainStage("firewall", VigFirewall, CONFIG),
                ChainStage("nat", VigNat, CONFIG),
            ),
            execution=INLINE,
            fastpath="compiled",
        )
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nat-hot", _nat_inline, flows=256),
        Workload("nat-churn", _nat_inline, flows=256, churn=CHURN),
        # Traffic goes over the pipe, not the default shm rings: a ring
        # reader can see an index as 0 while the other process writes it
        # (README.md), which in about one run in twenty sent a drain
        # over stale slots. Without traffic the rings are safe, so the
        # shm deployment still gets the launch/stop hygiene check.
        Workload(
            "procs-imix",
            partial(_nat_procs, "pipe"),
            flows=1024,
            sizes=IMIX,
            hygiene=partial(_nat_procs, "shm"),
        ),
        Workload("chain-fw-nat", _fw_nat_chain, flows=256),
    )
}
