"""Network-level simulation: medium, gateways, and delivery resolution.

The :class:`Simulator` wires the pieces together: it computes per-gateway
observations from the link budget (the "medium"), runs every gateway's
reception pipeline, and resolves network-level delivery (a packet is
delivered if *any* gateway of its own network received it — LoRaWAN has
no user-gateway association).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..gateway.gateway import Gateway, GatewayReception, Outcome
from ..node.device import EndDevice
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, phase_timed
from ..phy.link import Position, noise_floor_dbm
from ..types import Observation, Transmission
from .topology import LinkBudget

__all__ = ["SimulationResult", "Simulator", "TxKey"]

TxKey = Tuple[int, int, int, float]  # (network, node, counter, start)

# Signals weaker than this margin below the noise floor are dropped from
# a gateway's observation set entirely: they can neither be detected
# (LoRa demodulates down to ~-23 dB SNR) nor contribute measurable
# interference energy.
PRUNE_MARGIN_DB = 30.0


def tx_key(tx: Transmission) -> TxKey:
    """Canonical per-packet key."""
    return (tx.network_id, tx.node_id, tx.counter, tx.start_s)


@dataclass
class SimulationResult:
    """Outcome of one simulated window."""

    transmissions: List[Transmission]
    # Per-packet records at every gateway that observed it.
    receptions: Dict[TxKey, List[GatewayReception]] = field(default_factory=dict)
    gateways: List[Gateway] = field(default_factory=list)

    def records_for(self, tx: Transmission) -> List[GatewayReception]:
        """All gateway records for one transmission."""
        return self.receptions.get(tx_key(tx), [])

    def delivered(self, tx: Transmission) -> bool:
        """Whether the packet reached its own network server."""
        return any(
            r.received and r.gateway_id in self.own_gateway_ids(tx.network_id)
            for r in self.records_for(tx)
        )

    def own_gateway_ids(self, network_id: int) -> set:
        key = ("own", network_id)
        cache = getattr(self, "_own_cache", None)
        if cache is None:
            cache = {}
            self._own_cache = cache
        if key not in cache:
            cache[key] = {
                g.gateway_id for g in self.gateways if g.network_id == network_id
            }
        return cache[key]

    def delivered_count(self, network_id: Optional[int] = None) -> int:
        """Packets delivered, optionally restricted to one network."""
        return sum(
            1
            for tx in self.transmissions
            if (network_id is None or tx.network_id == network_id)
            and self.delivered(tx)
        )

    def offered_count(self, network_id: Optional[int] = None) -> int:
        """Packets offered, optionally restricted to one network."""
        return sum(
            1
            for tx in self.transmissions
            if network_id is None or tx.network_id == network_id
        )

    def prr(self, network_id: Optional[int] = None) -> float:
        """Packet reception ratio."""
        offered = self.offered_count(network_id)
        if offered == 0:
            return 0.0
        return self.delivered_count(network_id) / offered


class Simulator:
    """Batch simulator over a static deployment.

    Args:
        gateways: All gateways in the area — across *every* coexisting
            network; gateways observe foreign packets too.
        devices: All end devices (for positions).
        link: Link-budget calculator.
    """

    def __init__(
        self,
        gateways: Sequence[Gateway],
        devices: Sequence[EndDevice],
        link: Optional[LinkBudget] = None,
    ) -> None:
        ids = [g.gateway_id for g in gateways]
        if len(set(ids)) != len(ids):
            raise ValueError("gateway ids must be unique")
        self.gateways = list(gateways)
        self.devices: Dict[Tuple[int, int], EndDevice] = {
            (d.network_id, d.node_id): d for d in devices
        }
        if len(self.devices) != len(devices):
            raise ValueError("(network_id, node_id) pairs must be unique")
        self.link = link or LinkBudget()

    def _device_position(self, tx: Transmission) -> Position:
        dev = self.devices.get((tx.network_id, tx.node_id))
        if dev is None:
            raise KeyError(
                f"transmission from unknown device "
                f"net={tx.network_id} node={tx.node_id}"
            )
        return dev.position

    def observations_at(
        self, gateway: Gateway, transmissions: Sequence[Transmission]
    ) -> List[Observation]:
        """The audible observation set at one gateway (pruned)."""
        floor = noise_floor_dbm(125_000.0, gateway.noise_figure_db)
        cutoff = floor - PRUNE_MARGIN_DB
        out: List[Observation] = []
        for tx in transmissions:
            rssi = self.link.rssi_dbm(
                tx.tx_power_dbm, self._device_position(tx), gateway.position
            )
            if rssi >= cutoff:
                out.append(Observation(transmission=tx, rssi_dbm=rssi))
        return out

    def run(self, transmissions: Sequence[Transmission]) -> SimulationResult:
        """Simulate one window of traffic across all gateways."""
        result = SimulationResult(
            transmissions=list(transmissions), gateways=self.gateways
        )
        rec = _obs.TRACE
        run_index = rec.next_run_index() if rec is not None else 0
        if rec is not None:
            rec.emit(
                EventType.SIM_RUN_START,
                run=run_index,
                txs=len(result.transmissions),
                gateways=len(self.gateways),
                online=False,
            )
        probe = _obs.PERF
        if probe is not None:
            probe.note_run(
                len(result.transmissions),
                min((t.start_s for t in result.transmissions), default=0.0),
                max((t.end_s for t in result.transmissions), default=0.0),
            )
        for tx in transmissions:
            result.receptions.setdefault(tx_key(tx), [])
        for gw in self.gateways:
            with phase_timed(Phase.OBSERVE, items=len(transmissions)):
                obs = self.observations_at(gw, transmissions)
            records = gw.receive(obs)
            with phase_timed(Phase.COLLECT, items=len(records)):
                for record in records:
                    result.receptions[
                        tx_key(record.transmission)
                    ].append(record)
        if rec is not None:
            rec.emit(EventType.SIM_RUN_END, run=run_index)
        health = _obs.HEALTH
        if health is not None:
            health.evaluate()
        return result
