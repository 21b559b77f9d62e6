"""The MAC against Bianchi's saturation model of the 802.11 DCF.

G. Bianchi, "Performance analysis of the IEEE 802.11 distributed coordination
function", IEEE JSAC 18(3), 2000.  Aggressive attackers never double their
window, which is the model's m = 0 case: each saturated station transmits in
a slot with probability tau = 2 / (cw + 2).  The model knows nothing of the
simulator but the PHY timings, so agreement checks the contention, freezing
and four-way handshake timing end to end.
"""

import pytest

from roqsim.config import config_from_dict
from roqsim.mac import PhyParams
from roqsim.runner import run_simulation

TOLERANCE = 0.03


def bianchi_goodput_bps(n, cw, phy, payload_bits):
    """Saturation goodput of n stations with a fixed window cw (RTS/CTS access)."""
    tau = 2.0 / (cw + 2)
    p_tr = 1.0 - (1.0 - tau) ** n  # some station transmits in a slot
    p_s = n * tau * (1.0 - tau) ** (n - 1) / p_tr  # exactly one does
    ts_us = (phy.rts_us + phy.cts_us + phy.data_us(payload_bits) + phy.ack_us
             + 3 * phy.sifs_us + phy.difs_us)
    tc_us = phy.rts_us + phy.difs_us  # only the RTS frames collide
    slot_us = (1.0 - p_tr) * phy.slot_us + p_tr * p_s * ts_us + p_tr * (1.0 - p_s) * tc_us
    return p_s * p_tr * payload_bits / slot_us * 1e6


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("cw", [7, 31])
def test_saturated_goodput_matches_bianchi(n, cw):
    # one legit station at 1 pps barely loads the cell; the attackers'
    # queues never drain, since they offer 2000 pps each
    cfg = config_from_dict({
        "duration_s": 20.0, "warmup_s": 5.0, "seed": 1,
        "legit": {"count": 1, "app_rate_pps": 1},
        "attack": {"count": n, "period_s": 1.0, "burst_s": 0.999, "rate_pps": 2000, "cw": cw},
    })
    result = run_simulation(cfg)
    goodput = result.legit_bw_bps + result.attack_bw_bps
    model = bianchi_goodput_bps(n, cw, PhyParams(cfg.phy), cfg.attack.packet_bits)
    assert abs(goodput / model - 1.0) <= TOLERANCE, (
        "n=%d cw=%d: %.0f bps simulated, %.0f bps by the model" % (n, cw, goodput, model))
