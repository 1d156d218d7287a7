//! The Feldman–Micali-style **ticket coin** (Observation 2.1's protocol
//! shape).
//!
//! Every node deals `n` *lottery tickets* — one uniform value in `[0, n)`
//! per node `j` — through the graded VSS. After the recover round, node
//! `i` computes each node's combined ticket
//! `ticket(j) = Σ_{d included} x_{d,j} mod n` and outputs **0 iff some
//! ticket equals 0**. Tickets are uniform, so for honest runs
//! `p0 ≈ 1 − (1 − 1/n)^n → 1 − 1/e` and `p1 ≈ 1/e` — both constants, as
//! Definition 2.6 requires — and the grades bound how far an adversary can
//! push per-node disagreement (experiment F1 measures the achieved
//! `p0`/`p1` under active attack).

use crate::gvss::{GvssCore, GvssWorkspace};
use crate::messages::CoinMsg;
use byzclock_core::{CoinScheme, RoundProtocol};
use byzclock_sim::{NodeCfg, NodeId, SimRng, Target};
use rand::Rng;

/// Number of rounds `Δ_A` of one ticket-coin instance:
/// share, echo, vote, recover.
pub const TICKET_COIN_ROUNDS: usize = 4;

/// One pipelined instance of the ticket coin.
#[derive(Debug)]
pub struct TicketCoinProto {
    cfg: NodeCfg,
    gvss: GvssCore,
    output: bool,
}

impl TicketCoinProto {
    /// Also used by the committee coin, which runs a rank-space ticket
    /// instance among the committee members.
    pub(crate) fn new(cfg: NodeCfg, workspace: GvssWorkspace) -> Self {
        TicketCoinProto {
            cfg,
            gvss: GvssCore::with_workspace(cfg, cfg.n, workspace),
            output: false,
        }
    }

    /// The combined ticket values, one per node (None where every included
    /// dealer's contribution failed to decode).
    fn combine(&self) -> bool {
        let n = self.cfg.n as u64;
        let mut any_zero = false;
        for j in 0..self.cfg.n {
            let mut ticket = 0u64;
            for dealer in self.gvss.included() {
                // A failed decode contributes a deterministic 0 — every
                // node that also failed agrees; divergence is measured,
                // not hidden.
                ticket = (ticket + self.gvss.recovered(dealer, j).unwrap_or(0)) % n;
            }
            if ticket == 0 {
                any_zero = true;
            }
        }
        // Output 0 ("false") iff some ticket hit the jackpot.
        !any_zero
    }
}

impl RoundProtocol for TicketCoinProto {
    type Msg = CoinMsg;
    type Output = bool;

    fn send_round(&mut self, round: usize, rng: &mut SimRng, out: &mut Vec<(Target, CoinMsg)>) {
        let n = self.cfg.n as u64;
        match round {
            0 => self.gvss.send_share(rng, |r| r.random_range(0..n), out),
            1 => self.gvss.send_echo(out),
            2 => self.gvss.send_vote(out),
            3 => self.gvss.send_recover(out),
            _ => {}
        }
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, CoinMsg)], _rng: &mut SimRng) {
        match round {
            0 => self.gvss.recv_share(inbox),
            1 => self.gvss.recv_echo(inbox),
            2 => self.gvss.recv_vote(inbox),
            3 => {
                self.gvss.recv_recover(inbox);
                self.output = self.combine();
            }
            _ => {}
        }
    }

    fn output(&self) -> bool {
        self.output
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.gvss.corrupt(rng);
        self.output = rng.random();
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut m = self.gvss.decode_stats().metrics();
        m.extend(self.gvss.alloc_stats().metrics());
        m
    }
}

/// Factory for [`TicketCoinProto`] instances (`Δ_A = 4`).
///
/// Holds the node's [`GvssWorkspace`], so every instance this scheme
/// spawns recycles the storage and decoders of its retired
/// predecessors — the pipelined steady state allocates nothing in the
/// GVSS path.
#[derive(Debug, Clone)]
pub struct TicketCoinScheme {
    cfg: NodeCfg,
    workspace: GvssWorkspace,
}

impl TicketCoinScheme {
    /// Scheme for the given node, with a fresh workspace.
    pub fn new(cfg: NodeCfg) -> Self {
        TicketCoinScheme {
            cfg,
            workspace: GvssWorkspace::new(),
        }
    }
}

impl CoinScheme for TicketCoinScheme {
    type Proto = TicketCoinProto;

    fn rounds(&self) -> usize {
        TICKET_COIN_ROUNDS
    }

    fn spawn(&self, _rng: &mut SimRng) -> TicketCoinProto {
        TicketCoinProto::new(self.cfg, self.workspace.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_instances;

    /// Honest full-mesh run: all nodes output the same bit, and over many
    /// seeds both outcomes occur with the FM lottery's asymmetric-but-
    /// constant frequencies.
    #[test]
    fn honest_instances_agree_and_both_outcomes_occur() {
        let mut zeros = 0usize;
        let mut ones = 0usize;
        for seed in 0..60u64 {
            let outs = run_instances(7, 2, seed, |cfg| {
                TicketCoinScheme::new(cfg).spawn(&mut rand::SeedableRng::seed_from_u64(0))
            });
            let first = outs[0];
            assert!(outs.iter().all(|&b| b == first), "honest nodes disagreed");
            if first {
                ones += 1;
            } else {
                zeros += 1;
            }
        }
        // p0 ≈ 0.66, p1 ≈ 0.34 at n = 7; allow wide statistical slack.
        assert!(zeros >= 20, "zeros = {zeros}/60: p0 not constant-looking");
        assert!(ones >= 8, "ones = {ones}/60: p1 not constant-looking");
    }

    /// Silent Byzantine nodes (missing dealings and shares) do not break
    /// agreement among the correct nodes.
    #[test]
    fn agreement_survives_silent_byzantine() {
        for seed in 0..30u64 {
            let outs = crate::testutil::run_instances_with_silent(7, 2, &[5, 6], seed, |cfg| {
                TicketCoinScheme::new(cfg).spawn(&mut rand::SeedableRng::seed_from_u64(0))
            });
            let first = outs[0];
            assert!(
                outs.iter().all(|&b| b == first),
                "seed {seed}: disagreement"
            );
        }
    }
}
