//! The **XOR coin**: the "obvious" simplification of the ticket coin, kept
//! as an instructive contrast.
//!
//! Every node deals a single bit; the output is the XOR of the bits of all
//! included (grade ≥ 1) dealers. The happy path is identical to the ticket
//! coin, but the output flips whenever two correct nodes differ on *any*
//! single dealer's inclusion or recovered value, whereas the FM lottery
//! rule localizes such divergence to the (rare) case where the affected
//! ticket decides the zero-test. Experiment F1 runs both coins under the
//! recover-equivocation adversary to show the gap.

use crate::gvss::{GvssCore, GvssWorkspace};
use crate::messages::CoinMsg;
use byzclock_core::{CoinScheme, RoundProtocol};
use byzclock_sim::{NodeCfg, NodeId, SimRng, Target};
use rand::Rng;

/// Rounds per XOR-coin instance (same GVSS skeleton as the ticket coin).
pub const XOR_COIN_ROUNDS: usize = 4;

/// One pipelined instance of the XOR coin.
#[derive(Debug)]
pub struct XorCoinProto {
    cfg: NodeCfg,
    gvss: GvssCore,
    output: bool,
}

impl XorCoinProto {
    fn new(cfg: NodeCfg, workspace: GvssWorkspace) -> Self {
        XorCoinProto {
            cfg,
            gvss: GvssCore::with_workspace(cfg, 1, workspace),
            output: false,
        }
    }
}

impl RoundProtocol for XorCoinProto {
    type Msg = CoinMsg;
    type Output = bool;

    fn send_round(&mut self, round: usize, rng: &mut SimRng, out: &mut Vec<(Target, CoinMsg)>) {
        match round {
            0 => self
                .gvss
                .send_share(rng, |r| u64::from(r.random::<bool>()), out),
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
                let _ = self.cfg;
                self.output = self
                    .gvss
                    .included()
                    .map(|d| self.gvss.recovered(d, 0).unwrap_or(0) % 2 == 1)
                    .fold(false, |acc, b| acc ^ b);
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

/// Factory for [`XorCoinProto`] instances. Like the ticket scheme, it
/// holds the node's [`GvssWorkspace`] so spawned instances recycle retired
/// storage and decoders.
#[derive(Debug, Clone)]
pub struct XorCoinScheme {
    cfg: NodeCfg,
    workspace: GvssWorkspace,
}

impl XorCoinScheme {
    /// Scheme for the given node, with a fresh workspace.
    pub fn new(cfg: NodeCfg) -> Self {
        XorCoinScheme {
            cfg,
            workspace: GvssWorkspace::new(),
        }
    }
}

impl CoinScheme for XorCoinScheme {
    type Proto = XorCoinProto;

    fn rounds(&self) -> usize {
        XOR_COIN_ROUNDS
    }

    fn spawn(&self, _rng: &mut SimRng) -> XorCoinProto {
        XorCoinProto::new(self.cfg, self.workspace.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_instances;

    /// Honest runs agree and the XOR of uniform bits is near-fair.
    #[test]
    fn honest_instances_agree_and_are_roughly_fair() {
        let mut ones = 0usize;
        for seed in 0..60u64 {
            let outs = run_instances(4, 1, seed, |cfg| {
                XorCoinScheme::new(cfg).spawn(&mut rand::SeedableRng::seed_from_u64(0))
            });
            let first = outs[0];
            assert!(outs.iter().all(|&b| b == first), "honest nodes disagreed");
            ones += usize::from(first);
        }
        assert!(
            (12..=48).contains(&ones),
            "XOR coin badly unfair: {ones}/60"
        );
    }
}
