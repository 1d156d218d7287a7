//! Common-coin protocols for the PODC'08 clock-synchronization stack.
//!
//! The paper plugs the Feldman–Micali common coin \[12\] into
//! `ss-Byz-Coin-Flip`; this crate supplies a faithful-in-structure
//! implementation (Definition 2.6's interface: constant `Δ_A`, constant
//! `p0`/`p1`, unpredictability until the recover round, `f < n/3`):
//!
//! - [`TicketCoinScheme`] — graded VSS over symmetric bivariate
//!   polynomials plus the FM lottery rule ("output 0 iff some combined
//!   ticket is 0");
//! - [`XorCoinScheme`] — the naive XOR combine, kept as a measurable
//!   contrast (experiment F1);
//! - [`CoinApp`] — runs a pipelined coin standalone (the §6.1 "stream of
//!   shared coins" tool) with agreement statistics;
//! - [`adversary`] — dealing/echo/vote/recover attacks.
//!
//! Convenience constructors wire the full paper stack together:
//!
//! ```
//! use byzclock_coin::ticket_clock_sync;
//! use byzclock_core::{all_synced, run_until_stable_sync, DigitalClock};
//! use byzclock_sim::{SilentAdversary, SimBuilder};
//!
//! let mut sim = SimBuilder::new(4, 1)
//!     .seed(42)
//!     .build(|cfg, rng| ticket_clock_sync(cfg, 16, rng), SilentAdversary);
//! let converged = run_until_stable_sync(&mut sim, 3_000, 8);
//! assert!(converged.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod scenario;

mod app;
mod committee;
mod gvss;
mod messages;
mod ticket;
mod xor;

pub use app::{coin_stats, measure_coin, CoinApp, CoinAppMsg, CoinStats};
pub use committee::{
    committee_epoch_seed, committee_fault_budget, committee_members, default_committee_size,
    CommitteeCoinProto, CommitteeCoinScheme, CommitteeMsg, COMMITTEE_COIN_ROUNDS,
    COMMITTEE_EPOCH_BEATS,
};
pub use gvss::{AllocStats, DecodeStats, Grade, GvssCore, GvssWorkspace};
pub use messages::{CoinMsg, FlatMatrix};
pub use ticket::{TicketCoinProto, TicketCoinScheme, TICKET_COIN_ROUNDS};
pub use xor::{XorCoinProto, XorCoinScheme, XOR_COIN_ROUNDS};

use byzclock_core::{ClockSync, FourClock, PipelinedCoin, TwoClock};
use byzclock_sim::{NodeCfg, SimRng};

/// The pipelined ticket coin (`ss-Byz-Coin-Flip` over [`TicketCoinScheme`]).
pub type TicketCoin = PipelinedCoin<TicketCoinScheme>;

/// The pipelined XOR coin.
pub type XorCoin = PipelinedCoin<XorCoinScheme>;

/// `ss-Byz-2-Clock` over the ticket coin.
pub type TicketTwoClock = TwoClock<TicketCoin>;

/// `ss-Byz-4-Clock` over the ticket coin.
pub type TicketFourClock = FourClock<TicketCoin>;

/// `ss-Byz-Clock-Sync` over the ticket coin — the paper's full stack.
pub type TicketClockSync = ClockSync<TicketCoin>;

/// Builds a pipelined ticket coin for one node.
pub fn ticket_coin(cfg: NodeCfg, rng: &mut SimRng) -> TicketCoin {
    PipelinedCoin::new(TicketCoinScheme::new(cfg), rng)
}

/// Builds a pipelined XOR coin for one node.
pub fn xor_coin(cfg: NodeCfg, rng: &mut SimRng) -> XorCoin {
    PipelinedCoin::new(XorCoinScheme::new(cfg), rng)
}

/// Builds `ss-Byz-2-Clock` over the ticket coin.
pub fn ticket_two_clock(cfg: NodeCfg, rng: &mut SimRng) -> TicketTwoClock {
    TwoClock::new(cfg, ticket_coin(cfg, rng))
}

/// Builds `ss-Byz-4-Clock` over the ticket coin (one pipeline per
/// sub-clock, as in the paper).
pub fn ticket_four_clock(cfg: NodeCfg, rng: &mut SimRng) -> TicketFourClock {
    FourClock::new(cfg, ticket_coin(cfg, rng), ticket_coin(cfg, rng))
}

/// Builds the paper's full stack: `ss-Byz-Clock-Sync` for modulus `k` over
/// the ticket coin (three pipelines: `A1`, `A2`, top level).
pub fn ticket_clock_sync(cfg: NodeCfg, k: u64, rng: &mut SimRng) -> TicketClockSync {
    ClockSync::new(
        cfg,
        k,
        ticket_coin(cfg, rng),
        ticket_coin(cfg, rng),
        ticket_coin(cfg, rng),
    )
}

/// The pipelined committee-subsampled ticket coin.
pub type CommitteeCoin = PipelinedCoin<CommitteeCoinScheme>;

/// `ss-Byz-Clock-Sync` over the committee coin — the sub-quartic stack.
pub type CommitteeClockSync = ClockSync<CommitteeCoin>;

/// Builds a pipelined committee coin for one node (committee size `c`,
/// rotation keyed on `epoch_seed` — derive it with
/// [`committee_epoch_seed`] so fault plans can target the schedule).
pub fn committee_coin(cfg: NodeCfg, c: usize, epoch_seed: u64, rng: &mut SimRng) -> CommitteeCoin {
    PipelinedCoin::new(CommitteeCoinScheme::new(cfg, c, epoch_seed), rng)
}

/// Builds `ss-Byz-Clock-Sync` for modulus `k` over the committee coin
/// (three pipelines sharing one rotation schedule).
pub fn committee_clock_sync(
    cfg: NodeCfg,
    k: u64,
    c: usize,
    epoch_seed: u64,
    rng: &mut SimRng,
) -> CommitteeClockSync {
    ClockSync::new(
        cfg,
        k,
        committee_coin(cfg, c, epoch_seed, rng),
        committee_coin(cfg, c, epoch_seed, rng),
        committee_coin(cfg, c, epoch_seed, rng),
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::messages::CoinMsg;
    use byzclock_core::RoundProtocol;
    use byzclock_sim::{NodeCfg, NodeId, SimRng, Target};
    use rand::SeedableRng;

    /// Runs one full instance (all rounds) across `n` in-process nodes,
    /// `silent` ids sending nothing, and returns the non-silent outputs.
    pub fn run_instances_with_silent<P, F>(
        n: usize,
        f: usize,
        silent: &[u16],
        seed: u64,
        make: F,
    ) -> Vec<bool>
    where
        P: RoundProtocol<Msg = CoinMsg, Output = bool>,
        F: Fn(NodeCfg) -> P,
    {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut protos: Vec<P> = (0..n as u16)
            .map(|i| make(NodeCfg::new(NodeId::new(i), n, f)))
            .collect();
        let rounds = 4;
        for round in 0..rounds {
            let mut inboxes: Vec<Vec<(NodeId, CoinMsg)>> = vec![Vec::new(); n];
            for (i, proto) in protos.iter_mut().enumerate() {
                if silent.contains(&(i as u16)) {
                    continue;
                }
                let mut out = Vec::new();
                proto.send_round(round, &mut rng, &mut out);
                for (target, msg) in out {
                    match target {
                        Target::All => {
                            for inbox in inboxes.iter_mut() {
                                inbox.push((NodeId::new(i as u16), msg.clone()));
                            }
                        }
                        Target::One(to) => inboxes[to.index()].push((NodeId::new(i as u16), msg)),
                    }
                }
            }
            for inbox in inboxes.iter_mut() {
                inbox.sort_by_key(|&(from, _)| from);
            }
            for (i, proto) in protos.iter_mut().enumerate() {
                if silent.contains(&(i as u16)) {
                    continue;
                }
                proto.recv_round(round, &inboxes[i], &mut rng);
            }
        }
        protos
            .iter()
            .enumerate()
            .filter(|(i, _)| !silent.contains(&(*i as u16)))
            .map(|(_, p)| p.output())
            .collect()
    }

    /// All-honest single-instance run.
    pub fn run_instances<P, F>(n: usize, f: usize, seed: u64, make: F) -> Vec<bool>
    where
        P: RoundProtocol<Msg = CoinMsg, Output = bool>,
        F: Fn(NodeCfg) -> P,
    {
        run_instances_with_silent(n, f, &[], seed, make)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::{all_synced, DigitalClock, RandSource};
    use byzclock_sim::{SilentAdversary, SimBuilder};
    use rand::SeedableRng;

    /// The full paper stack end-to-end: GVSS ticket coin + 2-clock.
    #[test]
    fn ticket_two_clock_converges() {
        let mut sim = SimBuilder::new(4, 1)
            .seed(2)
            .build(ticket_two_clock, SilentAdversary);
        let t = sim.run_until(300, |s| {
            all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some()
        });
        assert!(t.is_some(), "GVSS-backed 2-clock failed to converge");
    }

    /// The pipelined ticket coin emits a fresh bit every beat after Δ_A
    /// beats of warm-up, with high agreement (run through the simulator,
    /// silent adversary).
    #[test]
    fn pipelined_ticket_coin_stream() {
        let stats = measure_coin(4, 1, 11, 40, TicketCoinScheme::new, SilentAdversary);
        assert_eq!(stats.beats, 36, "40 beats minus Δ_A = 4 warm-up");
        assert!(stats.agreement_rate() > 0.9, "{stats:?}");
        assert!(stats.p0() > 0.3, "{stats:?}");
        assert!(stats.p1() > 0.05, "{stats:?}");
    }

    /// Transient corruption of the coin pipeline heals within Δ_A beats
    /// (Lemma 1 / Theorem 1).
    #[test]
    fn coin_pipeline_self_stabilizes() {
        let cfg = NodeCfg::new(byzclock_sim::NodeId::new(0), 4, 1);
        let mut rng = SimRng::seed_from_u64(5);
        let mut coin = ticket_coin(cfg, &mut rng);
        coin.corrupt(&mut rng);
        // Drive 2 * Δ_A beats without any inbox: outputs must be
        // well-defined (no panics) and the pipeline keeps cycling.
        for _ in 0..8 {
            let mut out = Vec::new();
            coin.send(&mut rng, &mut out);
            assert!(!out.is_empty());
            let _bit = coin.deliver(&[], &mut rng);
        }
    }
}
