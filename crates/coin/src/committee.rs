//! The **committee-subsampled** ticket coin — breaking the ~n⁴ per-beat
//! wall.
//!
//! The full-mesh ticket coin has every node deal GVSS shares to every
//! node: n² messages carrying n²-sized echo payloads, ~n⁴ bytes per beat.
//! Here, each beat a deterministic, seed-rotated **committee** of
//! `c ≪ n` nodes runs the complete GVSS deal/echo/vote/recover exchange
//! *among themselves* (a rank-space [`TicketCoinProto`] over a `c`-node
//! sub-cluster), then every member broadcasts the recovered bit in one
//! extra **relay** round. A node — member or not — accepts the value with
//! the highest relay count provided it reached `f_c + 1` distinct
//! members, where `f_c = ⌊(c−1)/3⌋` is the committee's fault budget; with
//! at most `f_c` Byzantine members the `c − f_c ≥ 2f_c + 1` correct
//! relays of the (inner-agreed) bit always outnumber any forgery. Traffic
//! drops from Θ(n⁴) to Θ(c⁴ + n·c).
//!
//! **Rotation.** The committee of beat `b` is a `c`-wide window into a
//! permutation of `0..n` that is reshuffled every
//! [`COMMITTEE_EPOCH_BEATS`] beats from the epoch seed; the window slides
//! by `c` each beat. Two properties follow: every node serves on a
//! committee within `⌈n/c⌉` beats (so a transiently corrupted committee
//! is *rotated away from*, and every node's GVSS workspace warms up —
//! the zero-alloc steady state of the full-mesh coin carries over), and
//! the per-epoch reshuffle keeps a stuck adversary from owning a
//! congenial committee forever. The schedule is public and deterministic
//! — committee membership is not a secret in this model, which is
//! exactly what makes committee-targeting corruption expressible in
//! scenario fault plans (compute [`committee_members`], corrupt those
//! ids).
//!
//! **Beat consistency.** The rotation is keyed on the runner's global
//! beat index, forwarded to the scheme through the
//! [`begin_beat`](byzclock_core::CoinScheme::begin_beat) chain before any
//! send of the beat; a pipeline instance is bound to the committee of its
//! spawn beat for all of its `Δ_A` rounds. The index is runner-owned
//! configuration, so transient corruption cannot desynchronize the
//! schedule (Remark 2.1: "part of the code").

use crate::gvss::GvssWorkspace;
use crate::messages::CoinMsg;
use crate::ticket::{TicketCoinProto, TICKET_COIN_ROUNDS};
use byzclock_core::{CoinScheme, RoundProtocol};
use byzclock_sim::{
    derive_seed, NodeCfg, NodeId, SimRng, Target, Wire, WireFormat, WireReader, WireWriter,
};
use rand::Rng;
use rand::SeedableRng;

/// Rounds per committee-coin instance: the four GVSS rounds among the
/// members plus one relay round to everyone.
pub const COMMITTEE_COIN_ROUNDS: usize = TICKET_COIN_ROUNDS + 1;

/// Beats between reshuffles of the rotation permutation. Within an epoch
/// the committee window slides by `c` per beat (full coverage of `0..n`
/// every `⌈n/c⌉` beats); at each epoch boundary the permutation itself is
/// redrawn from the epoch seed.
pub const COMMITTEE_EPOCH_BEATS: u64 = 64;

/// The default committee size: the smallest `c ≡ 1 (mod 3)` with
/// `c ≥ max(7, ⌈1.5·√n⌉)`, capped at `n`. The `mod 3` rounding makes
/// `c = 3f_c + 1` exactly (nothing wasted over the budget), and the `√n`
/// growth is what turns the full mesh's ~n⁴ bytes/beat into ~n².
pub fn default_committee_size(n: usize) -> usize {
    let sqrt_term = (1.5 * (n as f64).sqrt()).ceil() as usize;
    let mut c = sqrt_term.max(7);
    while c % 3 != 1 {
        c += 1;
    }
    c.min(n)
}

/// The committee fault budget `f_c = ⌊(c−1)/3⌋`.
pub fn committee_fault_budget(c: usize) -> usize {
    (c - 1) / 3
}

/// Derives the rotation's epoch seed from a scenario seed — one shared
/// constant so scenario families and tests (committee-targeting fault
/// plans) compute identical schedules.
pub fn committee_epoch_seed(scenario_seed: u64) -> u64 {
    derive_seed(scenario_seed, 0xC0_FF_EE)
}

/// The committee of beat `beat`: `c` distinct node ids, sorted ascending.
///
/// Deterministic in `(n, c, epoch_seed, beat)` — every correct node (and
/// any adversary or fault plan that wants to target the committee)
/// computes the same set.
///
/// # Panics
///
/// Panics unless `1 <= c <= n`.
pub fn committee_members(n: usize, c: usize, epoch_seed: u64, beat: u64) -> Vec<NodeId> {
    assert!(c >= 1 && c <= n, "committee size {c} out of range 1..={n}");
    let epoch = beat / COMMITTEE_EPOCH_BEATS;
    let mut rng = SimRng::seed_from_u64(derive_seed(epoch_seed, epoch));
    let mut perm: Vec<u16> = (0..n as u16).collect();
    // Fisher–Yates over the whole id space: the epoch's permutation.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        perm.swap(i, j);
    }
    let offset = ((beat % COMMITTEE_EPOCH_BEATS) as usize * c) % n;
    let mut members: Vec<NodeId> = (0..c)
        .map(|i| NodeId::new(perm[(offset + i) % n]))
        .collect();
    members.sort_unstable();
    members
}

/// One round's payload of a committee-coin instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeMsg {
    /// Rounds 0–3, member → member: the inner GVSS exchange (rank-space
    /// addressing is translated to global ids by the sender and back by
    /// the receiver).
    Gvss(CoinMsg),
    /// Round 4, member → everyone: the member's recovered coin bit.
    Relay(bool),
}

impl Wire for CommitteeMsg {
    #[inline]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            CommitteeMsg::Gvss(m) => w.put_tagged(0, m, format),
            CommitteeMsg::Relay(b) => w.put_tagged(1, b, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(CommitteeMsg::Gvss(Wire::decode(format, r)?)),
            1 => Some(CommitteeMsg::Relay(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

/// One pipelined instance of the committee coin, bound to the committee
/// of its spawn beat.
///
/// Members run an inner rank-space [`TicketCoinProto`] over a `c`-node
/// sub-cluster (`NodeCfg { id: rank, n: c, f: f_c }` — identical rank
/// point-sets across rotations, so the workspace's cached decoders keep
/// hitting whoever the members are); non-members hold
/// no GVSS state at all and only count relays.
#[derive(Debug)]
pub struct CommitteeCoinProto {
    fault_budget: usize,
    /// Sorted ascending — global-sorted inboxes map to rank-sorted ones.
    members: Vec<NodeId>,
    my_rank: Option<usize>,
    inner: Option<TicketCoinProto>,
    output: bool,
}

impl CommitteeCoinProto {
    fn new(cfg: NodeCfg, members: Vec<NodeId>, workspace: GvssWorkspace) -> Self {
        let c = members.len();
        let fault_budget = committee_fault_budget(c);
        let my_rank = members.binary_search(&cfg.id).ok();
        let inner = my_rank.map(|rank| {
            let inner_cfg = NodeCfg::new(NodeId::new(rank as u16), c, fault_budget);
            TicketCoinProto::new(inner_cfg, workspace)
        });
        CommitteeCoinProto {
            fault_budget,
            members,
            my_rank,
            inner,
            output: false,
        }
    }

    /// The committee this instance is bound to (sorted ascending).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether this node serves on the instance's committee.
    pub fn is_member(&self) -> bool {
        self.my_rank.is_some()
    }

    /// Translates an inner (rank-space) target to global unicasts. `All`
    /// becomes `c` unicasts to the members rather than a broadcast — a
    /// broadcast costs `n` deliveries in the traffic model, and the whole
    /// point is keeping the GVSS exchange at Θ(c⁴).
    fn push_translated(&self, target: Target, msg: CoinMsg, out: &mut Vec<(Target, CommitteeMsg)>) {
        match target {
            Target::One(rank) => out.push((
                Target::One(self.members[rank.index()]),
                CommitteeMsg::Gvss(msg),
            )),
            Target::All => {
                for &m in &self.members {
                    out.push((Target::One(m), CommitteeMsg::Gvss(msg.clone())));
                }
            }
        }
    }
}

impl RoundProtocol for CommitteeCoinProto {
    type Msg = CommitteeMsg;
    type Output = bool;

    fn send_round(
        &mut self,
        round: usize,
        rng: &mut SimRng,
        out: &mut Vec<(Target, CommitteeMsg)>,
    ) {
        match round {
            0..=3 => {
                let mut inner_out = Vec::new();
                if let Some(inner) = self.inner.as_mut() {
                    inner.send_round(round, rng, &mut inner_out);
                }
                for (target, msg) in inner_out {
                    self.push_translated(target, msg, out);
                }
            }
            4 => {
                if let Some(inner) = self.inner.as_ref() {
                    out.push((Target::All, CommitteeMsg::Relay(inner.output())));
                }
            }
            _ => {}
        }
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, CommitteeMsg)], rng: &mut SimRng) {
        match round {
            0..=3 => {
                let Some(inner) = self.inner.as_mut() else {
                    return;
                };
                // Filter to committee senders and map global id → rank; the
                // members are sorted, so the rank-space inbox stays sorted.
                let ranked: Vec<(NodeId, CoinMsg)> = inbox
                    .iter()
                    .filter_map(|(from, msg)| match msg {
                        CommitteeMsg::Gvss(m) => self
                            .members
                            .binary_search(from)
                            .ok()
                            .map(|rank| (NodeId::new(rank as u16), m.clone())),
                        CommitteeMsg::Relay(_) => None,
                    })
                    .collect();
                inner.recv_round(round, &ranked, rng);
            }
            4 => {
                // Acceptance: the majority relay value, provided it reached
                // f_c + 1 distinct members. The pipeline deduplicates per
                // sender, so each member contributes at most one relay.
                let mut ones = 0usize;
                let mut zeros = 0usize;
                for (from, msg) in inbox {
                    if let CommitteeMsg::Relay(b) = msg {
                        if self.members.binary_search(from).is_ok() {
                            if *b {
                                ones += 1;
                            } else {
                                zeros += 1;
                            }
                        }
                    }
                }
                // Every correct node sees the same broadcast relays, so the
                // same deterministic rule (ties and missing quorums fall to
                // `false`) yields the same bit cluster-wide.
                self.output = ones > self.fault_budget && ones > zeros;
            }
            _ => {}
        }
    }

    fn output(&self) -> bool {
        self.output
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        if let Some(inner) = self.inner.as_mut() {
            inner.corrupt(rng);
        }
        self.output = rng.random();
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        match self.inner.as_ref() {
            Some(inner) => {
                let mut m = inner.metrics();
                m.push(("committee_member_instances", 1.0));
                m
            }
            None => vec![("committee_observer_instances", 1.0)],
        }
    }
}

/// Factory for [`CommitteeCoinProto`] instances (`Δ_A = 5`).
///
/// Holds the node's [`GvssWorkspace`] — every member-instance recycles the
/// storage and decoders of retired predecessors, so the
/// full-mesh coin's zero-alloc steady state survives subsampling once a
/// node has served on one committee (≤ `⌈n/c⌉` beats after start).
#[derive(Debug, Clone)]
pub struct CommitteeCoinScheme {
    cfg: NodeCfg,
    committee: usize,
    epoch_seed: u64,
    beat: u64,
    workspace: GvssWorkspace,
}

impl CommitteeCoinScheme {
    /// Scheme for the given node with an explicit committee size.
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= committee <= n` — below 4 the budget
    /// `f_c = ⌊(c−1)/3⌋` is zero and a single Byzantine member could forge
    /// the relay quorum.
    pub fn new(cfg: NodeCfg, committee: usize, epoch_seed: u64) -> Self {
        assert!(
            (4..=cfg.n).contains(&committee),
            "committee size {committee} out of range 4..={}",
            cfg.n
        );
        CommitteeCoinScheme {
            cfg,
            committee,
            epoch_seed,
            beat: 0,
            workspace: GvssWorkspace::new(),
        }
    }

    /// The committee size `c`.
    pub fn committee_size(&self) -> usize {
        self.committee
    }

    /// The committee fault budget `f_c = ⌊(c−1)/3⌋`.
    pub fn fault_budget(&self) -> usize {
        committee_fault_budget(self.committee)
    }

    /// The rotation's epoch seed.
    pub fn epoch_seed(&self) -> u64 {
        self.epoch_seed
    }
}

impl CoinScheme for CommitteeCoinScheme {
    type Proto = CommitteeCoinProto;

    fn rounds(&self) -> usize {
        COMMITTEE_COIN_ROUNDS
    }

    fn spawn(&self, _rng: &mut SimRng) -> CommitteeCoinProto {
        let members = committee_members(self.cfg.n, self.committee, self.epoch_seed, self.beat);
        CommitteeCoinProto::new(self.cfg, members, self.workspace.clone())
    }

    fn begin_beat(&mut self, beat: u64) {
        self.beat = beat;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one instance per node through all five rounds with full-mesh
    /// delivery (unicasts routed, broadcasts fanned out), skipping sends
    /// from `silent` nodes. Returns every node's output bit.
    fn run_committee(n: usize, c: usize, silent: &[u16], seed: u64, beat: u64) -> Vec<bool> {
        let epoch_seed = committee_epoch_seed(seed);
        let members = committee_members(n, c, epoch_seed, beat);
        let mut rngs: Vec<SimRng> = (0..n)
            .map(|i| SimRng::seed_from_u64(derive_seed(seed, i as u64)))
            .collect();
        let mut instances: Vec<CommitteeCoinProto> = (0..n)
            .map(|i| {
                let cfg = NodeCfg::new(NodeId::new(i as u16), n, (n - 1) / 3);
                CommitteeCoinProto::new(cfg, members.clone(), GvssWorkspace::new())
            })
            .collect();
        for round in 0..COMMITTEE_COIN_ROUNDS {
            let mut inboxes: Vec<Vec<(NodeId, CommitteeMsg)>> = vec![Vec::new(); n];
            for (i, inst) in instances.iter_mut().enumerate() {
                if silent.contains(&(i as u16)) {
                    continue;
                }
                let mut out = Vec::new();
                inst.send_round(round, &mut rngs[i], &mut out);
                let from = NodeId::new(i as u16);
                for (target, msg) in out {
                    match target {
                        Target::All => {
                            for inbox in inboxes.iter_mut() {
                                inbox.push((from, msg.clone()));
                            }
                        }
                        Target::One(to) => inboxes[to.index()].push((from, msg)),
                    }
                }
            }
            for inbox in inboxes.iter_mut() {
                inbox.sort_by_key(|(from, _)| *from);
            }
            for (i, inst) in instances.iter_mut().enumerate() {
                inst.recv_round(round, &inboxes[i], &mut rngs[i]);
            }
        }
        instances.iter().map(|inst| inst.output()).collect()
    }

    #[test]
    fn default_sizes_match_the_budget_shape() {
        for (n, want) in [
            (7, 7),
            (13, 7),
            (32, 10),
            (64, 13),
            (128, 19),
            (256, 25),
            (512, 34),
        ] {
            let c = default_committee_size(n);
            assert_eq!(c, want, "n={n}");
            if c < n {
                assert_eq!(
                    c,
                    3 * committee_fault_budget(c) + 1,
                    "n={n}: c={c} wastes budget over 3f_c+1"
                );
            }
        }
        // c never exceeds n.
        assert_eq!(default_committee_size(4), 4);
        assert_eq!(default_committee_size(5), 5);
    }

    #[test]
    fn members_are_deterministic_sorted_and_distinct() {
        for beat in [0u64, 1, 7, 63, 64, 130] {
            let a = committee_members(128, 19, 42, beat);
            let b = committee_members(128, 19, 42, beat);
            assert_eq!(a, b, "beat {beat}: schedule must be deterministic");
            assert_eq!(a.len(), 19);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        }
        assert_ne!(
            committee_members(128, 19, 42, 0),
            committee_members(128, 19, 43, 0),
            "different epoch seeds must rotate differently"
        );
    }

    #[test]
    fn rotation_covers_every_node_within_one_sweep() {
        let (n, c) = (128usize, 19usize);
        let sweep = n.div_ceil(c) as u64;
        let mut seen = vec![false; n];
        for beat in 0..sweep {
            for m in committee_members(n, c, 7, beat) {
                seen[m.index()] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "a node never served within ⌈n/c⌉ beats"
        );
    }

    #[test]
    fn epoch_boundaries_reshuffle_the_permutation() {
        // Same within-epoch offset, different epochs: the windows should
        // (almost surely) differ because the permutation was redrawn.
        let a = committee_members(256, 25, 9, 3);
        let b = committee_members(256, 25, 9, 3 + COMMITTEE_EPOCH_BEATS);
        assert_ne!(a, b, "epoch reshuffle had no effect");
    }

    #[test]
    fn honest_runs_agree_everywhere_and_both_outcomes_occur() {
        let mut zeros = 0usize;
        let mut ones = 0usize;
        for seed in 0..40u64 {
            let outs = run_committee(21, 7, &[], seed, seed % 5);
            let first = outs[0];
            assert!(
                outs.iter().all(|&b| b == first),
                "seed {seed}: members and observers must agree"
            );
            if first {
                ones += 1;
            } else {
                zeros += 1;
            }
        }
        assert!(zeros >= 10, "zeros = {zeros}/40: p0 not constant-looking");
        assert!(ones >= 4, "ones = {ones}/40: p1 not constant-looking");
    }

    #[test]
    fn silent_members_within_budget_keep_agreement() {
        for seed in 0..20u64 {
            let members = committee_members(21, 7, committee_epoch_seed(seed), 0);
            // Silence f_c = 2 committee members.
            let silent: Vec<u16> = members.iter().take(2).map(|m| m.raw()).collect();
            let outs = run_committee(21, 7, &silent, seed, 0);
            let speaking: Vec<bool> = outs
                .iter()
                .enumerate()
                .filter(|(i, _)| !silent.contains(&(*i as u16)))
                .map(|(_, &b)| b)
                .collect();
            let first = speaking[0];
            assert!(
                speaking.iter().all(|&b| b == first),
                "seed {seed}: disagreement with silent members"
            );
        }
    }

    #[test]
    fn no_relay_quorum_defaults_to_false_everywhere() {
        // Silence the whole committee: nobody relays, all nodes fall back
        // to the deterministic `false`.
        let members = committee_members(21, 7, committee_epoch_seed(3), 0);
        let silent: Vec<u16> = members.iter().map(|m| m.raw()).collect();
        let outs = run_committee(21, 7, &silent, 3, 0);
        for (i, &b) in outs.iter().enumerate() {
            if !silent.contains(&(i as u16)) {
                assert!(!b, "node {i} accepted a coin with zero relays");
            }
        }
    }

    #[test]
    fn scheme_spawns_the_beat_keyed_committee() {
        let cfg = NodeCfg::new(NodeId::new(0), 64, 21);
        let mut scheme = CommitteeCoinScheme::new(cfg, 13, 5);
        let mut rng = SimRng::seed_from_u64(1);
        let at0 = scheme.spawn(&mut rng);
        scheme.begin_beat(3);
        let at3 = scheme.spawn(&mut rng);
        assert_eq!(at0.members(), committee_members(64, 13, 5, 0).as_slice());
        assert_eq!(at3.members(), committee_members(64, 13, 5, 3).as_slice());
        assert_ne!(at0.members(), at3.members());
        assert_eq!(scheme.fault_budget(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn undersized_committees_are_rejected() {
        let cfg = NodeCfg::new(NodeId::new(0), 16, 5);
        let _ = CommitteeCoinScheme::new(cfg, 3, 0);
    }

    #[test]
    fn observers_carry_no_gvss_state() {
        let members = committee_members(64, 13, 1, 0);
        let outsider = (0..64u16)
            .map(NodeId::new)
            .find(|id| members.binary_search(id).is_err())
            .unwrap();
        let cfg = NodeCfg::new(outsider, 64, 21);
        let mut inst = CommitteeCoinProto::new(cfg, members, GvssWorkspace::new());
        assert!(!inst.is_member());
        let mut rng = SimRng::seed_from_u64(0);
        for round in 0..COMMITTEE_COIN_ROUNDS {
            let mut sends = Vec::new();
            inst.send_round(round, &mut rng, &mut sends);
            assert!(sends.is_empty(), "observer sent in round {round}");
        }
        assert!(inst
            .metrics()
            .iter()
            .any(|&(k, v)| { k == "committee_observer_instances" && v == 1.0 }));
    }
}
