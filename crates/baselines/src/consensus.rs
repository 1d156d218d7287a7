//! Classic deterministic Byzantine agreement, packaged as pipelineable
//! [`RoundProtocol`] instances.
//!
//! Two multivalued consensus protocols back the deterministic clock
//! baselines of Table 1:
//!
//! - [`PhaseKingConsensus`] (`n > 3f`): a Turpin–Coan front-end reduces the
//!   multivalued input to one bit plus a locked candidate value, then
//!   `f + 1` three-round phase-king phases decide the bit
//!   (Berman–Garay–Perry). `2 + 3(f+1)` rounds total — the \[7\]-shaped row.
//! - [`QueenConsensus`] (`n > 4f`): `f + 1` two-round plurality/queen
//!   phases decide the value directly — the \[15\]-shaped row with the
//!   weaker resiliency (experiment R1 shows it breaking at `f ≥ n/4`
//!   while phase-king survives to `f < n/3`).
//!
//! Both guarantee, once every correct node runs the instance in lockstep:
//! **agreement** (all correct outputs equal) and **validity** (unanimous
//! correct inputs are decided).

use byzclock_core::RoundProtocol;
use byzclock_sim::{NodeCfg, NodeId, SimRng, Target, Wire, WireFormat, WireReader, WireWriter};
use rand::Rng;

/// Messages of the consensus instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaMsg {
    /// A multivalued value exchange (TC round 0, queen rounds).
    Val(u64),
    /// Turpin–Coan permission value (`None` = ⊥).
    Perm(Option<u64>),
    /// A binary preference exchange (phase-king rounds A and C).
    Bit(bool),
    /// A binary proposal (`None` = ⊥; phase-king round B).
    BitProp(Option<bool>),
}

impl Wire for BaMsg {
    #[inline]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        match self {
            BaMsg::Val(v) => w.put_tagged(0, v, format),
            BaMsg::Perm(p) => w.put_tagged(1, p, format),
            BaMsg::Bit(b) => w.put_tagged(2, b, format),
            BaMsg::BitProp(p) => w.put_tagged(3, p, format),
        }
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(BaMsg::Val(Wire::decode(format, r)?)),
            1 => Some(BaMsg::Perm(Wire::decode(format, r)?)),
            2 => Some(BaMsg::Bit(Wire::decode(format, r)?)),
            3 => Some(BaMsg::BitProp(Wire::decode(format, r)?)),
            _ => None,
        }
    }
}

/// One vote per sender, first message wins.
fn dedup<T: Copy>(inbox: &[(NodeId, T)]) -> Vec<(NodeId, T)> {
    let mut out: Vec<(NodeId, T)> = Vec::new();
    for &(from, v) in inbox {
        if out.last().map(|&(prev, _)| prev) != Some(from) {
            out.push((from, v));
        }
    }
    out
}

/// Count occurrences of each value; returns `(value, count)` of the most
/// frequent (ties to the smaller value), or `None` when empty.
fn plurality(values: impl Iterator<Item = u64>) -> Option<(u64, usize)> {
    let mut counts: Vec<(u64, usize)> = Vec::new();
    for v in values {
        match counts.iter_mut().find(|(val, _)| *val == v) {
            Some((_, c)) => *c += 1,
            None => counts.push((v, 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
}

/// Rounds used by [`PhaseKingConsensus`] for fault budget `f`.
pub fn phase_king_rounds(f: usize) -> usize {
    2 + 3 * (f + 1)
}

/// Turpin–Coan + binary phase-king multivalued consensus (`n > 3f`).
#[derive(Debug, Clone)]
pub struct PhaseKingConsensus {
    cfg: NodeCfg,
    input: u64,
    /// TC: the value I permit (had an `n − f` quorum in round 0).
    perm: Option<u64>,
    /// TC: the locked candidate output value.
    locked: Option<u64>,
    /// Binary preference threaded through the king phases.
    pref: bool,
    /// Strength of the current preference after a B round (0, 1, 2).
    strength: u8,
    /// Phase-king proposal after an A round.
    prop: Option<bool>,
}

impl PhaseKingConsensus {
    /// A fresh instance with this node's `input`.
    pub fn new(cfg: NodeCfg, input: u64) -> Self {
        PhaseKingConsensus {
            cfg,
            input,
            perm: None,
            locked: None,
            pref: false,
            strength: 0,
            prop: None,
        }
    }

    /// The king of phase `p` is node `p` (ids `0..=f`, so at least one
    /// phase has a correct king).
    fn king_of_phase(p: usize) -> NodeId {
        NodeId::new(p as u16)
    }

    /// Decompose a round index: rounds 0–1 are Turpin–Coan; from round 2,
    /// each phase spans three rounds (A, B, C).
    fn phase_round(round: usize) -> Option<(usize, usize)> {
        round.checked_sub(2).map(|r| (r / 3, r % 3))
    }
}

impl RoundProtocol for PhaseKingConsensus {
    type Msg = BaMsg;
    type Output = u64;

    fn send_round(&mut self, round: usize, _rng: &mut SimRng, out: &mut Vec<(Target, BaMsg)>) {
        match round {
            0 => out.push((Target::All, BaMsg::Val(self.input))),
            1 => out.push((Target::All, BaMsg::Perm(self.perm))),
            _ => {
                let Some((phase, sub)) = Self::phase_round(round) else {
                    return;
                };
                if phase > self.cfg.f {
                    return;
                }
                match sub {
                    0 => out.push((Target::All, BaMsg::Bit(self.pref))),
                    1 => out.push((Target::All, BaMsg::BitProp(self.prop))),
                    2 => {
                        if Self::king_of_phase(phase) == self.cfg.id {
                            out.push((Target::All, BaMsg::Bit(self.pref)));
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, BaMsg)], _rng: &mut SimRng) {
        let quorum = self.cfg.quorum();
        let f = self.cfg.f;
        match round {
            0 => {
                let vals = dedup(
                    &inbox
                        .iter()
                        .filter_map(|&(from, m)| match m {
                            BaMsg::Val(v) => Some((from, v)),
                            _ => None,
                        })
                        .collect::<Vec<_>>(),
                );
                self.perm = plurality(vals.iter().map(|&(_, v)| v))
                    .filter(|&(_, c)| c >= quorum)
                    .map(|(v, _)| v);
            }
            1 => {
                let perms = dedup(
                    &inbox
                        .iter()
                        .filter_map(|&(from, m)| match m {
                            BaMsg::Perm(p) => Some((from, p)),
                            _ => None,
                        })
                        .collect::<Vec<_>>(),
                );
                let best = plurality(perms.iter().filter_map(|&(_, p)| p));
                self.locked = best.map(|(v, _)| v);
                self.pref = best.is_some_and(|(_, c)| c >= quorum);
            }
            _ => {
                let Some((phase, sub)) = Self::phase_round(round) else {
                    return;
                };
                if phase > f {
                    return;
                }
                match sub {
                    0 => {
                        let bits = dedup(
                            &inbox
                                .iter()
                                .filter_map(|&(from, m)| match m {
                                    BaMsg::Bit(b) => Some((from, b)),
                                    _ => None,
                                })
                                .collect::<Vec<_>>(),
                        );
                        let ones = bits.iter().filter(|&&(_, b)| b).count();
                        let zeros = bits.len() - ones;
                        self.prop = if ones >= quorum {
                            Some(true)
                        } else if zeros >= quorum {
                            Some(false)
                        } else {
                            None
                        };
                    }
                    1 => {
                        let props = dedup(
                            &inbox
                                .iter()
                                .filter_map(|&(from, m)| match m {
                                    BaMsg::BitProp(p) => Some((from, p)),
                                    _ => None,
                                })
                                .collect::<Vec<_>>(),
                        );
                        let ones = props.iter().filter(|&&(_, p)| p == Some(true)).count();
                        let zeros = props.iter().filter(|&&(_, p)| p == Some(false)).count();
                        let (v, c) = if ones >= zeros {
                            (true, ones)
                        } else {
                            (false, zeros)
                        };
                        self.strength = if c >= quorum {
                            2
                        } else if c > f {
                            1
                        } else {
                            0
                        };
                        if self.strength >= 1 {
                            self.pref = v;
                        }
                    }
                    2 => {
                        if self.strength < 2 {
                            let king = Self::king_of_phase(phase);
                            self.pref = inbox
                                .iter()
                                .find_map(|&(from, m)| match m {
                                    BaMsg::Bit(b) if from == king => Some(b),
                                    _ => None,
                                })
                                .unwrap_or(false);
                        }
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    fn output(&self) -> u64 {
        if self.pref {
            self.locked.unwrap_or(0)
        } else {
            0
        }
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.input = rng.random();
        self.perm = rng.random::<bool>().then(|| rng.random());
        self.locked = rng.random::<bool>().then(|| rng.random());
        self.pref = rng.random();
        self.strength = rng.random_range(0..3);
        self.prop = rng.random::<bool>().then(|| rng.random());
    }
}

/// Rounds used by [`QueenConsensus`] for fault budget `f`.
pub fn queen_rounds(f: usize) -> usize {
    2 * (f + 1)
}

/// Plurality + queen multivalued consensus (`n > 4f`, 2 rounds per phase).
#[derive(Debug, Clone)]
pub struct QueenConsensus {
    cfg: NodeCfg,
    pref: u64,
    /// Support of my preference after the exchange round.
    support: usize,
}

impl QueenConsensus {
    /// A fresh instance with this node's `input`.
    pub fn new(cfg: NodeCfg, input: u64) -> Self {
        QueenConsensus {
            cfg,
            pref: input,
            support: 0,
        }
    }

    fn queen_of_phase(p: usize) -> NodeId {
        NodeId::new(p as u16)
    }
}

impl RoundProtocol for QueenConsensus {
    type Msg = BaMsg;
    type Output = u64;

    fn send_round(&mut self, round: usize, _rng: &mut SimRng, out: &mut Vec<(Target, BaMsg)>) {
        let phase = round / 2;
        if phase > self.cfg.f {
            return;
        }
        // Even rounds: everyone reports; odd rounds: only the phase queen.
        if round.is_multiple_of(2) || Self::queen_of_phase(phase) == self.cfg.id {
            out.push((Target::All, BaMsg::Val(self.pref)));
        }
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, BaMsg)], _rng: &mut SimRng) {
        let phase = round / 2;
        if phase > self.cfg.f {
            return;
        }
        let vals = dedup(
            &inbox
                .iter()
                .filter_map(|&(from, m)| match m {
                    BaMsg::Val(v) => Some((from, v)),
                    _ => None,
                })
                .collect::<Vec<_>>(),
        );
        if round.is_multiple_of(2) {
            if let Some((v, c)) = plurality(vals.iter().map(|&(_, v)| v)) {
                self.pref = v;
                self.support = c;
            } else {
                self.support = 0;
            }
        } else {
            let queen = Self::queen_of_phase(phase);
            if self.support < self.cfg.quorum() {
                self.pref = vals
                    .iter()
                    .find_map(|&(from, v)| (from == queen).then_some(v))
                    .unwrap_or(0);
            }
        }
    }

    fn output(&self) -> u64 {
        self.pref
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.pref = rng.random();
        self.support = rng.random_range(0..=self.cfg.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Runs one instance across n nodes; `byz` behave per `byz_msg`, which
    /// returns the (possibly per-recipient) message for a round, or `None`
    /// for silence.
    fn run<P, F, B>(
        n: usize,
        f: usize,
        rounds: usize,
        make: F,
        byz: &[u16],
        mut byz_msg: B,
    ) -> Vec<u64>
    where
        P: RoundProtocol<Msg = BaMsg, Output = u64>,
        F: Fn(NodeCfg) -> P,
        B: FnMut(usize, u16, u16) -> Option<BaMsg>, // (round, byz id, recipient)
    {
        let mut rng = SimRng::seed_from_u64(1);
        let mut protos: Vec<Option<P>> = (0..n as u16)
            .map(|i| (!byz.contains(&i)).then(|| make(NodeCfg::new(NodeId::new(i), n, f))))
            .collect();
        for round in 0..rounds {
            let mut inboxes: Vec<Vec<(NodeId, BaMsg)>> = vec![Vec::new(); n];
            for i in 0..n as u16 {
                match &mut protos[i as usize] {
                    Some(p) => {
                        let mut out = Vec::new();
                        p.send_round(round, &mut rng, &mut out);
                        for (t, m) in out {
                            match t {
                                Target::All => {
                                    for inbox in inboxes.iter_mut() {
                                        inbox.push((NodeId::new(i), m));
                                    }
                                }
                                Target::One(to) => inboxes[to.index()].push((NodeId::new(i), m)),
                            }
                        }
                    }
                    None => {
                        for to in 0..n as u16 {
                            if let Some(m) = byz_msg(round, i, to) {
                                inboxes[to as usize].push((NodeId::new(i), m));
                            }
                        }
                    }
                }
            }
            for inbox in inboxes.iter_mut() {
                inbox.sort_by_key(|&(from, _)| from);
            }
            for (i, p) in protos.iter_mut().enumerate() {
                if let Some(p) = p {
                    p.recv_round(round, &inboxes[i], &mut rng);
                }
            }
        }
        protos.iter().flatten().map(|p| p.output()).collect()
    }

    #[test]
    fn phase_king_validity_unanimous_inputs() {
        for input in [0u64, 7, 123] {
            let outs = run(
                7,
                2,
                phase_king_rounds(2),
                |cfg| PhaseKingConsensus::new(cfg, input),
                &[5, 6],
                |_, _, _| None,
            );
            assert!(
                outs.iter().all(|&o| o == input),
                "validity broken for {input}"
            );
        }
    }

    #[test]
    fn phase_king_agreement_mixed_inputs() {
        // Correct nodes start with different values; byz equivocate
        // randomly-ish (deterministic pattern).
        let outs = run(
            7,
            2,
            phase_king_rounds(2),
            |cfg| PhaseKingConsensus::new(cfg, u64::from(cfg.id.raw() % 3)),
            &[5, 6],
            |round, b, to| {
                Some(match round {
                    0 => BaMsg::Val(u64::from((b + to) % 4)),
                    1 => BaMsg::Perm(((b + to) % 2 == 0).then_some(u64::from(to % 3))),
                    r => {
                        if (r - 2) % 3 == 1 {
                            BaMsg::BitProp(Some((b + to + r as u16).is_multiple_of(2)))
                        } else {
                            BaMsg::Bit((b + to + r as u16).is_multiple_of(2))
                        }
                    }
                })
            },
        );
        let first = outs[0];
        assert!(
            outs.iter().all(|&o| o == first),
            "agreement broken: {outs:?}"
        );
    }

    #[test]
    fn phase_king_agreement_with_byzantine_kings() {
        // Byzantine nodes 0 and 1 are the kings of the first two phases;
        // the third phase's correct king must still force agreement.
        let outs = run(
            7,
            2,
            phase_king_rounds(2),
            |cfg| PhaseKingConsensus::new(cfg, u64::from(cfg.id.raw() % 2)),
            &[0, 1],
            |round, b, to| {
                Some(match round {
                    0 => BaMsg::Val(u64::from(to % 2)),
                    1 => BaMsg::Perm(Some(u64::from(to % 2))),
                    r => {
                        if (r - 2) % 3 == 1 {
                            BaMsg::BitProp(None)
                        } else {
                            // Equivocating king bits.
                            BaMsg::Bit((b + to) % 2 == 0)
                        }
                    }
                })
            },
        );
        let first = outs[0];
        assert!(
            outs.iter().all(|&o| o == first),
            "agreement broken: {outs:?}"
        );
    }

    #[test]
    fn queen_validity_and_agreement() {
        // Validity with unanimous inputs, one byz node (n = 5 > 4f).
        let outs = run(
            5,
            1,
            queen_rounds(1),
            |cfg| QueenConsensus::new(cfg, 9),
            &[4],
            |_, _, to| Some(BaMsg::Val(u64::from(to))),
        );
        assert!(
            outs.iter().all(|&o| o == 9),
            "queen validity broken: {outs:?}"
        );
        // Agreement with mixed inputs.
        let outs = run(
            5,
            1,
            queen_rounds(1),
            |cfg| QueenConsensus::new(cfg, u64::from(cfg.id.raw())),
            &[4],
            |_, b, to| Some(BaMsg::Val(u64::from(b + to))),
        );
        let first = outs[0];
        assert!(
            outs.iter().all(|&o| o == first),
            "queen agreement broken: {outs:?}"
        );
    }

    #[test]
    fn round_counts() {
        assert_eq!(phase_king_rounds(2), 11);
        assert_eq!(queen_rounds(2), 6);
    }

    /// The resiliency boundary, demonstrated deterministically: at
    /// `n = 4f` (n=4, f=1) a targeted equivocation schedule with the
    /// Byzantine node owning the first queen phase breaks agreement —
    /// final outputs split [0, 1, 1]. The same inputs under the `n > 3f`
    /// phase-king protocol (and the same lying pattern) stay in agreement.
    /// This is Table 1's resiliency column, executable (experiment R1).
    #[test]
    fn queen_agreement_breaks_at_n_equals_4f_but_phase_king_holds() {
        // Byzantine node 0; correct inputs (nodes 1, 2, 3): [1, 1, 0].
        // Value lies per round, indexed by recipient 1..=3.
        let queen_lies = |round: usize, to: u16| -> u64 {
            match round {
                0 | 1 => [1, 1, 0][(to - 1) as usize],
                _ => [0, 1, 1][(to - 1) as usize],
            }
        };
        let outs = run(
            4,
            1,
            queen_rounds(1),
            |cfg| QueenConsensus::new(cfg, [0, 1, 1, 0][cfg.id.index()]),
            &[0],
            |round, _b, to| (to != 0).then(|| BaMsg::Val(queen_lies(round, to))),
        );
        assert_eq!(outs, vec![0, 1, 1], "n = 4f boundary: agreement must break");

        // Phase-king at the same n, f (n > 3f holds): the adversary lies
        // with values, permissions, and bits — agreement survives.
        let outs = run(
            4,
            1,
            phase_king_rounds(1),
            |cfg| PhaseKingConsensus::new(cfg, [0, 1, 1, 0][cfg.id.index()]),
            &[0],
            |round, _b, to| {
                (to != 0).then(|| match round {
                    0 => BaMsg::Val(queen_lies(0, to)),
                    1 => BaMsg::Perm(Some(queen_lies(1, to))),
                    r => {
                        if (r - 2) % 3 == 1 {
                            BaMsg::BitProp(Some(to % 2 == 0))
                        } else {
                            BaMsg::Bit(to % 2 == 1)
                        }
                    }
                })
            },
        );
        let first = outs[0];
        assert!(
            outs.iter().all(|&o| o == first),
            "phase-king must keep agreement at n > 3f: {outs:?}"
        );
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(WireFormat::Fixed.len_of(&BaMsg::Val(1)), 9);
        assert_eq!(WireFormat::Fixed.len_of(&BaMsg::Perm(None)), 2);
        assert_eq!(WireFormat::Fixed.len_of(&BaMsg::Bit(true)), 2);
        assert_eq!(WireFormat::Fixed.len_of(&BaMsg::BitProp(Some(false))), 3);
    }
}
