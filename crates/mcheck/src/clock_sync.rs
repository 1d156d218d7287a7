//! Small-models of `ss-Byz-Clock-Sync` (Fig. 4), mirroring the paper's
//! own proof structure: the composition is checked layer by layer, which
//! is sound because the top layer never feeds back into the 4-clock.
//!
//! - [`FourClockModel`] (layer A) machine-checks that the 4-clock of
//!   Fig. 3 converges and cycles `0 → 1 → 2 → 3` (Theorem 3's job). Each
//!   beat is split into **two engine steps** — the `A1` sub-beat and the
//!   gated `A2` sub-beat — because the rushing adversary chooses its `A2`
//!   letters *after* seeing `A1`'s coin; flattening the beat would
//!   under-approximate it.
//! - [`TopLayerModel`] (layer B) machine-checks the `k`-clock blocks
//!   (a)–(d) of Fig. 4 *assuming* a synced, cycling 4-clock (exactly what
//!   layer A establishes; Byzantine nodes cannot alter a synced 4-clock's
//!   transitions at `n = 4, f = 1` since every quorum is met by the three
//!   correct votes alone).
//!
//! Both models drive the real cores ([`FourClock`], [`ClockSync`])
//! through the model-checking restore hooks; transitions are computed by
//! replaying a node's full beat (all three send phases, then the phase-2
//! delivery) on a fresh instance. Per-node sequential execution is exact
//! for layer B: cross-node interaction happens only through the phase-2
//! broadcasts, which are captured before any delivery runs.

use byzclock_core::{
    ClockSync, ClockSyncMsg, FixedRand, FourClock, FourClockMsg, Trit, TwoClockMsg,
};
use byzclock_sim::{collect_sends, Application, Envelope, NodeCfg, NodeId, SimRng, Target};
use rand::SeedableRng;

use crate::engine::{Choice, Model};
use crate::two_clock::{trit_rank, trit_unrank};

const N: usize = 4;
const F: usize = 1;
const CORRECT: usize = 3;
const K: u8 = 4;

fn trit_name(r: u8) -> &'static str {
    ["0", "1", "⊥"][r as usize]
}

// ---------------------------------------------------------------------
// Layer A: the 4-clock
// ---------------------------------------------------------------------

/// Layer-A state: `phase` is 0 at beat boundaries and 1 between the `A1`
/// and `A2` sub-beats; each row is one correct node's `(a1, a2, gate)`
/// (trit ranks; `gate` is live only at phase 1 — a transient fault can
/// leave it inconsistent with `a1`, so it is part of the state — and
/// normalized to 0 at phase 0, where the protocol recomputes it before
/// the next read).
pub type FourState = (u8, Vec<(u8, u8, u8)>);

/// Byzantine letters for one sub-clock beat: silence or one vote (the
/// two-clock model separately certifies that duplicates collapse onto
/// these via first-wins dedup).
const SUB_LETTERS: [Option<Trit>; 4] = [None, Some(Trit::Zero), Some(Trit::One), Some(Trit::Bot)];

fn sub_letter_label(l: Option<Trit>) -> String {
    match l {
        None => "-".into(),
        Some(t) => format!("V{}", trit_name(trit_rank(t))),
    }
}

/// Exhaustive model of the 4-clock (Fig. 3) at `n = 4, f = 1`.
#[derive(Debug, Clone)]
pub struct FourClockModel {
    bound: u32,
}

impl FourClockModel {
    /// Builds the model with the default claimed convergence bound.
    pub fn new() -> Self {
        FourClockModel { bound: 6 }
    }

    /// Overrides the claimed convergence bound (beats).
    pub fn with_bound(mut self, bound: u32) -> Self {
        self.bound = bound;
        self
    }

    /// One `A1` sub-beat of node `i`, through the real [`FourClock`].
    fn step_a1(
        &self,
        rows: &[(u8, u8, u8)],
        i: usize,
        letter: Option<Trit>,
        bit: bool,
    ) -> (u8, u8, u8) {
        let me = NodeId::new(i as u16);
        let h1 = FixedRand::new();
        h1.set(bit);
        let mut four = FourClock::new(NodeCfg::new(me, N, F), h1.clone(), FixedRand::new());
        let (x, y, _) = rows[i];
        four.mc_set_state(trit_unrank(x), trit_unrank(y), false);
        let mut inbox: Vec<Envelope<FourClockMsg<()>>> = rows
            .iter()
            .enumerate()
            .map(|(j, &(xj, _, _))| {
                Envelope::new(
                    NodeId::new(j as u16),
                    me,
                    FourClockMsg::A1(TwoClockMsg::Clock(trit_unrank(xj))),
                )
            })
            .collect();
        if let Some(t) = letter {
            inbox.push(Envelope::new(
                NodeId::new(CORRECT as u16),
                me,
                FourClockMsg::A1(TwoClockMsg::Clock(t)),
            ));
        }
        let mut rng = SimRng::seed_from_u64(0);
        four.phase_deliver(0, &inbox, &mut rng);
        let x2 = trit_rank(four.a1().clock());
        // Fig. 3 line 2: the gate is clock(A1) after A1's beat.
        (x2, y, u8::from(x2 == 0))
    }

    /// One gated `A2` sub-beat of node `i`. Only nodes whose *own* gate
    /// is set send and deliver.
    fn step_a2(
        &self,
        rows: &[(u8, u8, u8)],
        i: usize,
        letter: Option<Trit>,
        bit: bool,
    ) -> (u8, u8, u8) {
        let me = NodeId::new(i as u16);
        let h2 = FixedRand::new();
        h2.set(bit);
        let mut four = FourClock::new(NodeCfg::new(me, N, F), FixedRand::new(), h2.clone());
        let (x, y, gate) = rows[i];
        four.mc_set_state(trit_unrank(x), trit_unrank(y), gate != 0);
        let mut inbox: Vec<Envelope<FourClockMsg<()>>> = rows
            .iter()
            .enumerate()
            .filter(|&(_, &(_, _, gj))| gj != 0)
            .map(|(j, &(_, yj, _))| {
                Envelope::new(
                    NodeId::new(j as u16),
                    me,
                    FourClockMsg::A2(TwoClockMsg::Clock(trit_unrank(yj))),
                )
            })
            .collect();
        if let Some(t) = letter {
            inbox.push(Envelope::new(
                NodeId::new(CORRECT as u16),
                me,
                FourClockMsg::A2(TwoClockMsg::Clock(t)),
            ));
        }
        let mut rng = SimRng::seed_from_u64(0);
        four.phase_deliver(1, &inbox, &mut rng);
        (x, trit_rank(four.a2().clock()), 0)
    }

    fn step_joint(
        &self,
        phase: u8,
        rows: &[(u8, u8, u8)],
        letters: &[Option<Trit>; CORRECT],
        bits: &[bool; CORRECT],
    ) -> FourState {
        let mut next: Vec<(u8, u8, u8)> = (0..CORRECT)
            .map(|i| {
                if phase == 0 {
                    self.step_a1(rows, i, letters[i], bits[i])
                } else {
                    self.step_a2(rows, i, letters[i], bits[i])
                }
            })
            .collect();
        next.sort_unstable();
        ((phase + 1) % 2, next)
    }
}

impl Default for FourClockModel {
    fn default() -> Self {
        FourClockModel::new()
    }
}

impl Model for FourClockModel {
    type State = FourState;

    fn name(&self) -> String {
        "four-clock n=4 f=1 (clock-sync layer A)".into()
    }

    fn initial_states(&self) -> Vec<FourState> {
        // Arbitrary (a1, a2) trits at beat boundaries, and arbitrary
        // (a1, a2, gate) mid-beat — a transient fault can hit between
        // the sub-beats and leave the gate inconsistent with a1.
        let mut out = Vec::new();
        for phase in 0..2u8 {
            let mut domain = Vec::new();
            for x in 0..3u8 {
                for y in 0..3u8 {
                    for g in 0..=phase {
                        domain.push((x, y, g));
                    }
                }
            }
            for a in 0..domain.len() {
                for b in a..domain.len() {
                    for c in b..domain.len() {
                        out.push((phase, vec![domain[a], domain[b], domain[c]]));
                    }
                }
            }
        }
        out
    }

    fn choices(&self, state: &FourState) -> Vec<Choice<FourState>> {
        let (phase, rows) = state;
        let mut out = Vec::new();
        for &l0 in &SUB_LETTERS {
            for &l1 in &SUB_LETTERS {
                for &l2 in &SUB_LETTERS {
                    let letters = [l0, l1, l2];
                    let label = format!(
                        "{} n0:{} n1:{} n2:{}",
                        if *phase == 0 { "A1" } else { "A2" },
                        sub_letter_label(letters[0]),
                        sub_letter_label(letters[1]),
                        sub_letter_label(letters[2]),
                    );
                    let common = vec![
                        self.step_joint(*phase, rows, &letters, &[false; CORRECT]),
                        self.step_joint(*phase, rows, &letters, &[true; CORRECT]),
                    ];
                    let mut adversarial = Vec::new();
                    for bits in 1..(1u32 << CORRECT) - 1 {
                        let bv = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                        adversarial.push(self.step_joint(*phase, rows, &letters, &bv));
                    }
                    out.push(Choice {
                        label,
                        common,
                        adversarial,
                    });
                }
            }
        }
        out
    }

    fn is_synced(&self, state: &FourState) -> bool {
        // All pairs equal and definite; at phase 1 the gate must also be
        // consistent with a1 (a corruption-flipped gate skips one A2
        // sub-beat and is therefore still *converging*, not synced).
        let rows = &state.1;
        rows.iter().all(|r| *r == rows[0])
            && rows[0].0 != 2
            && rows[0].1 != 2
            && (state.0 == 0 || rows[0].2 == u8::from(rows[0].0 == 0))
    }

    fn bound_beats(&self) -> u32 {
        self.bound
    }

    fn rank_per_beat(&self) -> u32 {
        2 // two engine steps (A1 sub-beat, A2 sub-beat) per beat
    }

    fn describe(&self, state: &FourState) -> String {
        let rows: Vec<String> = state
            .1
            .iter()
            .map(|&(x, y, g)| {
                if state.0 == 1 {
                    format!("({},{},g{})", trit_name(x), trit_name(y), g)
                } else {
                    format!("({},{})", trit_name(x), trit_name(y))
                }
            })
            .collect();
        format!("phase{} [{}]", state.0, rows.join(" "))
    }

    fn synced_progress(&self, from: &FourState, to: &FourState) -> bool {
        // The synced 4-clock must cycle 0 → 1 → 2 → 3: the A1 sub-beat
        // flips a1 and leaves a2; the A2 sub-beat flips a2 iff the gate
        // was set (a1 had just become 0) and leaves a1.
        let (fx, fy, _) = from.1[0];
        to.1.iter().all(|&(tx, ty, _)| {
            if from.0 == 0 {
                ty == fy && tx == fx ^ 1
            } else {
                tx == fx && ty == if fx == 0 { fy ^ 1 } else { fy }
            }
        })
    }
}

// ---------------------------------------------------------------------
// Layer B: the k-clock blocks over a synced 4-clock
// ---------------------------------------------------------------------

/// Layer-B state: the shared 4-clock block value `b` plus one row per
/// correct node. A row is `(full_clock, e1, e2)` where `(e1, e2)` encode
/// the *live* image of the previous beat's receipts — exactly what the
/// next block reads, nothing more:
///
/// - entering `b = 0`: nothing is live — `(fc, 0, 0)`;
/// - entering `b = 1`: the propose image of the `Full` receipts —
///   `(fc, v, 0)` with `v ∈ 0..k` or `v = k` for `⊥`;
/// - entering `b = 2`: the `(save, bit)` image of the `Propose` receipts —
///   `(fc, save, bit)`;
/// - entering `b = 3`: the retained `save` and the bit-vote class —
///   `(fc, save, class)` with class 0 = no quorum, 1 = ones-quorum,
///   2 = zeros-quorum.
pub type TopState = (u8, Vec<(u8, u8, u8)>);

const CLASS_NEITHER: u8 = 0;
const CLASS_ONES: u8 = 1;
const CLASS_ZEROS: u8 = 2;

/// One Byzantine phase-2 letter of the top layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopLetter {
    Silent,
    Full(u64),
    Propose(u64),
    Bit(bool),
}

impl TopLetter {
    fn label(&self) -> String {
        match self {
            TopLetter::Silent => "-".into(),
            TopLetter::Full(v) => format!("F{v}"),
            TopLetter::Propose(v) => format!("P{v}"),
            TopLetter::Bit(b) => format!("B{}", u8::from(*b)),
        }
    }
}

/// The covering per-recipient Byzantine alphabet for a beat with block
/// value `b`:
///
/// - `b = 0` (`Full` beat): silence or `Full(v)`, `v < k`. Out-of-range
///   values are equivalent to silence — with one Byzantine sender a
///   garbage value can never reach the `n − f` propose quorum.
/// - `b = 1` (`Propose` beat): silence (≡ `Propose(⊥)`, which block (c)
///   ignores), `Propose(v)` for `v < k`, and `Propose(k + r)` for
///   `r < k` — the representative out-of-range value: it loses every
///   count tie (block (c) breaks ties to the smaller value) and its
///   retained `save` is its residue `r`.
/// - `b = 2` (`BitVote` beat): silence or either bit.
/// - `b = 3`: silence only — messages received during a `b = 3` beat are
///   overwritten before any block reads them.
fn letters_for_block(b: u8) -> Vec<TopLetter> {
    match b {
        0 => {
            let mut l = vec![TopLetter::Silent];
            l.extend((0..K as u64).map(TopLetter::Full));
            l
        }
        1 => {
            let mut l = vec![TopLetter::Silent];
            l.extend((0..K as u64).map(TopLetter::Propose));
            l.extend((0..K as u64).map(|r| TopLetter::Propose(K as u64 + r)));
            l
        }
        2 => vec![
            TopLetter::Silent,
            TopLetter::Bit(false),
            TopLetter::Bit(true),
        ],
        _ => vec![TopLetter::Silent],
    }
}

/// Exhaustive model of the Fig. 4 top layer at `n = 4, f = 1, k = 4`,
/// over a synced cycling 4-clock.
#[derive(Debug, Clone)]
pub struct TopLayerModel {
    bound: u32,
}

impl TopLayerModel {
    /// Builds the model with the default claimed convergence bound.
    pub fn new() -> Self {
        TopLayerModel { bound: 8 }
    }

    /// Overrides the claimed convergence bound (beats).
    pub fn with_bound(mut self, bound: u32) -> Self {
        self.bound = bound;
        self
    }

    /// The pinned sub-clock pair for a beat whose block dispatch must
    /// read `clock(A) = b` (`b = 2·a2 + a1`).
    fn four_state(b: u8) -> (Trit, Trit) {
        (
            trit_unrank(b & 1),        // a1
            trit_unrank((b >> 1) & 1), // a2
        )
    }

    /// Builds node `i` and replays its send half of a `b`-beat: restore
    /// the canonical row, run all three send phases (capturing the block
    /// and incrementing `full_clock`), and return the node plus its
    /// phase-2 broadcast, if any.
    fn spin_up(
        &self,
        b: u8,
        row: (u8, u8, u8),
        i: usize,
        bit: bool,
    ) -> (ClockSync<FixedRand>, Option<ClockSyncMsg<()>>) {
        let me = NodeId::new(i as u16);
        let h = FixedRand::new();
        h.set(bit);
        let mut node = ClockSync::new(
            NodeCfg::new(me, N, F),
            K as u64,
            FixedRand::new(),
            FixedRand::new(),
            h.clone(),
        );
        let (fc, e1, e2) = row;
        let (a1, a2) = TopLayerModel::four_state(b);
        let (save, fulls, proposes, bits) = match b {
            0 => (0, Vec::new(), Vec::new(), Vec::new()),
            1 => {
                // e1 = propose image: v < k, or k for ⊥.
                let fulls: Vec<(NodeId, u64)> = if e1 < K {
                    (0..CORRECT)
                        .map(|j| (NodeId::new(j as u16), e1 as u64))
                        .collect()
                } else {
                    Vec::new()
                };
                (0, fulls, Vec::new(), Vec::new())
            }
            2 => {
                // (e1, e2) = (save, bit) image of the propose receipts: a
                // quorum of Some(save) if bit, else a single receipt.
                let count = if e2 != 0 { CORRECT } else { 1 };
                let proposes: Vec<(NodeId, Option<u64>)> = (0..count)
                    .map(|j| (NodeId::new(j as u16), Some(e1 as u64)))
                    .collect();
                (0, Vec::new(), proposes, Vec::new())
            }
            _ => {
                // e2 = bit-vote class.
                let bits: Vec<(NodeId, bool)> = match e2 {
                    CLASS_ONES => (0..CORRECT)
                        .map(|j| (NodeId::new(j as u16), true))
                        .collect(),
                    CLASS_ZEROS => (0..CORRECT)
                        .map(|j| (NodeId::new(j as u16), false))
                        .collect(),
                    _ => vec![(NodeId::new(0), true), (NodeId::new(1), false)],
                };
                (e1 as u64, Vec::new(), Vec::new(), bits)
            }
        };
        node.mc_restore_top(a1, a2, fc as u64, save, fulls, proposes, bits);
        let mut rng = SimRng::seed_from_u64(0);
        collect_sends(&mut node, 0, &mut rng); // captures block = clock(A)
        collect_sends(&mut node, 1, &mut rng);
        let phase2 = collect_sends(&mut node, 2, &mut rng);
        let broadcast = phase2.into_iter().find_map(|(t, m)| {
            debug_assert!(matches!(t, Target::All));
            match m {
                ClockSyncMsg::Coin(_) => None,
                other => Some(other),
            }
        });
        (node, broadcast)
    }

    /// One full beat of node `i`: send half, then the phase-2 delivery
    /// with the correct broadcasts plus one Byzantine letter. Returns the
    /// node's next canonical row.
    #[allow(clippy::too_many_arguments)]
    fn step_node(
        &self,
        b: u8,
        rows: &[(u8, u8, u8)],
        broadcasts: &[Option<ClockSyncMsg<()>>],
        i: usize,
        letter: TopLetter,
        bit: bool,
    ) -> (u8, u8, u8) {
        let me = NodeId::new(i as u16);
        let (mut node, _) = self.spin_up(b, rows[i], i, bit);
        let mut inbox: Vec<Envelope<ClockSyncMsg<()>>> = broadcasts
            .iter()
            .enumerate()
            .filter_map(|(j, m)| {
                m.clone()
                    .map(|msg| Envelope::new(NodeId::new(j as u16), me, msg))
            })
            .collect();
        let byz = NodeId::new(CORRECT as u16);
        match letter {
            TopLetter::Silent => {}
            TopLetter::Full(v) => inbox.push(Envelope::new(byz, me, ClockSyncMsg::Full(v))),
            TopLetter::Propose(v) => {
                inbox.push(Envelope::new(byz, me, ClockSyncMsg::Propose(Some(v))))
            }
            TopLetter::Bit(v) => inbox.push(Envelope::new(byz, me, ClockSyncMsg::BitVote(v))),
        }
        let mut rng = SimRng::seed_from_u64(0);
        node.deliver(2, &inbox, &mut rng);
        let fc = node.full_clock() as u8;
        match (b + 1) % K {
            0 => (fc, 0, 0),
            1 => {
                let img = node.mc_propose_image().map_or(K, |v| v as u8);
                (fc, img, 0)
            }
            2 => {
                let (s, bit) = node.mc_save_bit_image();
                (fc, (s.unwrap_or(0) % K as u64) as u8, u8::from(bit))
            }
            _ => {
                let quorum = N - F;
                let bits = node.mc_prev_bits();
                let ones = bits.iter().filter(|&&(_, v)| v).count();
                let zeros = bits.iter().filter(|&&(_, v)| !v).count();
                let class = if ones >= quorum {
                    CLASS_ONES
                } else if zeros >= quorum {
                    CLASS_ZEROS
                } else {
                    CLASS_NEITHER
                };
                (fc, node.mc_save() as u8, class)
            }
        }
    }

    fn step_joint(
        &self,
        b: u8,
        rows: &[(u8, u8, u8)],
        broadcasts: &[Option<ClockSyncMsg<()>>],
        letters: &[TopLetter; CORRECT],
        bits: &[bool; CORRECT],
    ) -> TopState {
        let mut next: Vec<(u8, u8, u8)> = (0..CORRECT)
            .map(|i| self.step_node(b, rows, broadcasts, i, letters[i], bits[i]))
            .collect();
        next.sort_unstable();
        ((b + 1) % K, next)
    }

    fn row_domain(b: u8) -> Vec<(u8, u8, u8)> {
        let mut out = Vec::new();
        for fc in 0..K {
            match b {
                0 => out.push((fc, 0, 0)),
                1 => out.extend((0..=K).map(|v| (fc, v, 0))),
                2 => {
                    for s in 0..K {
                        for bit in 0..2 {
                            out.push((fc, s, bit));
                        }
                    }
                }
                _ => {
                    for s in 0..K {
                        for class in [CLASS_NEITHER, CLASS_ONES, CLASS_ZEROS] {
                            out.push((fc, s, class));
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for TopLayerModel {
    fn default() -> Self {
        TopLayerModel::new()
    }
}

impl Model for TopLayerModel {
    type State = TopState;

    fn name(&self) -> String {
        "clock-sync n=4 f=1 k=4 (layer B over a synced 4-clock)".into()
    }

    fn initial_states(&self) -> Vec<TopState> {
        // Every canonical state is a legitimate wake-up state: a
        // transient fault leaves arbitrary raw prev_* vectors, the row
        // encoding is exactly their live image, and fc/save are mod-k
        // from the first beat on.
        let mut out = Vec::new();
        for b in 0..K {
            let domain = TopLayerModel::row_domain(b);
            for x in 0..domain.len() {
                for y in x..domain.len() {
                    for z in y..domain.len() {
                        out.push((b, vec![domain[x], domain[y], domain[z]]));
                    }
                }
            }
        }
        out
    }

    fn choices(&self, state: &TopState) -> Vec<Choice<TopState>> {
        let (b, rows) = state;
        // The phase-2 broadcasts do not depend on the Byzantine letters
        // or the coin — compute them once per state.
        let broadcasts: Vec<Option<ClockSyncMsg<()>>> = (0..CORRECT)
            .map(|i| self.spin_up(*b, rows[i], i, false).1)
            .collect();
        let letters = letters_for_block(*b);
        let mut out = Vec::new();
        for l0 in 0..letters.len() {
            for l1 in 0..letters.len() {
                for l2 in 0..letters.len() {
                    let ls = [letters[l0], letters[l1], letters[l2]];
                    let label = format!(
                        "b{} n0:{} n1:{} n2:{}",
                        b,
                        ls[0].label(),
                        ls[1].label(),
                        ls[2].label()
                    );
                    let (common, adversarial) = if *b == 3 {
                        // Block (d) reads the beat's coin.
                        let common = vec![
                            self.step_joint(*b, rows, &broadcasts, &ls, &[false; CORRECT]),
                            self.step_joint(*b, rows, &broadcasts, &ls, &[true; CORRECT]),
                        ];
                        let mut adversarial = Vec::new();
                        for bits in 1..(1u32 << CORRECT) - 1 {
                            let bv = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                            adversarial.push(self.step_joint(*b, rows, &broadcasts, &ls, &bv));
                        }
                        (common, adversarial)
                    } else {
                        (
                            vec![self.step_joint(*b, rows, &broadcasts, &ls, &[false; CORRECT])],
                            Vec::new(),
                        )
                    };
                    out.push(Choice {
                        label,
                        common,
                        adversarial,
                    });
                }
            }
        }
        out
    }

    fn is_synced(&self, state: &TopState) -> bool {
        // Agreement alone is not enough: the receipt images must also be
        // *cycle-coherent* — the values the synchronized operating cycle
        // produces. An agreeing b = 3 state with `save ≠ fc − 2` is a
        // transient: block (d) jumps its clock (stabilization at work),
        // so it cannot be in the closed synced set.
        let rows = &state.1;
        if !rows.iter().all(|r| *r == rows[0]) {
            return false;
        }
        let (fc, e1, e2) = rows[0];
        match state.0 {
            0 => true,
            1 => e1 == fc,
            2 => e1 == (fc + 3) % K && e2 == 1,
            _ => e1 == (fc + 2) % K && e2 == CLASS_ONES,
        }
    }

    fn bound_beats(&self) -> u32 {
        self.bound
    }

    fn describe(&self, state: &TopState) -> String {
        let rows: Vec<String> = state
            .1
            .iter()
            .map(|&(fc, e1, e2)| match state.0 {
                0 => format!("fc{fc}"),
                1 => format!(
                    "fc{fc},p{}",
                    if e1 >= K {
                        "⊥".into()
                    } else {
                        e1.to_string()
                    }
                ),
                2 => format!("fc{fc},s{e1},b{e2}"),
                _ => format!("fc{fc},s{e1},{}", ["no-q", "ones", "zeros"][e2 as usize]),
            })
            .collect();
        format!("b{} [{}]", state.0, rows.join(" "))
    }

    fn synced_progress(&self, from: &TopState, to: &TopState) -> bool {
        // A synced k-clock ticks once per beat, through every block —
        // including block (d)'s overwrite, which must be the identity on
        // a synced cycle.
        let fc = from.1[0].0;
        to.1.iter().all(|&(tfc, _, _)| tfc == (fc + 1) % K)
    }
}
