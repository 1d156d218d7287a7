//! Small-model of `bd-clock` (the §6.3 bounded-delay clock), driven
//! through the real [`BdClock`] core via its snapshot/restore seam.
//!
//! # Canonical state
//!
//! The joint state is, per correct node, the mutable protocol state a
//! [`BdSnapshot`] captures — round, timeout age, send latches, wheel
//! support — plus one *shared* freshness-evidence table and the in-flight
//! correct bundles (window 2 only). Two exact reductions keep it finite:
//!
//! - **Relative ages.** Beat counters and claimed send beats are
//!   unbounded, but `fresh_support` only compares `beat - claimed`
//!   against the window. Evidence is therefore stored as an age class per
//!   `(tag, sender)`: fresh ages that can still matter (`1..window`) and
//!   absent — ages `>= window` never count again and only grow, and
//!   `note_evidence`'s max-merge makes dropping them exact. Every
//!   transition re-anchors ages to a fixed base beat.
//! - **Node symmetry.** The protocol is id-independent, so states are
//!   canonicalized to the lexicographic minimum over the `3! = 6`
//!   relabelings of the correct nodes (rows, in-flight slots, wheel
//!   sender bits, and evidence columns permuted together).
//!
//! # Byzantine alphabet
//!
//! The Byzantine node equicasts, per clock tag, one of: nothing; a
//! *fresh* claim (sent this beat); an *edge* claim (window 2 only: fresh
//! for exactly this beat's rules, stale afterwards); or a *stale* claim
//! (parks in the wheel — quorum support — without ever counting as fresh
//! evidence, since wheel ingest ignores claimed beats while
//! `fresh_support` reads them). These are the equivalence classes of a
//! *past* claimed beat under the protocol's two reads of a message (wheel
//! membership and freshness), so per tag the alphabet covers everything a
//! Byzantine sender can put on the wire this beat.
//!
//! # Soundness caveats (documented under-approximations)
//!
//! - **Equicast.** The Byzantine letter is broadcast: every correct node
//!   receives the same forged tags each beat (split sends are not
//!   enumerated).
//! - **Sender-uniform delays.** Under window 2 each correct sender's
//!   per-beat bundle is delayed as a unit — 0 or 1 beats to *all*
//!   recipients, the sender's own copy included — whereas the simulator
//!   draws a delay per envelope.
//! - **Quiet faults.** Initial states are the transient-fault images of
//!   the real `corrupt` with an empty network; bundles already in flight
//!   at the fault instant are not enumerated (every in-flight
//!   configuration arising *after* the fault is).
//! - **No future-beat claims.** The sim's `send_tagged` lets a Byzantine
//!   sender claim a beat that has not happened yet, creating evidence
//!   that stays fresh indefinitely. The model covers every *rule
//!   activation* such a claim enables (re-playing the fresh letter each
//!   beat keeps the same entry fresh), but not the states where that
//!   evidence outlives the sender's wheel entry without re-delivery.
//!
//! Together these keep all correct inboxes identical each beat — which is
//! what makes the shared evidence table exact and the state count
//! tractable.
//!
//! # What "progress" means here
//!
//! Unlike the lockstep layers, a synced bd-clock cluster does not tick
//! every beat: quorums ride the delay window and a transient fault can
//! leave a send latch that takes one beat to re-arm. The progress
//! property checked is therefore window-relative — a synced cluster stays
//! synced and its round never regresses or skips — while the convergence
//! rank bounds how long any state (stalls included) takes to reach the
//! persistent synced set.

use std::cell::RefCell;
#[expect(
    clippy::disallowed_types,
    reason = "the three memo caches below are lookup-only (insert + get, never iterated), \
              so hash ordering cannot reach a report, and the bd-clock state space is too \
              hot for ordered maps"
)]
use std::collections::HashMap;

use byzclock_core::{BdClock, BdClockMsg, BdSnapshot, FixedRand};
use byzclock_sim::{collect_sends, Application, Envelope, NodeCfg, NodeId, SimRng};
use rand::SeedableRng;

use crate::engine::{Choice, Model};

const N: usize = 4;
const F: usize = 1;
const CORRECT: usize = 3;
const K: usize = 4;
/// Base beat every transition is re-anchored to (large enough that stale
/// claims stay non-negative).
const B0: u64 = 8;

const BYZ_ABSENT: u8 = 0;
const BYZ_FRESH: u8 = 1;
const BYZ_STALE: u8 = 2;
/// Window 2 only: fresh for this beat's rules, stale afterwards.
const BYZ_EDGE: u8 = 3;

fn byz_class_label(c: u8) -> &'static str {
    match c {
        BYZ_ABSENT => "-",
        BYZ_FRESH => "f",
        BYZ_STALE => "s",
        _ => "e",
    }
}

/// One correct node's mutable protocol state (the [`BdSnapshot`] image,
/// ages re-anchored, wheel as per-tag sender bitmasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    /// Engine round index — the clock value.
    pub round: u8,
    /// Beats waited in the current round, clamped to the window (the only
    /// protocol read is `>= window`).
    pub bw: u8,
    /// Send latches: bit 0 `pending_send`, bit 1 `resend`.
    pub flags: u8,
    /// `wheel[tag]` = bitmask of senders buffered for that tag.
    pub wheel: [u8; K],
}

/// Shared freshness-evidence table: `[tag][sender]` age class (0 absent,
/// `1..window` beats old; anything older can never count as fresh again
/// and is dropped by the canonicalizer). Shared across nodes
/// because every correct node sees the identical inbox each beat (see the
/// module docs) and evidence is never cleared outside `corrupt`.
pub type Evidence = [[u8; N]; K];

/// Canonical joint state: three correct rows, their in-flight bundles,
/// and the shared evidence table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BdState {
    /// Per-node protocol rows (node order is canonicalized, not sorted —
    /// the in-flight slots are tied to sender identity).
    pub rows: [Row; CORRECT],
    /// Per-sender in-flight bundle (window 2): `base tag + 1`, or 0 for
    /// none.
    pub inflight: [u8; CORRECT],
    /// The shared evidence table.
    pub ev: Evidence,
}

const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

fn remap_mask(mask: u8, perm: &[usize; 3]) -> u8 {
    let mut out = mask & 0b1000; // the Byzantine bit stays put
    for (new, &old) in perm.iter().enumerate() {
        if mask & (1 << old) != 0 {
            out |= 1 << new;
        }
    }
    out
}

fn apply_perm(s: &BdState, perm: &[usize; 3]) -> BdState {
    let mut rows = [s.rows[0]; CORRECT];
    let mut inflight = [0u8; CORRECT];
    for (new, &old) in perm.iter().enumerate() {
        let mut r = s.rows[old];
        for slot in r.wheel.iter_mut() {
            *slot = remap_mask(*slot, perm);
        }
        rows[new] = r;
        inflight[new] = s.inflight[old];
    }
    let mut ev = [[0u8; N]; K];
    for (tag, slot) in s.ev.iter().enumerate() {
        for (new, &old) in perm.iter().enumerate() {
            ev[tag][new] = slot[old];
        }
        ev[tag][CORRECT] = slot[CORRECT];
    }
    BdState { rows, inflight, ev }
}

fn canon(s: &BdState) -> BdState {
    PERMS
        .iter()
        .map(|p| apply_perm(s, p))
        .min()
        .expect("six permutations")
}

/// One inbox entry: `(sender, tag, claimed send beat)` — the full wire
/// content of a `bd-clock` beat, since payloads are `()`.
type InboxEntry = (u8, u8, u64);

/// Exhaustive model of `bd-clock` at `n = 4, f = 1, k = 4`.
#[derive(Debug)]
pub struct BdModel {
    window: u64,
    bound: u32,
    /// Interns each distinct joint inbox so the hot step cache below keys
    /// on a small fixed-size id instead of re-hashing the entry list.
    #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
    inbox_ids: RefCell<HashMap<Vec<InboxEntry>, u32>>,
    /// `(pre-row, evidence, inbox id, coin)` → `(post-row, evidence')`.
    /// Valid across nodes and states: `deliver` ignores `e.to` and the
    /// spin-up is deterministic.
    #[allow(clippy::type_complexity)]
    #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
    step_cache: RefCell<HashMap<(Row, Evidence, u32, bool), (Row, Evidence)>>,
    /// Pre-row → the bundle base tag this node broadcasts this beat (if
    /// its send latches fire). Sends never read the evidence table.
    #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
    bundle_cache: RefCell<HashMap<Row, Option<u8>>>,
}

impl BdModel {
    /// Builds the model for a delivery window of 1 or 2 beats.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not 1 or 2 (the exhaustive menus are sized
    /// for the issue's `window <= 2` scope).
    pub fn new(window: u64) -> Self {
        assert!(
            (1..=2).contains(&window),
            "bd-clock model covers window 1 and 2"
        );
        BdModel {
            window,
            // Placeholder bounds; tightened to the measured worst case in
            // the CLI/tests via `with_bound`.
            bound: if window == 1 { 8 } else { 10 },
            #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
            inbox_ids: RefCell::new(HashMap::new()),
            #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
            step_cache: RefCell::new(HashMap::new()),
            #[expect(clippy::disallowed_types, reason = "lookup-only memo cache")]
            bundle_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Overrides the claimed convergence bound (beats).
    pub fn with_bound(mut self, bound: u32) -> Self {
        self.bound = bound;
        self
    }

    fn spin_up(&self, row: &Row, ev: &Evidence) -> (BdClock<FixedRand>, FixedRand) {
        let handle = FixedRand::new();
        let mut node = BdClock::new(
            NodeCfg::new(NodeId::new(0), N, F),
            K as u64,
            self.window,
            handle.clone(),
        );
        let mut wheel = Vec::new();
        for (tag, &mask) in row.wheel.iter().enumerate() {
            for s in 0..N {
                if mask & (1 << s) != 0 {
                    wheel.push((tag, NodeId::new(s as u16)));
                }
            }
        }
        let mut evidence = Vec::new();
        for (tag, slot) in ev.iter().enumerate() {
            for (s, &class) in slot.iter().enumerate() {
                if class != 0 {
                    evidence.push((tag, NodeId::new(s as u16), claimed_of(class)));
                }
            }
        }
        node.mc_restore(&BdSnapshot {
            round: usize::from(row.round),
            beats_waiting: u64::from(row.bw),
            pending_send: row.flags & 1 != 0,
            resend: row.flags & 2 != 0,
            wheel,
            evidence,
            beat: B0,
        });
        (node, handle)
    }

    /// The bundle base tag `row` broadcasts this beat, if its send
    /// latches fire (the full bundle is `base .. base + window - 1`).
    fn bundle_of(&self, row: &Row, ev: &Evidence) -> Option<u8> {
        if let Some(&b) = self.bundle_cache.borrow().get(row) {
            return b;
        }
        let (mut node, _) = self.spin_up(row, ev);
        let mut rng = SimRng::seed_from_u64(0);
        let sends = collect_sends(&mut node, 0, &mut rng);
        let base = sends.first().map(|(_, m)| m.round);
        self.bundle_cache.borrow_mut().insert(*row, base);
        base
    }

    /// One full beat of one node through the real core: send (latch
    /// effects), deliver `inbox` under coin `bit`, snapshot, re-anchor
    /// ages.
    fn step_node(
        &self,
        row: &Row,
        ev: &Evidence,
        inbox: &[InboxEntry],
        inbox_id: u32,
        bit: bool,
    ) -> (Row, Evidence) {
        let key = (*row, *ev, inbox_id, bit);
        if let Some(out) = self.step_cache.borrow().get(&key) {
            return *out;
        }
        let (mut node, handle) = self.spin_up(row, ev);
        handle.set(bit);
        let mut rng = SimRng::seed_from_u64(0);
        let _ = collect_sends(&mut node, 0, &mut rng);
        let envelopes: Vec<Envelope<BdClockMsg>> = inbox
            .iter()
            .map(|&(from, tag, claimed)| Envelope {
                from: NodeId::new(u16::from(from)),
                to: NodeId::new(0),
                round: claimed,
                msg: BdClockMsg {
                    round: tag,
                    msg: (),
                },
            })
            .collect();
        node.deliver(0, &envelopes, &mut rng);
        let snap = node.mc_snapshot();
        debug_assert_eq!(snap.beat, B0 + 1);
        let mut wheel = [0u8; K];
        for &(tag, from) in &snap.wheel {
            wheel[tag] |= 1 << from.index();
        }
        let mut ev_out = [[0u8; N]; K];
        for &(tag, from, claimed) in &snap.evidence {
            if let Some(class) = class_of(claimed, self.window) {
                ev_out[tag][from.index()] = class;
            }
        }
        let out = (
            Row {
                round: snap.round as u8,
                bw: snap.beats_waiting.min(self.window) as u8,
                flags: u8::from(snap.pending_send) | (u8::from(snap.resend) << 1),
                wheel,
            },
            ev_out,
        );
        self.step_cache.borrow_mut().insert(key, out);
        out
    }

    /// Interns a joint inbox, returning a dense id for the step cache.
    fn intern_inbox(&self, inbox: &[InboxEntry]) -> u32 {
        let mut ids = self.inbox_ids.borrow_mut();
        if let Some(&id) = ids.get(inbox) {
            return id;
        }
        let id = ids.len() as u32;
        ids.insert(inbox.to_vec(), id);
        id
    }

    fn byz_classes(&self) -> &'static [u8] {
        if self.window == 1 {
            // Edge collapses onto stale under window 1 (never fresh).
            &[BYZ_ABSENT, BYZ_FRESH, BYZ_STALE]
        } else {
            &[BYZ_ABSENT, BYZ_FRESH, BYZ_STALE, BYZ_EDGE]
        }
    }
}

/// Restored claimed beat for a stored age class (anchor [`B0`]).
fn claimed_of(class: u8) -> u64 {
    B0 - u64::from(class)
}

/// Stored age class for a snapshotted claimed beat, or `None` when the
/// entry can never count as fresh again (exact to drop: ages only grow
/// and `note_evidence` max-merges claims).
fn class_of(claimed: u64, window: u64) -> Option<u8> {
    debug_assert!(claimed <= B0, "no future claims in the modeled alphabet");
    let age = B0 + 1 - claimed;
    (age < window).then_some(age as u8)
}

/// Arrival claimed beat for a Byzantine letter class.
fn byz_claimed(class: u8) -> u64 {
    match class {
        BYZ_FRESH => B0,
        BYZ_EDGE => B0 - 1,
        _ => 0, // stale: far past, under every cutoff
    }
}

impl Model for BdModel {
    type State = BdState;

    fn name(&self) -> String {
        format!("bd-clock n={N} f={F} k={K} window={}", self.window)
    }

    fn initial_states(&self) -> Vec<BdState> {
        // The transient-fault image of `corrupt`: round/timer/latches
        // scrambled, buffers and evidence cleared, no bundles in flight
        // (see the module-docs caveat).
        let mut rows = Vec::new();
        for round in 0..K as u8 {
            for bw in 0..=self.window as u8 {
                for flags in 0..4u8 {
                    rows.push(Row {
                        round,
                        bw,
                        flags,
                        wheel: [0u8; K],
                    });
                }
            }
        }
        let mut out = Vec::new();
        for a in &rows {
            for b in &rows {
                for c in &rows {
                    out.push(canon(&BdState {
                        rows: [*a, *b, *c],
                        inflight: [0; CORRECT],
                        ev: [[0u8; N]; K],
                    }));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn choices(&self, state: &BdState) -> Vec<Choice<BdState>> {
        let bundles: Vec<Option<u8>> = state
            .rows
            .iter()
            .map(|r| self.bundle_of(r, &state.ev))
            .collect();
        // Delay schedules: one bit per sender that actually broadcasts
        // this beat (window 1 delivers same-beat only).
        let delayable: Vec<usize> = if self.window >= 2 {
            (0..CORRECT).filter(|&s| bundles[s].is_some()).collect()
        } else {
            Vec::new()
        };
        let classes = self.byz_classes();
        let radix = classes.len();
        let mut out = Vec::new();
        for sched in 0..(1u32 << delayable.len()) {
            let mut delayed = [false; CORRECT];
            for (bit, &s) in delayable.iter().enumerate() {
                delayed[s] = sched & (1 << bit) != 0;
            }
            // Correct traffic under this schedule: last beat's delayed
            // bundles arrive now (claimed B0-1), undelayed bundles arrive
            // same-beat (claimed B0).
            let mut correct_part: Vec<InboxEntry> = Vec::new();
            for (s, &infl) in state.inflight.iter().enumerate() {
                if infl != 0 {
                    let base = infl - 1;
                    for j in 0..self.window as u8 {
                        correct_part.push((s as u8, (base + j) % K as u8, B0 - 1));
                    }
                }
            }
            for (s, (bundle, &dly)) in bundles.iter().zip(delayed.iter()).enumerate() {
                if let Some(base) = bundle {
                    if !dly {
                        for j in 0..self.window as u8 {
                            correct_part.push((s as u8, (base + j) % K as u8, B0));
                        }
                    }
                }
            }
            let mut inflight_next = [0u8; CORRECT];
            for ((slot, &dly), bundle) in inflight_next
                .iter_mut()
                .zip(delayed.iter())
                .zip(bundles.iter())
            {
                if dly {
                    if let Some(base) = bundle {
                        *slot = base + 1;
                    }
                }
            }
            let mut letter = [0usize; K];
            loop {
                let mut inbox = correct_part.clone();
                for (tag, &l) in letter.iter().enumerate() {
                    let class = classes[l];
                    if class != BYZ_ABSENT {
                        inbox.push((CORRECT as u8, tag as u8, byz_claimed(class)));
                    }
                }
                // Per-node successors for each coin bit; the evidence
                // update is coin-independent and shared across nodes.
                let inbox_id = self.intern_inbox(&inbox);
                let mut per_bit = [[state.rows[0]; CORRECT]; 2];
                let mut ev_next: Option<Evidence> = None;
                for (b, rows_out) in per_bit.iter_mut().enumerate() {
                    for (i, row) in state.rows.iter().enumerate() {
                        let (r, e) = self.step_node(row, &state.ev, &inbox, inbox_id, b == 1);
                        rows_out[i] = r;
                        if let Some(prev) = &ev_next {
                            debug_assert_eq!(*prev, e, "evidence must be shared");
                        }
                        ev_next = Some(e);
                    }
                }
                let ev_next = ev_next.expect("three nodes stepped");
                // Only nodes whose step actually reads the coin split the
                // outcome; everything else is assembled once.
                let varying: Vec<usize> = (0..CORRECT)
                    .filter(|&i| per_bit[0][i] != per_bit[1][i])
                    .collect();
                let assemble = |vbits: u32| {
                    let mut rows = per_bit[0];
                    for (pos, &i) in varying.iter().enumerate() {
                        if vbits & (1 << pos) != 0 {
                            rows[i] = per_bit[1][i];
                        }
                    }
                    canon(&BdState {
                        rows,
                        inflight: inflight_next,
                        ev: ev_next,
                    })
                };
                let full = (1u32 << varying.len()) - 1;
                let common = if varying.is_empty() {
                    vec![assemble(0)]
                } else {
                    vec![assemble(0), assemble(full)]
                };
                let adversarial: Vec<BdState> = (1..full).map(assemble).collect();
                let label = format!(
                    "byz=[{}] dly=[{}]",
                    letter
                        .iter()
                        .map(|&l| byz_class_label(classes[l]))
                        .collect::<Vec<_>>()
                        .join(""),
                    delayed
                        .iter()
                        .map(|&d| if d { '1' } else { '0' })
                        .collect::<String>(),
                );
                out.push(Choice {
                    label,
                    common,
                    adversarial,
                });
                // Next letter assignment (mixed radix over the tag classes).
                let mut t = K;
                loop {
                    if t == 0 {
                        break;
                    }
                    t -= 1;
                    letter[t] += 1;
                    if letter[t] < radix {
                        break;
                    }
                    letter[t] = 0;
                }
                if letter.iter().all(|&l| l == 0) {
                    break;
                }
            }
        }
        out
    }

    fn is_synced(&self, state: &BdState) -> bool {
        state.rows.iter().all(|r| r.round == state.rows[0].round)
    }

    fn bound_beats(&self) -> u32 {
        self.bound
    }

    fn describe(&self, state: &BdState) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, r) in state.rows.iter().enumerate() {
            let _ = write!(
                s,
                "n{i}(r{} w{} f{:02b} [{},{},{},{}])",
                r.round, r.bw, r.flags, r.wheel[0], r.wheel[1], r.wheel[2], r.wheel[3]
            );
        }
        let _ = write!(
            s,
            " if[{},{},{}]",
            state.inflight[0], state.inflight[1], state.inflight[2]
        );
        let ev: String = state
            .ev
            .iter()
            .flat_map(|slot| slot.iter().map(|&c| char::from(b'0' + c)))
            .collect();
        let _ = write!(s, " ev[{ev}]");
        s
    }

    fn synced_progress(&self, from: &BdState, to: &BdState) -> bool {
        // Bd-clock progress is *window-relative*, not per-beat: a synced
        // beat may legally stall while a corrupted send latch re-arms
        // (`age()` only sets `resend`; the fresh send lands the next
        // beat) or while a quorum rides the delay window. The machine-
        // checked property is therefore: the cluster stays synced and
        // rounds never regress or skip — liveness to the synced set is
        // carried by the convergence rank.
        let same = from.rows[0].round;
        let next = (same + 1) % K as u8;
        to.rows.iter().all(|r| r.round == to.rows[0].round)
            && (to.rows[0].round == same || to.rows[0].round == next)
    }
}
