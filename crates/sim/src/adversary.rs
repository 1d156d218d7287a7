//! The Byzantine adversary interface.
//!
//! The paper assumes an *information-theoretic adversary with private
//! channels*: it sees every message that touches a faulty node (which
//! includes the content of all broadcasts) but not unicasts between correct
//! nodes, it may coordinate all faulty nodes, equivocate per recipient, stay
//! silent, and *rush* — choose its messages for a phase after observing the
//! correct nodes' messages of that same phase.

use crate::envelope::{correct_envelope, for_each_send};
use crate::{Envelope, NodeId, SimRng, Target};
use std::cell::OnceCell;

/// What the adversary is allowed to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Visibility {
    /// The paper's model: only envelopes addressed to a Byzantine node are
    /// visible. Broadcast payloads are therefore visible (a broadcast
    /// reaches the Byzantine nodes), but correct-to-correct unicasts — the
    /// coin's private shares — are not.
    #[default]
    PrivateChannels,
    /// Everything is visible — *stronger than the model*; used only by
    /// what-if ablations (e.g. showing which protocols break when channel
    /// privacy is lost).
    Omniscient,
}

/// Everything the adversary can see when choosing a phase's Byzantine
/// traffic.
///
/// The view borrows the correct nodes' send lists as the runner holds
/// them; the visible envelopes are expanded from those lists the first
/// time a strategy reads them, so a strategy that never looks (the silent
/// one) costs nothing per envelope.
pub struct AdversaryView<'a, M> {
    pub(crate) beat: u64,
    pub(crate) phase: usize,
    pub(crate) n: usize,
    pub(crate) f: usize,
    pub(crate) delay_window: u64,
    pub(crate) byz: &'a [NodeId],
    /// `byz_mask[i]` = node `i` is Byzantine (length `n`).
    pub(crate) byz_mask: &'a [bool],
    pub(crate) visibility: Visibility,
    /// This phase's `(target, message)` lists, indexed by sender (empty
    /// for a Byzantine one, which runs no application).
    pub(crate) sends: &'a [Vec<(Target, M)>],
    pub(crate) visible: OnceCell<Vec<Envelope<M>>>,
}

impl<'a, M> AdversaryView<'a, M> {
    /// Current beat number (for scheduling attacks; protocols themselves
    /// never see this).
    pub fn beat(&self) -> u64 {
        self.beat
    }

    /// Current exchange phase within the beat.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault budget.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Width of the delivery window of the run's
    /// [`crate::TimingModel`], in beats: 1 under lockstep (everything
    /// arrives the beat it was sent), `d` under bounded delay. Strategies
    /// that exploit the semi-synchronous model read this to know how far
    /// ahead [`ByzOutbox::send_after`] can place a message.
    pub fn delay_window(&self) -> u64 {
        self.delay_window
    }

    /// The Byzantine node ids under this adversary's control.
    pub fn byzantine(&self) -> &[NodeId] {
        self.byz
    }

    /// Iterates over all node ids.
    pub fn all_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n as u16).map(NodeId::new)
    }

    /// `true` if `id` is Byzantine.
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        is_byzantine(self.byz_mask, id)
    }
}

impl<'a, M: Clone> AdversaryView<'a, M> {
    /// All envelopes visible under the configured [`Visibility`], in
    /// deterministic (sender, emission) order. Rushing is implicit: these
    /// are the *current* phase's correct messages.
    pub fn visible(&self) -> &[Envelope<M>] {
        self.visible.get_or_init(|| {
            let omniscient = self.visibility == Visibility::Omniscient;
            let mut visible = Vec::new();
            for_each_send(self.sends, self.n, |from, to, msg| {
                if omniscient || self.is_byzantine(to) {
                    visible.push(correct_envelope(from, to, self.beat, msg));
                }
            });
            visible
        })
    }

    /// Convenience: the visible envelopes addressed to `to`.
    pub fn visible_to(&self, to: NodeId) -> impl Iterator<Item = &Envelope<M>> {
        self.visible().iter().filter(move |e| e.to == to)
    }

    /// Convenience: one visible copy of each broadcast-style message a
    /// correct sender directed at Byzantine node `observer` — the usual way
    /// adversaries read the correct nodes' public values.
    pub fn observed_by(&self, observer: NodeId) -> impl Iterator<Item = &Envelope<M>> {
        self.visible_to(observer)
    }
}

/// Membership test against a per-simulation Byzantine mask; ids outside
/// the cluster are nobody's.
fn is_byzantine(byz_mask: &[bool], id: NodeId) -> bool {
    byz_mask.get(id.index()).copied().unwrap_or(false)
}

/// Collects the Byzantine nodes' envelopes for a phase.
///
/// The network is authenticated: attempts to send from a non-Byzantine
/// identity are dropped (and counted), reproducing Def. 2.2(2).
///
/// Timing: under the bounded-delay model the adversary is not subject to
/// the random delivery draw — it places each of its messages anywhere in
/// the window. [`ByzOutbox::send`]/[`ByzOutbox::broadcast`] rush (arrive
/// the same beat, the worst case the model allows);
/// [`ByzOutbox::send_after`] schedules an arrival a chosen number of
/// beats ahead (clamped to the window — a no-op offset under lockstep).
///
/// Like [`crate::Outbox`], the `(delay, envelope)` buffer is owned by the
/// runner and recycled across phases.
pub struct ByzOutbox<'a, M> {
    byz_mask: &'a [bool],
    beat: u64,
    sends: &'a mut Vec<(u64, Envelope<M>)>,
    forged_dropped: u64,
    rng: &'a mut SimRng,
}

impl<'a, M: Clone> ByzOutbox<'a, M> {
    pub(crate) fn new(
        byz_mask: &'a [bool],
        beat: u64,
        sends: &'a mut Vec<(u64, Envelope<M>)>,
        rng: &'a mut SimRng,
    ) -> Self {
        sends.clear();
        ByzOutbox {
            byz_mask,
            beat,
            sends,
            forged_dropped: 0,
            rng,
        }
    }

    /// Send `msg` from Byzantine node `from` to `to`, rushed (delivered as
    /// early as the timing model allows) and truthfully round-tagged with
    /// the current beat. Silently dropped (and counted) if `from` is not
    /// under adversary control.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.send_after(from, to, msg, 0);
    }

    /// Send `msg` from Byzantine node `from` to `to`, arriving
    /// `delay_beats` beats from now (same exchange phase). The simulator
    /// clamps the delay into the timing model's window, so under lockstep
    /// this degenerates to [`ByzOutbox::send`]. Forged senders are dropped
    /// and counted exactly like rushed sends. The round tag still claims
    /// the current beat (the message *was* sent now — it just arrives
    /// late); use [`ByzOutbox::send_tagged`] to lie about the tag itself.
    pub fn send_after(&mut self, from: NodeId, to: NodeId, msg: M, delay_beats: u64) {
        let round = self.beat;
        self.send_raw(from, to, msg, round, delay_beats);
    }

    /// Send `msg` rushed, with an arbitrary claimed round tag — the
    /// envelope-level lie the model explicitly permits: the network
    /// authenticates *who* sent a message, never *when* the sender claims
    /// to have sent it.
    pub fn send_tagged(&mut self, from: NodeId, to: NodeId, msg: M, claimed_round: u64) {
        self.send_raw(from, to, msg, claimed_round, 0);
    }

    /// The fully general Byzantine send: arbitrary claimed round tag *and*
    /// an arrival `delay_beats` beats ahead (clamped into the timing
    /// model's window).
    pub fn send_tagged_after(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: M,
        claimed_round: u64,
        delay_beats: u64,
    ) {
        self.send_raw(from, to, msg, claimed_round, delay_beats);
    }

    fn send_raw(&mut self, from: NodeId, to: NodeId, msg: M, round: u64, delay_beats: u64) {
        if is_byzantine(self.byz_mask, from) {
            self.sends.push((
                delay_beats,
                Envelope {
                    from,
                    to,
                    round,
                    msg,
                },
            ));
        } else {
            self.forged_dropped += 1;
        }
    }

    /// Send `msg` from `from` to every node (including other Byzantine
    /// nodes, matching the accounting of a correct broadcast).
    pub fn broadcast(&mut self, from: NodeId, msg: M) {
        for to in (0..self.byz_mask.len() as u16).map(NodeId::new) {
            self.send(from, to, msg.clone());
        }
    }

    /// Deterministic adversary RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends attempted from identities the adversary does not control.
    pub(crate) fn forged_dropped(&self) -> u64 {
        self.forged_dropped
    }
}

/// A strategy controlling all Byzantine nodes.
///
/// Called once per exchange phase, after the correct nodes' sends of that
/// phase (rushing). Implementations may keep state across beats — the
/// adversary is not subject to transient faults.
///
/// The trait is object-safe: scenario-style callers that pick a strategy at
/// runtime can hand the simulator a `Box<dyn Adversary<M>>` and it behaves
/// like the concrete strategy it wraps.
pub trait Adversary<M: Clone> {
    /// Choose the Byzantine envelopes for this phase.
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>);
}

impl<M: Clone, A: Adversary<M> + ?Sized> Adversary<M> for Box<A> {
    fn act(&mut self, view: &AdversaryView<'_, M>, out: &mut ByzOutbox<'_, M>) {
        (**self).act(view, out)
    }
}

/// The crash-like adversary: Byzantine nodes never send anything.
///
/// Useful as a baseline; note that for threshold protocols silence is far
/// from harmless (it shrinks every observed vote vector to `n - f`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SilentAdversary;

impl<M: Clone> Adversary<M> for SilentAdversary {
    fn act(&mut self, _view: &AdversaryView<'_, M>, _out: &mut ByzOutbox<'_, M>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::cell::Cell;
    use std::rc::Rc;

    /// `mask(n, byz)[i]` = `i` is one of `byz`.
    fn mask(n: usize, byz: &[NodeId]) -> Vec<bool> {
        (0..n as u16)
            .map(|i| byz.contains(&NodeId::new(i)))
            .collect()
    }

    #[test]
    fn forged_sender_is_dropped() {
        let mask = mask(4, &[NodeId::new(3)]);
        let mut rng = SimRng::seed_from_u64(0);
        let mut sends = Vec::new();
        let mut out = ByzOutbox::new(&mask, 0, &mut sends, &mut rng);
        out.send(NodeId::new(3), NodeId::new(0), 1u64); // legit
        out.send(NodeId::new(1), NodeId::new(0), 2u64); // forged
        out.send_after(NodeId::new(1), NodeId::new(0), 3u64, 2); // forged, delayed
        out.send_tagged(NodeId::new(1), NodeId::new(0), 4u64, 9); // forged, lying
        out.send(NodeId::new(9), NodeId::new(0), 5u64); // forged, from outside the cluster
        assert_eq!(out.forged_dropped(), 4);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].1.from, NodeId::new(3));
        assert_eq!(sends[0].0, 0, "plain send rushes");
    }

    #[test]
    fn send_after_records_the_requested_delay() {
        let mask = mask(4, &[NodeId::new(2)]);
        let mut rng = SimRng::seed_from_u64(0);
        let mut sends = vec![(9, Envelope::new(NodeId::new(2), NodeId::new(1), 0u64))];
        let mut out = ByzOutbox::new(&mask, 5, &mut sends, &mut rng);
        out.send_after(NodeId::new(2), NodeId::new(0), 7u64, 3);
        assert_eq!(
            sends,
            vec![(
                3,
                Envelope {
                    from: NodeId::new(2),
                    to: NodeId::new(0),
                    round: 5,
                    msg: 7u64,
                }
            )],
            "stale sends cleared on reuse"
        );
    }

    #[test]
    fn tagged_sends_carry_the_claimed_round() {
        let mask = mask(4, &[NodeId::new(2)]);
        let mut rng = SimRng::seed_from_u64(0);
        let mut sends = Vec::new();
        let mut out = ByzOutbox::new(&mask, 10, &mut sends, &mut rng);
        out.send_tagged(NodeId::new(2), NodeId::new(0), 7u64, 3);
        out.send_tagged_after(NodeId::new(2), NodeId::new(1), 8u64, 99, 2);
        assert_eq!(sends[0].1.round, 3, "claimed tag, not the true beat");
        assert_eq!(sends[0].0, 0, "send_tagged rushes");
        assert_eq!(sends[1].1.round, 99);
        assert_eq!(sends[1].0, 2);
    }

    #[test]
    fn byz_broadcast_reaches_all() {
        let mask = mask(5, &[NodeId::new(0)]);
        let mut rng = SimRng::seed_from_u64(0);
        let mut sends = Vec::new();
        let mut out = ByzOutbox::new(&mask, 2, &mut sends, &mut rng);
        out.broadcast(NodeId::new(0), 9u64);
        assert_eq!(out.forged_dropped(), 0);
        assert_eq!(sends.len(), 5);
        assert!(sends.iter().all(|(_, e)| e.round == 2));
    }

    fn view<'a, M>(
        byz: &'a [NodeId],
        byz_mask: &'a [bool],
        visibility: Visibility,
        sends: &'a [Vec<(Target, M)>],
    ) -> AdversaryView<'a, M> {
        AdversaryView {
            beat: 6,
            phase: 0,
            n: byz_mask.len(),
            f: byz.len(),
            delay_window: 1,
            byz,
            byz_mask,
            visibility,
            sends,
            visible: OnceCell::new(),
        }
    }

    #[test]
    fn private_channels_hide_correct_unicasts() {
        let byz = [NodeId::new(2)];
        let mask = mask(3, &byz);
        let sends = vec![
            vec![
                (Target::One(NodeId::new(1)), 1u64), // hidden
                (Target::One(NodeId::new(2)), 2u64), // visible
            ],
            vec![],
            vec![],
        ];
        let private = view(&byz, &mask, Visibility::PrivateChannels, &sends);
        assert_eq!(private.visible().len(), 1);
        assert_eq!(private.visible()[0].msg, 2);
        assert_eq!(private.visible()[0].round, 6, "stamped with the send beat");
        assert_eq!(private.observed_by(NodeId::new(2)).count(), 1);
        assert_eq!(private.visible_to(NodeId::new(1)).count(), 0);
        let omniscient = view(&byz, &mask, Visibility::Omniscient, &sends);
        assert_eq!(omniscient.visible().len(), 2);
    }

    /// A payload that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted {
        tag: u64,
        clones: Rc<Cell<usize>>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.set(self.clones.get() + 1);
            Counted {
                tag: self.tag,
                clones: Rc::clone(&self.clones),
            }
        }
    }

    proptest! {
        /// The lazily expanded view equals the eager filter of the flat
        /// stamped envelope list, under both visibilities, and clones a
        /// payload only for an envelope somebody reads.
        #[test]
        fn lazy_view_equals_the_eager_filter(
            n in 2usize..8,
            byz_bits in proptest::collection::vec(any::<bool>(), 8),
            // (kind, to, tag): kind 0 broadcasts, `to` may lie outside the cluster.
            lists in proptest::collection::vec(
                proptest::collection::vec((0u8..3, 0u16..12, any::<u64>()), 0..4),
                8,
            ),
        ) {
            let byz: Vec<NodeId> = (0..n).filter(|&i| byz_bits[i]).map(|i| NodeId::new(i as u16)).collect();
            let mask = mask(n, &byz);
            let clones = Rc::new(Cell::new(0));
            let sends: Vec<Vec<(Target, Counted)>> = (0..n)
                .map(|from| {
                    let list = if mask[from] { &[][..] } else { &lists[from][..] };
                    list.iter()
                        .map(|&(kind, to, tag)| {
                            let target = if kind == 0 { Target::All } else { Target::One(NodeId::new(to)) };
                            (target, Counted { tag, clones: Rc::clone(&clones) })
                        })
                        .collect()
                })
                .collect();
            // The flat stamped list: (from, to, round, tag) per envelope.
            let mut flat = Vec::new();
            for (from, list) in sends.iter().enumerate() {
                for (target, msg) in list {
                    match *target {
                        Target::One(to) => flat.push((from as u16, to.raw(), 6, msg.tag)),
                        Target::All => flat.extend((0..n as u16).map(|to| (from as u16, to, 6, msg.tag))),
                    }
                }
            }
            for visibility in [Visibility::PrivateChannels, Visibility::Omniscient] {
                let expected: Vec<_> = flat
                    .iter()
                    .filter(|&&(_, to, _, _)| {
                        visibility == Visibility::Omniscient || byz.contains(&NodeId::new(to))
                    })
                    .copied()
                    .collect();
                clones.set(0);
                let view = view(&byz, &mask, visibility, &sends);
                prop_assert!(view.byzantine() == &byz[..] && view.n() == n);
                prop_assert_eq!(clones.get(), 0, "an unread view clones nothing");
                let flatten = |e: &Envelope<Counted>| (e.from.raw(), e.to.raw(), e.round, e.msg.tag);
                let got: Vec<_> = view.visible().iter().map(flatten).collect();
                prop_assert_eq!(&got, &expected);
                for to in view.all_ids() {
                    let got: Vec<_> = view.visible_to(to).map(flatten).collect();
                    let expected: Vec<_> = expected.iter().filter(|e| e.1 == to.raw()).copied().collect();
                    prop_assert_eq!(got, expected);
                }
                prop_assert_eq!(clones.get(), expected.len(), "expanded once, only what is visible");
            }
        }
    }
}
