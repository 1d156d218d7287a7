//! The beat-by-beat simulation loop.
//!
//! # Build at delivery
//!
//! The paper's network (Def. 2.2) is memoryless: a message sent in phase
//! `p` is simply *there* when phase `p` is delivered, and a broadcast is
//! just `n` unicasts (§2 footnote). Under [`TimingModel::Lockstep`] the
//! runner holds no correct traffic in between either. Correct nodes fill
//! their recycled send lists; once the phase's traffic is accounted and
//! the adversary has acted, the runner walks the correct recipients in id
//! order and builds each one's inbox, in one recycled buffer, from:
//!
//! 1. the recipient's slot of the [`DeliveryScheduler`]'s ring — under
//!    lockstep, this phase's Byzantine sends to it;
//! 2. its share of the send lists, in (sender, emission) order, read
//!    through a [`SendIndex`] built in one pass over the lists (every
//!    broadcast, plus the unicasts per recipient), so building every inbox
//!    costs the envelopes delivered plus one step per sender;
//! 3. the phase's phantom replays addressed to it.
//!
//! It then stable-sorts the buffer by sender (only if it is not sorted
//! already), delivers it, and reuses the buffer for the next recipient. A
//! Byzantine recipient gets no inbox at all.
//!
//! Nothing else is gathered into an intermediate list on the way:
//!
//! - the adversary's [`AdversaryView`] borrows the send lists and expands
//!   the envelopes it may see only if the strategy reads them;
//! - traffic accounting reads the send lists (a broadcast is `n` envelopes
//!   of one measured length);
//! - the phantom-replay history ring is fed only when the fault plan
//!   contains a [`FaultKind::PhantomBurst`] that could ever read it.
//!
//! # Delivery order
//!
//! Within a phase the routing order is fixed — correct envelopes in
//! (sender, emission, recipient) order, then Byzantine sends, then phantom
//! replays — so a run is a pure function of its configuration. Every
//! inbox is its share of that order, stable-sorted by sender: the sort is
//! what makes [`Application::deliver`]'s "sorted by sender id" promise
//! true, and stability keeps each sender's envelopes in routing order.
//!
//! The lockstep build puts the Byzantine block first (`byzantine ++ fresh
//! ++ phantoms`, not `fresh ++ byzantine ++ phantoms`), and after the
//! stable sort the two are the same inbox, envelope for envelope. A stable
//! sort by sender only keeps the relative order of envelopes that share a
//! sender, so the two agree as long as each sender's envelopes come in the
//! same relative order in both — and they do:
//!
//! - [`ByzOutbox`] drops forgeries, so a Byzantine envelope never carries
//!   a correct sender's id: moving the Byzantine block ahead of the fresh
//!   one never reorders two envelopes of one sender;
//! - phantoms come last in both, so a sender's fresh traffic still
//!   precedes every phantom replay carrying its id (pinned by
//!   `fresh_traffic_precedes_phantoms_of_the_same_sender`).
//!
//! # The serial beat
//!
//! Every correct node sends and delivers once per phase, in node-id
//! order, on the calling thread — the paper's global beat system (§2)
//! written out as one loop. Each node owns its RNG stream (`node_rngs`)
//! and its send list (`send_bufs`), so what a node does depends only on
//! its own state and its inbox.
//!
//! # The timing model
//!
//! The run's [`TimingModel`] decides the arrival beat:
//!
//! - [`TimingModel::Lockstep`] (default): a message sent in phase `p` of
//!   beat `r` is delivered in phase `p` of beat `r` — the paper's global
//!   beat system (the delay RNG stream is never touched).
//! - [`TimingModel::BoundedDelay`]`{ window }`: a correct message sent at
//!   beat `r` arrives at a seeded-uniform beat in `r ..= r + window - 1`
//!   (same phase), drawn once per envelope in routing order. The adversary
//!   is not bound to the draw: its sends rush by default and may be placed
//!   anywhere in the window via [`crate::ByzOutbox::send_after`]. The
//!   observed delays are recorded in [`Simulation::delay_histogram`].
//!
//! What a delayed envelope delivers cannot be read off the send lists of
//! its arrival phase, so under bounded delay — window 1 included, whose
//! histogram counts every correct envelope — every envelope is routed into
//! the scheduler's ring in routing order (the order the delay draws
//! follow), and the inboxes of the due slot are sorted and delivered.
//!
//! Blackout faults interact with delay at the *arrival* end: a message
//! due during a blacked-out beat is lost, one due after the blackout
//! clears is delivered normally.
//!
//! Future async/sharded backends plug in at the same seam: anything that
//! can order envelopes into `(beat, phase)` delivery slots can replace the
//! scheduler without touching the protocol or adversary layers.

use crate::adversary::{Adversary, AdversaryView, ByzOutbox, Visibility};
use crate::app::{Application, Outbox};
use crate::envelope::{correct_envelope, for_each_send, SendIndex};
use crate::faults::{FaultKind, FaultPlan};
use crate::stats::TrafficStats;
use crate::timing::DeliveryScheduler;
use crate::{Envelope, NodeId, SimRng, Target, TimingModel, WireConfig, WireFormat};
use bytes::BytesMut;
use rand::Rng;
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Applies `f` to every correct node's `(app, rng, buf)` triple, in
/// node-id order.
fn for_each_correct<A, T, F>(apps: &mut [Option<A>], rngs: &mut [SimRng], bufs: &mut [T], mut f: F)
where
    F: FnMut(&mut A, &mut SimRng, &mut T),
{
    for ((app, rng), buf) in apps.iter_mut().zip(rngs).zip(bufs) {
        if let Some(app) = app {
            f(app, rng, buf);
        }
    }
}

/// A running cluster: `n` nodes, one adversary, a fault plan, and a beat
/// counter. Construct with [`crate::SimBuilder`].
///
/// Each [`Simulation::step`] advances one beat:
///
/// 1. for every exchange phase: correct nodes send, the adversary acts
///    (rushing), and the envelopes *due this beat* are delivered (unless
///    blacked out) — built from the send lists under lockstep, taken from
///    the delivery scheduler's ring under bounded delay;
/// 2. scheduled fault events fire at the end of the beat.
pub struct Simulation<A: Application, Adv> {
    n: usize,
    f: usize,
    byz: Vec<NodeId>,
    /// `byz_mask[i]` = node `i` is Byzantine: the constant-time form of
    /// `byz` every per-envelope membership test reads.
    byz_mask: Vec<bool>,
    visibility: Visibility,
    apps: Vec<Option<A>>,
    node_rngs: Vec<SimRng>,
    adversary: Adv,
    adv_rng: SimRng,
    fault_rng: SimRng,
    /// Dedicated stream for the arbitrary round tags phantom replays
    /// carry; separate from `fault_rng` so adding envelope tags perturbed
    /// no pre-existing random stream (lockstep goldens replay bit-for-bit).
    phantom_tag_rng: SimRng,
    fault_plan: FaultPlan,
    scheduler: DeliveryScheduler<A::Msg>,
    beat: u64,
    stats: TrafficStats,
    /// The last [`HISTORY_CAP`] envelopes routed, for phantom replay.
    /// Recorded only when `record_history` says a fault can read it.
    history: VecDeque<Envelope<A::Msg>>,
    /// Whether the (immutable) fault plan contains a phantom burst.
    record_history: bool,
    pending_phantoms: Vec<Envelope<A::Msg>>,
    blackout_until: u64,
    wire: WireConfig,
    /// Recycled per-node outbox buffers: cleared and refilled each send
    /// phase, so steady-state sends allocate nothing. A Byzantine node
    /// runs no application, so its buffer stays empty.
    send_bufs: Vec<Vec<(Target, A::Msg)>>,
    /// Recycled `(delay, envelope)` buffer the adversary's outbox fills.
    byz_buf: Vec<(u64, Envelope<A::Msg>)>,
    /// Where each recipient's traffic sits in `send_bufs`, rebuilt every
    /// lockstep phase into recycled buffers.
    send_index: SendIndex,
    /// The one recycled buffer every lockstep inbox is built in.
    inbox: Vec<Envelope<A::Msg>>,
    /// Recycled encode buffer for the byte-boundary seam.
    wire_scratch: BytesMut,
}

/// Capacity of the stale-traffic ring phantom bursts replay from.
const HISTORY_CAP: usize = 4096;

/// The byte-boundary seam: the payload is serialized in the run's wire
/// format and re-parsed on its way to an inbox — what a
/// cross-process backend would do with a real socket between the two
/// halves. `None` when the bytes fail to parse; a correct node's messages
/// always round-trip, so only hostile or stale garbage can fail here.
fn reserialize<M: crate::Wire>(format: WireFormat, scratch: &mut BytesMut, msg: &M) -> Option<M> {
    scratch.clear();
    format.encode_into(msg, scratch);
    format.decode_from(scratch.as_slice())
}

impl<A, Adv> Simulation<A, Adv>
where
    A: Application,
    Adv: Adversary<A::Msg>,
{
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: usize,
        f: usize,
        byz: Vec<NodeId>,
        visibility: Visibility,
        apps: Vec<Option<A>>,
        node_rngs: Vec<SimRng>,
        adversary: Adv,
        adv_rng: SimRng,
        fault_rng: SimRng,
        phantom_tag_rng: SimRng,
        fault_plan: FaultPlan,
        timing: TimingModel,
        delay_rng: SimRng,
        wire: WireConfig,
    ) -> Self {
        let send_bufs = (0..n).map(|_| Vec::new()).collect();
        let mut byz_mask = vec![false; n];
        for id in &byz {
            byz_mask[id.index()] = true;
        }
        let record_history = fault_plan
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::PhantomBurst { .. }));
        Simulation {
            n,
            f,
            byz,
            byz_mask,
            visibility,
            apps,
            node_rngs,
            adversary,
            adv_rng,
            fault_rng,
            phantom_tag_rng,
            fault_plan,
            scheduler: DeliveryScheduler::new(timing, delay_rng, n),
            beat: 0,
            stats: TrafficStats::default(),
            history: VecDeque::new(),
            record_history,
            pending_phantoms: Vec::new(),
            blackout_until: 0,
            wire,
            send_bufs,
            byz_buf: Vec::new(),
            send_index: SendIndex::new(n),
            inbox: Vec::new(),
            wire_scratch: BytesMut::new(),
        }
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Protocol fault budget.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The actually-Byzantine node ids.
    pub fn byzantine(&self) -> &[NodeId] {
        &self.byz
    }

    /// Beats executed so far.
    pub fn beat(&self) -> u64 {
        self.beat
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The run's delivery-timing model.
    pub fn timing(&self) -> TimingModel {
        self.scheduler.model()
    }

    /// The run's wire-codec configuration.
    pub fn wire(&self) -> WireConfig {
        self.wire
    }

    /// Observed-delay histogram: `histogram[d]` counts messages scheduled
    /// to arrive `d` beats after they were sent. Empty under
    /// [`TimingModel::Lockstep`] (there is nothing to observe — every
    /// delay is 0 by definition).
    pub fn delay_histogram(&self) -> &[u64] {
        self.scheduler.histogram()
    }

    /// The application of node `id`, if it is correct.
    pub fn app(&self, id: NodeId) -> Option<&A> {
        self.apps.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over `(id, app)` for every correct node.
    pub fn correct_apps(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.apps
            .iter()
            .enumerate()
            .filter_map(|(i, app)| app.as_ref().map(|a| (NodeId::new(i as u16), a)))
    }

    /// Runs one beat.
    pub fn step(&mut self) {
        let phases = self
            .apps
            .iter()
            .flatten()
            .next()
            .map_or(1, Application::phases);
        for app in self.apps.iter_mut().flatten() {
            app.begin_beat(self.beat);
        }
        self.stats.begin_beat();
        self.scheduler.begin_beat(self.beat);

        for phase in 0..phases {
            // --- send phase: correct nodes, in node-id order ---
            for_each_correct(
                &mut self.apps,
                &mut self.node_rngs,
                &mut self.send_bufs,
                |app, rng, buf| {
                    let mut out = Outbox::new(buf, rng);
                    app.send(phase, &mut out);
                },
            );
            {
                let format = self.wire.format;
                let cur = self.stats.current();
                for (target, msg) in self.send_bufs.iter().flatten() {
                    let fanout = match target {
                        Target::All => self.n as u64,
                        Target::One(_) => 1,
                    };
                    cur.correct_msgs += fanout;
                    cur.correct_bytes += fanout * format.len_of(msg) as u64;
                }
            }

            // --- adversary phase (rushing: sees this phase's traffic) ---
            let view = AdversaryView {
                beat: self.beat,
                phase,
                n: self.n,
                f: self.f,
                delay_window: self.scheduler.model().window(),
                byz: &self.byz,
                byz_mask: &self.byz_mask,
                visibility: self.visibility,
                sends: &self.send_bufs,
                visible: OnceCell::new(),
            };
            let mut byz_out = ByzOutbox::new(
                &self.byz_mask,
                self.beat,
                &mut self.byz_buf,
                &mut self.adv_rng,
            );
            self.adversary.act(&view, &mut byz_out);
            {
                let format = self.wire.format;
                let cur = self.stats.current();
                cur.forged_dropped += byz_out.forged_dropped();
                cur.byz_msgs += self.byz_buf.len() as u64;
                cur.byz_bytes += self
                    .byz_buf
                    .iter()
                    .map(|(_, e)| format.len_of(&e.msg) as u64)
                    .sum::<u64>();
            }

            // --- route what the send lists cannot stand for ---
            if self.record_history {
                self.record_phase();
            }
            if self.wire.byte_boundary {
                self.route::<true>(phase);
            } else {
                self.route::<false>(phase);
            }

            // --- deliver what is due this (beat, phase) slot ---
            if self.beat < self.blackout_until {
                // Envelopes due during a blackout are lost — Def. 2.2 only
                // holds once the network is non-faulty again. The due slot
                // is emptied so the ring can reuse it and shared payloads
                // are released.
                let due = self.scheduler.due_inboxes(phase);
                due.iter_mut().for_each(Vec::clear);
                self.pending_phantoms.clear();
            } else if !self.scheduler.model().is_lockstep() {
                self.deliver_due(phase);
            } else if self.wire.byte_boundary {
                self.deliver_built::<true>(phase);
            } else {
                self.deliver_built::<false>(phase);
            }
        }

        // --- end-of-beat fault events ---
        let events: Vec<FaultKind> = self
            .fault_plan
            .events_at(self.beat)
            .map(|e| e.kind.clone())
            .collect();
        for kind in events {
            self.apply_fault(kind);
        }

        self.beat += 1;
    }

    /// Feeds the phantom-replay ring with everything the current phase is
    /// about to route, in routing order: correct, Byzantine, phantom.
    fn record_phase(&mut self) {
        let mut record = |e: Envelope<A::Msg>| {
            if self.history.len() == HISTORY_CAP {
                self.history.pop_front();
            }
            self.history.push_back(e);
        };
        for_each_send(&self.send_bufs, self.n, |from, to, msg| {
            record(correct_envelope(from, to, self.beat, msg));
        });
        self.byz_buf.iter().for_each(|(_, e)| record(e.clone()));
        self.pending_phantoms.iter().for_each(|e| record(e.clone()));
    }

    /// Routes into the scheduler's ring what `phase`'s inboxes cannot be
    /// built from at delivery: the Byzantine sends and, under bounded
    /// delay, every correct send and phantom replay too — correct sends in
    /// (sender, emission, recipient) order, then Byzantine sends, then
    /// phantoms, the order the delay draws follow. `BYTE_BOUNDARY` is the
    /// run's [`WireConfig`] flag as a constant, which keeps the serializer
    /// out of the in-memory loop.
    fn route<const BYTE_BOUNDARY: bool>(&mut self, phase: usize) {
        let format = self.wire.format;
        let lockstep = self.scheduler.model().is_lockstep();
        let mut route = |e: Envelope<A::Msg>, placed: Option<u64>| {
            let e = if BYTE_BOUNDARY {
                match reserialize(format, &mut self.wire_scratch, &e.msg) {
                    Some(msg) => e.map(msg),
                    None => return,
                }
            } else {
                e
            };
            match placed {
                None => self.scheduler.schedule(phase, e),
                Some(delay) => self.scheduler.schedule_at(phase, delay, e),
            }
        };
        if !lockstep {
            for_each_send(&self.send_bufs, self.n, |from, to, msg| {
                route(correct_envelope(from, to, self.beat, msg), None);
            });
        }
        for (delay, e) in self.byz_buf.drain(..) {
            route(e, Some(delay));
        }
        // Phantoms model stale traffic resurfacing *now*; a burst fires at
        // the end of a beat, so it is the next beat's phase 0 that finds any.
        self.stats.current().phantom_msgs += self.pending_phantoms.len() as u64;
        if !lockstep {
            for e in self.pending_phantoms.drain(..) {
                route(e, Some(0));
            }
        }
    }

    /// Bounded-delay delivery: sorts and delivers the inboxes of the due
    /// slot, then empties the slot (a Byzantine recipient's inbox
    /// included) so the ring can reuse it and shared payloads are released.
    fn deliver_due(&mut self, phase: usize) {
        let due = self.scheduler.due_inboxes(phase);
        for_each_correct(
            &mut self.apps,
            &mut self.node_rngs,
            due,
            |app, rng, inbox| {
                // Stable sort: routing appends Byzantine and phantom
                // envelopes after the correct ones, and `deliver` promises
                // an inbox sorted by sender id.
                inbox.sort_by_key(|e| e.from);
                app.deliver(phase, inbox, rng);
            },
        );
        due.iter_mut().for_each(Vec::clear);
    }

    /// Lockstep delivery: builds each correct recipient's inbox in the one
    /// recycled buffer — its ring slot, its share of the send lists, the
    /// phantoms addressed to it — sorts it by sender unless it already is,
    /// and delivers it (see the module doc for why this order is the
    /// routing order). Every copy crosses the byte boundary on its way in
    /// when `BYTE_BOUNDARY` is set, and is dropped if it fails to parse.
    fn deliver_built<const BYTE_BOUNDARY: bool>(&mut self, phase: usize) {
        let Simulation {
            apps,
            node_rngs,
            byz_mask,
            scheduler,
            beat,
            pending_phantoms,
            wire,
            send_bufs,
            send_index,
            inbox,
            wire_scratch,
            ..
        } = self;
        let (beat, format) = (*beat, wire.format);
        send_index.build(send_bufs, byz_mask);
        // Stable: the phantoms addressed to one recipient keep their order.
        pending_phantoms.sort_by_key(|e| e.to);
        let mut phantoms = pending_phantoms.drain(..).peekable();
        let due = scheduler.due_inboxes(phase);
        for (i, ((app, rng), ring)) in apps.iter_mut().zip(node_rngs).zip(due).enumerate() {
            let Some(app) = app else {
                ring.clear();
                continue;
            };
            let to = NodeId::new(i as u16);
            inbox.append(ring);
            send_index.for_each_to(send_bufs, to, |from, msg| {
                if !BYTE_BOUNDARY {
                    inbox.push(correct_envelope(from, to, beat, msg));
                } else if let Some(msg) = reserialize(format, wire_scratch, msg) {
                    inbox.push(Envelope {
                        from,
                        to,
                        round: beat,
                        msg,
                    });
                }
            });
            // Phantoms to the Byzantine recipients before `to` are lost.
            while phantoms.next_if(|e| e.to < to).is_some() {}
            while let Some(e) = phantoms.next_if(|e| e.to == to) {
                if !BYTE_BOUNDARY {
                    inbox.push(e);
                } else if let Some(msg) = reserialize(format, wire_scratch, &e.msg) {
                    inbox.push(e.map(msg));
                }
            }
            if !inbox.is_sorted_by_key(|e| e.from) {
                inbox.sort_by_key(|e| e.from);
            }
            app.deliver(phase, inbox, rng);
            inbox.clear();
        }
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::CorruptNodes(ids) => {
                for id in ids {
                    if let Some(app) = self.apps.get_mut(id.index()).and_then(Option::as_mut) {
                        app.corrupt(&mut self.fault_rng);
                    }
                }
            }
            FaultKind::CorruptAllCorrect => {
                for app in self.apps.iter_mut().flatten() {
                    app.corrupt(&mut self.fault_rng);
                }
            }
            FaultKind::PhantomBurst { count } => {
                if self.history.is_empty() {
                    return;
                }
                for _ in 0..count {
                    let idx = self.fault_rng.random_range(0..self.history.len());
                    let mut e = self.history[idx].clone();
                    // Stale traffic resurfaces at an arbitrary recipient
                    // with an arbitrary claimed round tag — a resurfaced
                    // message is exactly the "lying timestamp" case
                    // round-tagged protocols must shrug off.
                    e.to = NodeId::new(self.fault_rng.random_range(0..self.n as u16));
                    e.round = self.phantom_tag_rng.random();
                    self.pending_phantoms.push(e);
                }
            }
            FaultKind::Blackout { beats } => {
                self.blackout_until = self.blackout_until.max(self.beat + 1 + beats);
            }
        }
    }

    /// Runs exactly `beats` beats.
    pub fn run_beats(&mut self, beats: u64) {
        for _ in 0..beats {
            self.step();
        }
    }

    /// Steps until `pred` holds (checked before each step, so a
    /// pre-satisfied predicate returns immediately) or `max_beat` is
    /// reached. Returns the beat count at which the predicate first held.
    pub fn run_until<P>(&mut self, max_beat: u64, pred: P) -> Option<u64>
    where
        P: Fn(&Self) -> bool,
    {
        loop {
            if pred(self) {
                return Some(self.beat);
            }
            if self.beat >= max_beat {
                return None;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;
    use crate::wire::{Wire, WireFormat, WireReader, WireWriter};
    use crate::{SilentAdversary, SimBuilder};

    /// Test app: broadcasts a tagged counter in phase 0 and echoes in later
    /// phases what it saw in phase 0, recording everything.
    #[derive(Debug)]
    struct Recorder {
        me: NodeId,
        nphases: usize,
        round_trips: Vec<(usize, u16, u64)>, // (phase, from, value)
        counter: u64,
        corrupted: bool,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Tagged(u16, u64);
    impl Wire for Tagged {
        fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
            self.0.encode(format, w);
            self.1.encode(format, w);
        }

        fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
            Some(Tagged(u16::decode(format, r)?, u64::decode(format, r)?))
        }
    }

    impl Application for Recorder {
        type Msg = Tagged;
        fn phases(&self) -> usize {
            self.nphases
        }
        fn send(&mut self, phase: usize, out: &mut Outbox<'_, Tagged>) {
            if phase == 0 {
                out.broadcast(Tagged(self.me.raw(), self.counter));
            } else {
                // Echo in phase 1 proves phase-0 deliveries happened first.
                out.unicast(self.me, Tagged(self.me.raw(), self.counter + 1000));
            }
        }
        fn deliver(&mut self, phase: usize, inbox: &[Envelope<Tagged>], _rng: &mut SimRng) {
            for e in inbox {
                self.round_trips.push((phase, e.msg.0, e.msg.1));
            }
            if phase == self.nphases - 1 {
                self.counter += 1;
            }
        }
        fn corrupt(&mut self, _rng: &mut SimRng) {
            self.corrupted = true;
            self.counter = 999;
        }
    }

    fn recorder_sim(
        n: usize,
        f: usize,
        phases: usize,
        plan: FaultPlan,
    ) -> Simulation<Recorder, SilentAdversary> {
        SimBuilder::new(n, f).seed(5).faults(plan).build(
            move |cfg, _rng| Recorder {
                me: cfg.id,
                nphases: phases,
                round_trips: Vec::new(),
                counter: 0,
                corrupted: false,
            },
            SilentAdversary,
        )
    }

    #[test]
    fn same_beat_delivery() {
        let mut sim = recorder_sim(4, 1, 1, FaultPlan::none());
        sim.step();
        // 3 correct nodes broadcast; everyone (correct) hears all 3.
        for (_, app) in sim.correct_apps() {
            assert_eq!(app.round_trips.len(), 3);
            assert!(app.round_trips.iter().all(|&(p, _, v)| p == 0 && v == 0));
        }
    }

    /// Remembers every envelope delivered to it.
    struct Inbox {
        me: NodeId,
        got: Vec<Envelope<u64>>,
    }

    impl Application for Inbox {
        type Msg = u64;
        fn send(&mut self, _phase: usize, out: &mut Outbox<'_, u64>) {
            if self.me == NodeId::new(1) {
                out.broadcast(7);
            }
        }
        fn deliver(&mut self, _phase: usize, inbox: &[Envelope<u64>], _rng: &mut SimRng) {
            self.got.extend_from_slice(inbox);
        }
        fn corrupt(&mut self, _rng: &mut SimRng) {}
    }

    /// A broadcast lands once in every inbox, stamped with its sender and
    /// send beat.
    #[test]
    fn broadcast_lands_stamped_in_every_inbox() {
        let mut sim = SimBuilder::new(4, 1).all_correct().build(
            |cfg, _rng| Inbox {
                me: cfg.id,
                got: Vec::new(),
            },
            SilentAdversary,
        );
        sim.run_beats(7);
        for (id, app) in sim.correct_apps() {
            let last = app.got.last().expect("a delivery per beat");
            assert_eq!(app.got.len(), 7, "one copy per beat");
            assert_eq!(
                *last,
                Envelope {
                    from: NodeId::new(1),
                    to: id,
                    round: 6,
                    msg: 7,
                }
            );
        }
        assert_eq!(sim.correct_apps().count(), 4);
    }

    #[test]
    fn inbox_is_sorted_by_sender() {
        let mut sim = recorder_sim(5, 1, 1, FaultPlan::none());
        sim.run_beats(2);
        for (_, app) in sim.correct_apps() {
            let froms: Vec<u16> = app
                .round_trips
                .iter()
                .take(4)
                .map(|&(_, from, _)| from)
                .collect();
            let mut sorted = froms.clone();
            sorted.sort_unstable();
            assert_eq!(froms, sorted);
        }
    }

    #[test]
    fn phases_run_in_order_within_a_beat() {
        let mut sim = recorder_sim(4, 1, 2, FaultPlan::none());
        sim.step();
        for (_, app) in sim.correct_apps() {
            // Phase 0: 3 broadcasts; phase 1: own echo carrying counter+1000
            // computed *after* phase-0 deliveries of the same beat.
            let phase1: Vec<_> = app
                .round_trips
                .iter()
                .filter(|&&(p, _, _)| p == 1)
                .collect();
            assert_eq!(phase1.len(), 1);
            assert_eq!(phase1[0].2, 1000);
        }
    }

    #[test]
    fn byzantine_nodes_run_no_application() {
        // Two *actual* traitors under a budget of f=1: placement beyond
        // the budget stays legal (resiliency experiments depend on it);
        // only degenerate budgets (n <= 2f) are rejected at construction.
        let sim = SimBuilder::new(4, 1).seed(5).byzantine([2u16, 3]).build(
            |cfg, _rng| Recorder {
                me: cfg.id,
                nphases: 1,
                round_trips: Vec::new(),
                counter: 0,
                corrupted: false,
            },
            SilentAdversary,
        );
        assert_eq!(sim.correct_apps().count(), 2);
        assert_eq!(sim.byzantine().len(), 2);
        assert!(sim.app(NodeId::new(3)).is_none());
        assert!(sim.app(NodeId::new(0)).is_some());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = recorder_sim(5, 1, 2, FaultPlan::none());
            sim.run_beats(7);
            let states: Vec<String> = sim.correct_apps().map(|(_, a)| format!("{a:?}")).collect();
            let traffic = format!("{:?}", sim.stats().per_beat());
            (states, traffic)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_fault_fires() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 1,
            kind: FaultKind::CorruptNodes(vec![NodeId::new(0)]),
        }]);
        let mut sim = recorder_sim(4, 1, 1, plan);
        sim.run_beats(3);
        assert!(sim.app(NodeId::new(0)).unwrap().corrupted);
        assert!(!sim.app(NodeId::new(1)).unwrap().corrupted);
    }

    #[test]
    fn corrupt_all_correct_fault() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 0,
            kind: FaultKind::CorruptAllCorrect,
        }]);
        let mut sim = recorder_sim(4, 1, 1, plan);
        sim.run_beats(1);
        for (_, app) in sim.correct_apps() {
            assert!(app.corrupted);
        }
    }

    #[test]
    fn blackout_drops_deliveries() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 0,
            kind: FaultKind::Blackout { beats: 2 },
        }]);
        let mut sim = recorder_sim(4, 1, 1, plan);
        sim.run_beats(4); // beat 0 delivers; 1 and 2 blacked out; 3 delivers
        for (_, app) in sim.correct_apps() {
            assert_eq!(app.round_trips.len(), 2 * 3);
        }
    }

    #[test]
    fn phantom_burst_replays_history() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 1,
            kind: FaultKind::PhantomBurst { count: 8 },
        }]);
        let mut sim = recorder_sim(4, 1, 1, plan);
        sim.run_beats(3);
        let phantoms: u64 = sim.stats().per_beat().iter().map(|b| b.phantom_msgs).sum();
        assert_eq!(phantoms, 8);
        // Deliveries at beat 2 include stale values (counter 0 or 1 from
        // beats 0-1 arriving at beat 2, where fresh values are 2).
        let stale_seen = sim
            .correct_apps()
            .any(|(_, a)| a.round_trips.iter().filter(|&&(_, _, v)| v < 2).count() > 2 * 3);
        assert!(stale_seen);
    }

    #[test]
    fn run_until_stops_at_predicate() {
        let mut sim = recorder_sim(4, 1, 1, FaultPlan::none());
        let hit = sim.run_until(100, |s| s.correct_apps().all(|(_, a)| a.counter >= 5));
        assert_eq!(hit, Some(5));
        // Pre-satisfied predicate returns immediately without stepping.
        let again = sim.run_until(100, |s| s.beat() >= 5);
        assert_eq!(again, Some(5));
    }

    #[test]
    fn run_until_gives_up_at_max() {
        let mut sim = recorder_sim(4, 1, 1, FaultPlan::none());
        assert_eq!(sim.run_until(10, |_| false), None);
        assert_eq!(sim.beat(), 10);
    }

    /// Records `(from, sent_beat, received_beat)` for every delivery —
    /// the observability the bounded-delay assertions need.
    #[derive(Debug)]
    struct WindowProbe {
        me: NodeId,
        beat: u64,
        arrivals: Vec<(u16, u64, u64)>,
    }

    impl Application for WindowProbe {
        type Msg = Tagged;
        fn begin_beat(&mut self, beat: u64) {
            self.beat = beat;
        }
        fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Tagged>) {
            out.broadcast(Tagged(self.me.raw(), self.beat));
        }
        fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Tagged>], _rng: &mut SimRng) {
            for e in inbox {
                self.arrivals.push((e.msg.0, e.msg.1, self.beat));
            }
        }
        fn corrupt(&mut self, _rng: &mut SimRng) {}
    }

    fn probe_sim<Adv: Adversary<Tagged>>(window: u64, adv: Adv) -> Simulation<WindowProbe, Adv> {
        probe_sim_with(window, FaultPlan::none(), adv)
    }

    fn probe_sim_with<Adv: Adversary<Tagged>>(
        window: u64,
        plan: FaultPlan,
        adv: Adv,
    ) -> Simulation<WindowProbe, Adv> {
        SimBuilder::new(5, 1)
            .seed(11)
            .timing(crate::TimingModel::bounded(window))
            .faults(plan)
            .build(
                |cfg, _rng| WindowProbe {
                    me: cfg.id,
                    beat: 0,
                    arrivals: Vec::new(),
                },
                adv,
            )
    }

    #[test]
    fn bounded_delay_messages_land_within_the_window() {
        let window = 3;
        let mut sim = probe_sim(window, SilentAdversary);
        sim.run_beats(40);
        let mut total = 0usize;
        let mut delayed = 0usize;
        for (_, app) in sim.correct_apps() {
            for &(_, sent, received) in &app.arrivals {
                assert!(
                    received >= sent && received - sent < window,
                    "message sent at {sent} arrived at {received}, outside window {window}"
                );
                total += 1;
                delayed += usize::from(received > sent);
            }
        }
        // 4 correct senders x 4 correct recipients per beat, minus the
        // tail still in flight when the run stops.
        assert!(total >= 4 * 4 * (40 - window as usize), "{total} arrivals");
        assert!(delayed > 0, "a window of 3 must actually delay something");
        // The histogram covers every scheduled envelope (4 senders x 5
        // recipients x 40 beats) and only uses in-window buckets.
        assert_eq!(sim.delay_histogram().len(), window as usize);
        assert_eq!(sim.delay_histogram().iter().sum::<u64>(), 4 * 5 * 40);
    }

    #[test]
    fn bounded_delay_runs_replay_bit_identically() {
        let run = || {
            let mut sim = probe_sim(4, SilentAdversary);
            sim.run_beats(25);
            let states: Vec<String> = sim.correct_apps().map(|(_, a)| format!("{a:?}")).collect();
            (states, sim.delay_histogram().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lockstep_reports_no_delay_histogram() {
        let mut sim = recorder_sim(4, 1, 1, FaultPlan::none());
        sim.run_beats(3);
        assert_eq!(sim.timing(), crate::TimingModel::Lockstep);
        assert!(sim.delay_histogram().is_empty());
    }

    /// The adversary's scheduler seam: `send_after` arrives exactly the
    /// requested number of beats later, and plain sends rush (arrive the
    /// same beat) even when every correct message is delayed.
    #[test]
    fn adversary_controls_its_own_timing_inside_the_window() {
        struct SplitTiming;
        impl Adversary<Tagged> for SplitTiming {
            fn act(&mut self, view: &AdversaryView<'_, Tagged>, out: &mut ByzOutbox<'_, Tagged>) {
                assert_eq!(view.delay_window(), 3);
                let b = view.byzantine()[0];
                // Tag 900+beat = rushed, 800+beat = placed one beat ahead.
                out.send(b, NodeId::new(0), Tagged(b.raw(), 900 + view.beat()));
                out.send_after(b, NodeId::new(0), Tagged(b.raw(), 800 + view.beat()), 1);
            }
        }
        let mut sim = probe_sim(3, SplitTiming);
        sim.run_beats(10);
        let probe = sim.app(NodeId::new(0)).unwrap();
        for &(from, tag, received) in &probe.arrivals {
            if from == 4 {
                if tag >= 900 {
                    assert_eq!(tag - 900, received, "rushed sends arrive same beat");
                } else {
                    assert_eq!(tag - 800 + 1, received, "send_after(1) arrives next beat");
                }
            }
        }
        assert!(probe.arrivals.iter().any(|&(f, t, _)| f == 4 && t >= 900));
        assert!(probe.arrivals.iter().any(|&(f, t, _)| f == 4 && t < 900));
    }

    use crate::adversary::AdversaryView;

    /// Envelope round tags flow end-to-end: correct traffic is stamped
    /// with the true send beat (so a delayed arrival is classifiable as
    /// late), a Byzantine sender's claimed tag is delivered verbatim, and
    /// the payload-encoded beat agrees with the envelope tag for correct
    /// senders.
    #[test]
    fn round_tags_survive_the_delivery_scheduler() {
        struct TagRecorder {
            me: NodeId,
            beat: u64,
            // (from, claimed_round, received_beat)
            tags: Vec<(u16, u64, u64)>,
        }
        impl Application for TagRecorder {
            type Msg = Tagged;
            fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Tagged>) {
                out.broadcast(Tagged(self.me.raw(), self.beat));
            }
            fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Tagged>], _rng: &mut SimRng) {
                for e in inbox {
                    self.tags.push((e.from.raw(), e.round, self.beat));
                }
                self.beat += 1;
            }
            fn corrupt(&mut self, _rng: &mut SimRng) {}
        }
        struct TagLiar;
        impl Adversary<Tagged> for TagLiar {
            fn act(&mut self, view: &AdversaryView<'_, Tagged>, out: &mut ByzOutbox<'_, Tagged>) {
                let b = view.byzantine()[0];
                // Claim a tag far in the future, every beat.
                out.send_tagged(b, NodeId::new(0), Tagged(b.raw(), 0), 1_000 + view.beat());
            }
        }
        let mut sim = SimBuilder::new(5, 1)
            .seed(13)
            .timing(crate::TimingModel::bounded(3))
            .build(
                |cfg, _rng| TagRecorder {
                    me: cfg.id,
                    beat: 0,
                    tags: Vec::new(),
                },
                TagLiar,
            );
        sim.run_beats(20);
        let probe = sim.app(NodeId::new(0)).unwrap();
        let mut late_seen = false;
        for &(from, claimed, received) in &probe.tags {
            if from == 4 {
                assert!(claimed >= 1_000, "the lie is delivered verbatim");
            } else {
                // Correct tags are truthful: arrival is within the window
                // of the claimed send beat.
                assert!(
                    received >= claimed && received - claimed < 3,
                    "claimed {claimed}, received {received}"
                );
                late_seen |= received > claimed;
            }
        }
        assert!(
            late_seen,
            "a 3-beat window must produce classifiably-late traffic"
        );
    }

    #[test]
    fn phantom_round_tags_are_arbitrary() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 2,
            kind: FaultKind::PhantomBurst { count: 6 },
        }]);
        let mut sim = recorder_sim(4, 1, 1, plan);
        sim.run_beats(2);
        let before: Vec<usize> = sim
            .correct_apps()
            .map(|(_, a)| a.round_trips.len())
            .collect();
        sim.run_beats(2);
        // Phantoms were delivered (round_trips grew beyond the 3 regular
        // broadcasts per beat somewhere) — their tags came from a stream
        // that is not any node/adversary/fault stream, so the pre-tag
        // delivery pattern is unchanged (pinned by the golden-report test
        // at the workspace level).
        let grew: usize = sim
            .correct_apps()
            .zip(before)
            .map(|((_, a), b)| a.round_trips.len() - b)
            .sum();
        assert!(grew > 2 * 3 * 3, "phantom deliveries missing: {grew}");
    }

    /// The phantom-history ring is fed iff the plan holds a phantom burst
    /// that could read it — and then from beat 0, however late the burst.
    #[test]
    fn history_records_only_when_the_plan_can_replay_it() {
        let no_burst = FaultPlan::new(vec![
            FaultEvent {
                beat: 3,
                kind: FaultKind::CorruptAllCorrect,
            },
            FaultEvent {
                beat: 5,
                kind: FaultKind::Blackout { beats: 2 },
            },
        ]);
        let mut sim = recorder_sim(4, 1, 2, no_burst);
        for _ in 0..50 {
            sim.step();
            assert!(sim.history.is_empty());
        }

        let late_burst = FaultPlan::new(vec![FaultEvent {
            beat: 40,
            kind: FaultKind::PhantomBurst { count: 200 },
        }]);
        let mut sim = recorder_sim(4, 1, 1, late_burst);
        sim.step();
        // 3 correct broadcasts to 4 recipients, recorded long before the burst.
        assert_eq!(sim.history.len(), 12);
        sim.run_beats(40);
        assert_eq!(sim.history.len(), 12 * 41);
        assert_eq!(sim.pending_phantoms.len(), 200);
        let replayed = |lo: u64, hi: u64| {
            sim.pending_phantoms
                .iter()
                .any(|e| (lo..=hi).contains(&e.msg.1))
        };
        assert!(replayed(0, 9), "beat-0..9 traffic is still replayable");
        assert!(replayed(30, 40));
    }

    /// Broadcasts `500 + beat` from its one Byzantine node.
    struct Needle;
    impl Adversary<Tagged> for Needle {
        fn act(&mut self, view: &AdversaryView<'_, Tagged>, out: &mut ByzOutbox<'_, Tagged>) {
            let b = view.byzantine()[0];
            out.broadcast(b, Tagged(b.raw(), 500 + view.beat()));
        }
    }

    /// Within one phase an inbox is sorted by sender, and among one
    /// sender's envelopes the fresh one (correct or Byzantine) precedes
    /// every phantom replay carrying the same `from`.
    #[test]
    fn fresh_traffic_precedes_phantoms_of_the_same_sender() {
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 1,
            kind: FaultKind::PhantomBurst { count: 64 },
        }]);
        let mut sim = SimBuilder::new(4, 1).seed(5).faults(plan).build(
            |cfg, _rng| Recorder {
                me: cfg.id,
                nphases: 1,
                round_trips: Vec::new(),
                counter: 0,
                corrupted: false,
            },
            Needle,
        );
        sim.run_beats(2);
        let before = sim.app(NodeId::new(0)).unwrap().round_trips.len();
        sim.step();
        let inbox = &sim.app(NodeId::new(0)).unwrap().round_trips[before..];
        let froms: Vec<u16> = inbox.iter().map(|&(_, from, _)| from).collect();
        assert!(froms.is_sorted(), "{froms:?}");
        for (from, fresh) in [(0, 2), (1, 2), (2, 2), (3, 502)] {
            let values: Vec<u64> = inbox
                .iter()
                .filter(|&&(_, f, _)| f == from)
                .map(|&(_, _, v)| v)
                .collect();
            assert_eq!(values[0], fresh, "sender {from}: {values:?}");
            assert!(values[1..].iter().all(|&v| v < fresh), "{values:?}");
        }
        // The burst put stale copies behind a correct and a Byzantine sender.
        let stale = |from: u16| inbox.iter().filter(|&&(_, f, _)| f == from).count() > 1;
        assert!((0..3).any(stale) && stale(3), "{inbox:?}");
    }

    /// A blackout acts on the arrival end of the delay window: what is due
    /// in a blacked-out beat is lost, what is due the beat after arrives.
    #[test]
    fn blackout_loses_what_is_due_and_spares_what_is_due_later() {
        struct Placed;
        impl Adversary<Tagged> for Placed {
            fn act(&mut self, view: &AdversaryView<'_, Tagged>, out: &mut ByzOutbox<'_, Tagged>) {
                if view.beat() == 5 {
                    let b = view.byzantine()[0];
                    out.send_after(b, NodeId::new(0), Tagged(b.raw(), 601), 1);
                    out.send_after(b, NodeId::new(0), Tagged(b.raw(), 602), 2);
                }
            }
        }
        // Fires at the end of beat 5: beat 6 is dark, beat 7 is not.
        let plan = FaultPlan::new(vec![FaultEvent {
            beat: 5,
            kind: FaultKind::Blackout { beats: 1 },
        }]);
        let mut sim = probe_sim_with(3, plan, Placed);
        sim.run_beats(12);
        let probe = sim.app(NodeId::new(0)).unwrap();
        let from_byz: Vec<(u64, u64)> = probe
            .arrivals
            .iter()
            .filter(|&&(from, _, _)| from == 4)
            .map(|&(_, tag, received)| (tag, received))
            .collect();
        assert_eq!(from_byz, vec![(602, 7)]);
        assert!(probe.arrivals.iter().all(|&(_, _, received)| received != 6));
        // Correct traffic sent before and during the blackout, due after it.
        for sent in [5, 6] {
            assert!(
                probe.arrivals.contains(&(0, sent, 7)) || probe.arrivals.contains(&(1, sent, 7)),
                "{:?}",
                probe.arrivals
            );
        }
    }

    /// The byte-boundary seam is behaviorally invisible: a run whose
    /// envelopes are serialized at send and re-parsed at delivery produces
    /// exactly the states and traffic of the in-memory run — under both
    /// formats, and with phantoms and faults in the mix.
    #[test]
    fn byte_boundary_runs_match_in_memory_runs() {
        let plan = || {
            FaultPlan::new(vec![
                FaultEvent {
                    beat: 2,
                    kind: FaultKind::CorruptNodes(vec![NodeId::new(0)]),
                },
                FaultEvent {
                    beat: 3,
                    kind: FaultKind::PhantomBurst { count: 6 },
                },
            ])
        };
        let run = |wire: crate::WireConfig| {
            let mut sim = SimBuilder::new(5, 1)
                .seed(9)
                .wire(wire)
                .faults(plan())
                .build(
                    move |cfg, _rng| Recorder {
                        me: cfg.id,
                        nphases: 2,
                        round_trips: Vec::new(),
                        counter: 0,
                        corrupted: false,
                    },
                    SilentAdversary,
                );
            sim.run_beats(8);
            let states: Vec<String> = sim.correct_apps().map(|(_, a)| format!("{a:?}")).collect();
            (states, sim.stats().clone())
        };
        for format in [crate::WireFormat::Fixed, crate::WireFormat::Packed] {
            let in_memory = run(crate::WireConfig {
                format,
                byte_boundary: false,
            });
            let bounded = run(crate::WireConfig {
                format,
                byte_boundary: true,
            });
            assert_eq!(in_memory, bounded, "{format:?}");
        }
    }

    /// Packed accounting uses the packed length; for a type that ignores
    /// `format` the two formats agree.
    #[test]
    fn packed_accounting_falls_back_to_fixed_for_plain_types() {
        let run = |wire: crate::WireConfig| {
            let mut sim = SimBuilder::new(4, 1).seed(5).wire(wire).build(
                move |cfg, _rng| Recorder {
                    me: cfg.id,
                    nphases: 1,
                    round_trips: Vec::new(),
                    counter: 0,
                    corrupted: false,
                },
                SilentAdversary,
            );
            sim.step();
            sim.stats().per_beat()[0].correct_bytes
        };
        assert_eq!(
            run(crate::WireConfig::fixed()),
            run(crate::WireConfig::packed())
        );
    }

    #[test]
    fn traffic_accounting_counts_broadcasts_as_n_unicasts() {
        let mut sim = recorder_sim(4, 1, 1, FaultPlan::none());
        sim.step();
        let beat0 = sim.stats().per_beat()[0];
        // 3 correct nodes broadcast to 4 targets each.
        assert_eq!(beat0.correct_msgs, 12);
        // Tagged = u16 + u64 = 10 bytes.
        assert_eq!(beat0.correct_bytes, 120);
        assert_eq!(beat0.byz_msgs, 0);
    }
}
