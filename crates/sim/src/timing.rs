//! Pluggable delivery-timing models and the per-message scheduler.
//!
//! The paper's global-beat model (Def. 2.2(1)) delivers every message in
//! the same beat it was sent — [`TimingModel::Lockstep`]. Its §6.3 future
//! work is the *bounded-delay* (semi-synchronous) model, where a message
//! sent at beat `r` arrives at some beat in `r .. r + d` —
//! [`TimingModel::BoundedDelay`]. The [`DeliveryScheduler`] is where
//! delivery policy lives: it holds every envelope that cannot be read off
//! the send lists of the phase it is delivered in, and the model decides
//! the arrival beat.
//!
//! Determinism: bounded-delay arrival beats are drawn from a dedicated RNG
//! stream derived from the master seed, so adding the scheduler perturbs no
//! other random stream — under `Lockstep` the delay RNG is never touched
//! and runs are bit-for-bit identical to the historical same-beat
//! simulator.

use crate::{Envelope, SimRng};
use rand::Rng;

/// When messages sent at beat `r` are delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingModel {
    /// The paper's global-beat system: every message sent in phase `p` of
    /// beat `r` is delivered in phase `p` of beat `r` (Def. 2.2(1)).
    #[default]
    Lockstep,
    /// The §6.3 semi-synchronous model: a correct message sent in phase
    /// `p` of beat `r` is delivered in phase `p` of some beat in
    /// `r ..= r + window - 1`, chosen uniformly by a seeded stream. The
    /// adversary is *not* bound to the draw — it may place each of its own
    /// messages anywhere inside the window (rushing by default).
    BoundedDelay {
        /// Width of the delivery window in beats (`>= 1`; `window == 1`
        /// reproduces same-beat delivery through the delayed path).
        window: u64,
    },
}

impl TimingModel {
    /// A bounded-delay model with the given window.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (an empty delivery window can deliver
    /// nothing).
    pub fn bounded(window: u64) -> Self {
        assert!(window >= 1, "bounded-delay window must be at least 1 beat");
        TimingModel::BoundedDelay { window }
    }

    /// Width of the delivery window in beats (1 for lockstep).
    pub fn window(&self) -> u64 {
        match self {
            TimingModel::Lockstep => 1,
            TimingModel::BoundedDelay { window } => (*window).max(1),
        }
    }

    /// `true` for the paper's same-beat model.
    pub fn is_lockstep(&self) -> bool {
        matches!(self, TimingModel::Lockstep)
    }
}

impl std::fmt::Display for TimingModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingModel::Lockstep => write!(f, "lockstep"),
            TimingModel::BoundedDelay { window } => write!(f, "bounded-delay:{window}"),
        }
    }
}

/// Holds the envelopes in flight: what the runner cannot build an inbox
/// from at delivery time.
///
/// Under [`TimingModel::Lockstep`] that is only the Byzantine sends of the
/// current phase — correct traffic is read straight from the send lists
/// when each inbox is built, so a lockstep run holds no correct envelope
/// in between. Under [`TimingModel::BoundedDelay`] an envelope may arrive
/// beats after it was sent, so every envelope — correct, Byzantine or
/// phantom — is routed here, and the delay draws follow that routing.
///
/// The scheduler is a ring of recycled per-recipient inboxes: the slot of
/// `(deliver_beat, phase)` is `n` inboxes, one per recipient, and a ring of
/// `window` beats per phase covers every arrival the model can produce
/// (lockstep is a ring of one). A message sent in phase `p` arrives in
/// phase `p` of its arrival beat, so multi-phase protocols keep their
/// phase structure under delay. Within one inbox, envelopes keep their
/// scheduling order (earlier-scheduled first), which makes delayed runs
/// exactly replayable. Inboxes keep their capacity across beats, so
/// steady-state scheduling allocates nothing.
#[derive(Debug)]
pub(crate) struct DeliveryScheduler<M> {
    model: TimingModel,
    delay_rng: SimRng,
    n: usize,
    /// The ring row of the current beat: `beat % window`.
    row: usize,
    /// `inboxes[(phase * window + deliver_beat % window) * n + to]`;
    /// phase-major, so the ring grows by whole phases the first time a
    /// phase is used.
    inboxes: Vec<Vec<Envelope<M>>>,
    /// `histogram[d]` = messages scheduled to arrive `d` beats after they
    /// were sent. Left empty under lockstep (no observation to report).
    histogram: Vec<u64>,
}

impl<M> DeliveryScheduler<M> {
    pub(crate) fn new(model: TimingModel, delay_rng: SimRng, n: usize) -> Self {
        // Normalize a hand-built `BoundedDelay { window: 0 }` (the struct
        // field is necessarily public for matching) so behavior and
        // reporting agree everywhere downstream.
        let model = match model {
            TimingModel::BoundedDelay { window } => TimingModel::BoundedDelay {
                window: window.max(1),
            },
            lockstep => lockstep,
        };
        let histogram = if model.is_lockstep() {
            Vec::new()
        } else {
            vec![0; model.window() as usize]
        };
        DeliveryScheduler {
            model,
            delay_rng,
            n,
            row: 0,
            inboxes: Vec::new(),
            histogram,
        }
    }

    pub(crate) fn model(&self) -> TimingModel {
        self.model
    }

    pub(crate) fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Moves the scheduler to `beat`: everything scheduled until the next
    /// call is sent in, and everything taken is due in, this beat.
    pub(crate) fn begin_beat(&mut self, beat: u64) {
        self.row = (beat % self.model.window()) as usize;
    }

    /// The `n` inboxes of the slot `delay < window` beats ahead.
    fn slot(&mut self, delay: u64, phase: usize) -> &mut [Vec<Envelope<M>>] {
        let window = self.model.window() as usize;
        let mut row = self.row + delay as usize;
        if row >= window {
            row -= window;
        }
        let phases_end = (phase + 1) * window * self.n;
        if self.inboxes.len() < phases_end {
            self.inboxes.resize_with(phases_end, Vec::new);
        }
        let start = (phase * window + row) * self.n;
        &mut self.inboxes[start..start + self.n]
    }

    /// Schedules a correct node's envelope sent in `phase` of the current
    /// beat; the model draws the arrival beat.
    pub(crate) fn schedule(&mut self, phase: usize, envelope: Envelope<M>) {
        let delay = match self.model {
            TimingModel::Lockstep => 0,
            TimingModel::BoundedDelay { window } => {
                if window <= 1 {
                    0
                } else {
                    self.delay_rng.random_range(0..window)
                }
            }
        };
        self.schedule_raw(phase, delay, envelope);
    }

    /// Schedules an envelope at an adversary- or fault-chosen delay,
    /// clamped into the model's window (0 under lockstep) — the seam
    /// through which Byzantine senders rush or reorder.
    pub(crate) fn schedule_at(&mut self, phase: usize, delay: u64, envelope: Envelope<M>) {
        let delay = delay.min(self.model.window() - 1);
        self.schedule_raw(phase, delay, envelope);
    }

    /// An envelope addressed outside the cluster is observed (and was
    /// drawn for) like any other; it has no inbox and is dropped.
    fn schedule_raw(&mut self, phase: usize, delay: u64, envelope: Envelope<M>) {
        if let Some(count) = self.histogram.get_mut(delay as usize) {
            *count += 1;
        }
        if let Some(inbox) = self.slot(delay, phase).get_mut(envelope.to.index()) {
            inbox.push(envelope);
        }
    }

    /// The per-recipient inboxes due in `phase` of the current beat, each
    /// in scheduling order. The caller empties them (delivered or not)
    /// before the ring wraps around to this slot again, `window` beats
    /// later.
    pub(crate) fn due_inboxes(&mut self, phase: usize) -> &mut [Vec<Envelope<M>>] {
        self.slot(0, phase)
    }

    /// Envelopes still in flight (tests and shutdown accounting).
    #[cfg(test)]
    pub(crate) fn in_flight(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use rand::SeedableRng;

    fn env(tag: u64) -> Envelope<u64> {
        Envelope::new(NodeId::new(0), NodeId::new(1), tag)
    }

    fn scheduler(model: TimingModel, seed: u64) -> DeliveryScheduler<u64> {
        DeliveryScheduler::new(model, SimRng::seed_from_u64(seed), 2)
    }

    /// Empties the slot due in `phase` of `beat`, returning node 1's inbox.
    fn drain_due(s: &mut DeliveryScheduler<u64>, beat: u64, phase: usize) -> Vec<u64> {
        s.begin_beat(beat);
        let due = s.due_inboxes(phase);
        assert!(due[0].is_empty(), "nothing was addressed to node 0");
        due[1].drain(..).map(|e| e.msg).collect()
    }

    #[test]
    fn lockstep_delivers_same_slot_in_order() {
        let mut s = scheduler(TimingModel::Lockstep, 0);
        s.begin_beat(3);
        s.schedule(1, env(10));
        s.schedule(1, env(11));
        assert!(
            s.due_inboxes(0).iter().all(Vec::is_empty),
            "phases are apart"
        );
        assert_eq!(drain_due(&mut s, 3, 1), vec![10, 11]);
        assert_eq!(s.in_flight(), 0);
        assert!(s.histogram().is_empty(), "lockstep reports no histogram");
    }

    #[test]
    fn bounded_delay_lands_inside_the_window() {
        let window = 3;
        let mut s = scheduler(TimingModel::bounded(window), 7);
        s.begin_beat(10);
        for i in 0..200 {
            s.schedule(0, env(i));
        }
        assert_eq!(s.in_flight(), 200);
        let mut seen = Vec::new();
        for beat in 10..10 + window {
            let due = drain_due(&mut s, beat, 0);
            assert!(due.is_sorted(), "an inbox keeps its scheduling order");
            seen.extend(due);
        }
        assert_eq!(seen.len(), 200, "every message lands within the window");
        assert_eq!(s.in_flight(), 0);
        assert_eq!(s.histogram().iter().sum::<u64>(), 200);
        assert!(
            s.histogram().iter().all(|&c| c > 0),
            "uniform draws should populate every bucket: {:?}",
            s.histogram()
        );
    }

    #[test]
    fn adversary_delay_is_clamped_to_the_window() {
        let mut s = scheduler(TimingModel::bounded(2), 1);
        s.begin_beat(5);
        s.schedule_at(0, 99, env(1)); // clamped to delay 1
        assert!(drain_due(&mut s, 5, 0).is_empty());
        assert_eq!(drain_due(&mut s, 6, 0), vec![1]);

        let mut lock = scheduler(TimingModel::Lockstep, 1);
        lock.begin_beat(5);
        lock.schedule_at(0, 99, env(2)); // lockstep forces delay 0
        assert_eq!(drain_due(&mut lock, 5, 0), vec![2]);
    }

    #[test]
    fn window_one_is_instant_but_still_observed() {
        let mut s = scheduler(TimingModel::bounded(1), 3);
        s.begin_beat(0);
        s.schedule(0, env(1));
        assert_eq!(drain_due(&mut s, 0, 0), vec![1]);
        assert_eq!(s.histogram(), &[1]);
    }

    /// An envelope addressed outside the cluster is observed, then has no
    /// inbox to land in.
    #[test]
    fn out_of_range_recipients_are_counted_then_dropped() {
        let mut s = scheduler(TimingModel::bounded(1), 3);
        s.begin_beat(0);
        s.schedule(0, Envelope::new(NodeId::new(0), NodeId::new(2), 9));
        assert_eq!(s.histogram(), &[1]);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn model_rendering_and_window() {
        assert_eq!(TimingModel::Lockstep.to_string(), "lockstep");
        assert_eq!(TimingModel::bounded(4).to_string(), "bounded-delay:4");
        assert_eq!(TimingModel::Lockstep.window(), 1);
        assert_eq!(TimingModel::bounded(4).window(), 4);
        assert!(TimingModel::Lockstep.is_lockstep());
        assert!(!TimingModel::bounded(2).is_lockstep());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_is_rejected() {
        let _ = TimingModel::bounded(0);
    }
}
