//! A common observer interface over every clock algorithm in the workspace.

use byzclock_sim::{Adversary, Application, Simulation};

/// Anything that exposes a digital clock reading.
///
/// `None` means the node currently holds no definite value (`⊥` somewhere
/// in its state). The harness's convergence predicates are written against
/// this trait so the paper's algorithms and the Table 1 baselines can be
/// measured by one code path.
pub trait DigitalClock {
    /// The clock modulus `k` (2 for the 2-clock, 4 for the 4-clock, the
    /// configured `k` for `ss-Byz-Clock-Sync`).
    fn modulus(&self) -> u64;

    /// The current clock value, if definite.
    fn read(&self) -> Option<u64>;
}

/// Tracks *stable* synchronization per Definition 3.2: the system counts as
/// converged at beat `r` only if it is clock-synched at `r` **and** keeps
/// incrementing by one (mod `k`) from then on. Observing mere equality is
/// not enough — `ss-Byz-Clock-Sync` can pass through coincidentally-equal
/// states that still jump at the next block-(d) beat.
///
/// Feed one [`SyncTracker::observe`] per beat with the `all_synced` result;
/// [`SyncTracker::streak_start`] is the candidate convergence beat, valid
/// once [`SyncTracker::streak_len`] exceeds your stability window.
///
/// # Example
///
/// ```
/// use byzclock_core::SyncTracker;
///
/// let mut t = SyncTracker::new(4);
/// for v in [None, Some(2), Some(3), Some(0), Some(1)] {
///     t.observe(v);
/// }
/// assert_eq!(t.streak_start(), Some(1));
/// assert_eq!(t.streak_len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SyncTracker {
    k: u64,
    beats_seen: u64,
    prev: Option<u64>,
    streak_start: Option<u64>,
}

impl SyncTracker {
    /// Tracker for a clock of modulus `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "clock modulus must be at least 1");
        SyncTracker {
            k,
            beats_seen: 0,
            prev: None,
            streak_start: None,
        }
    }

    /// Records the post-beat system state: `Some(v)` if all correct nodes
    /// read `v`, `None` otherwise.
    pub fn observe(&mut self, synced_value: Option<u64>) {
        let now = self.beats_seen;
        self.beats_seen += 1;
        match synced_value {
            None => self.streak_start = None,
            Some(v) => {
                let continues = self.streak_start.is_some()
                    && self.prev.is_some_and(|p| (p + 1) % self.k == v % self.k);
                if !continues {
                    self.streak_start = Some(now);
                }
            }
        }
        self.prev = synced_value;
    }

    /// The beat at which the current synced-and-incrementing streak began.
    pub fn streak_start(&self) -> Option<u64> {
        self.streak_start
    }

    /// Length of the current streak in beats.
    pub fn streak_len(&self) -> u64 {
        self.streak_start.map_or(0, |s| self.beats_seen - s)
    }

    /// Beats observed so far.
    pub fn beats_seen(&self) -> u64 {
        self.beats_seen
    }
}

/// `true` iff every reading is definite and all are equal — Definition 3.1
/// ("the system is clock-synched at beat r").
pub fn all_synced<I>(readings: I) -> Option<u64>
where
    I: IntoIterator<Item = Option<u64>>,
{
    let mut common: Option<u64> = None;
    for r in readings {
        let v = r?;
        match common {
            None => common = Some(v),
            Some(c) if c == v => {}
            Some(_) => return None,
        }
    }
    common
}

/// Steps `sim` until the correct nodes have been clock-synched *and*
/// incrementing for `window` consecutive beats (Definition 3.2), returning
/// the absolute beat at which the stable streak began — the measured
/// convergence time. Returns `None` if `max_beat` is reached first.
///
/// This is the measurement primitive behind every convergence experiment:
/// counting from first equality would under-report (see [`SyncTracker`]).
pub fn run_until_stable_sync<A, Adv>(
    sim: &mut Simulation<A, Adv>,
    max_beat: u64,
    window: u64,
) -> Option<u64>
where
    A: Application + DigitalClock,
    Adv: Adversary<A::Msg>,
{
    let k = sim.correct_apps().next().map(|(_, a)| a.modulus())?;
    let mut tracker = SyncTracker::new(k);
    while sim.beat() < max_beat {
        sim.step();
        tracker.observe(all_synced(sim.correct_apps().map(|(_, a)| a.read())));
        if tracker.streak_len() >= window {
            return Some(sim.beat() - tracker.streak_len());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_iff_all_equal_and_definite() {
        assert_eq!(all_synced([Some(3), Some(3), Some(3)]), Some(3));
        assert_eq!(all_synced([Some(3), Some(4)]), None);
        assert_eq!(all_synced([Some(3), None]), None);
        assert_eq!(all_synced::<[Option<u64>; 0]>([]), None);
    }

    #[test]
    fn tracker_requires_incrementing_values() {
        let mut t = SyncTracker::new(8);
        t.observe(Some(5));
        t.observe(Some(6));
        t.observe(Some(0)); // jump: 6 -> 0 breaks the streak for k = 8
        assert_eq!(t.streak_start(), Some(2));
        assert_eq!(t.streak_len(), 1);
        t.observe(Some(1));
        t.observe(Some(2));
        assert_eq!(t.streak_start(), Some(2));
        assert_eq!(t.streak_len(), 3);
    }

    #[test]
    fn tracker_resets_on_desync() {
        let mut t = SyncTracker::new(4);
        t.observe(Some(0));
        t.observe(Some(1));
        t.observe(None);
        assert_eq!(t.streak_start(), None);
        assert_eq!(t.streak_len(), 0);
        t.observe(Some(3));
        assert_eq!(t.streak_start(), Some(3));
    }

    #[test]
    fn tracker_wraps_modulo_k() {
        let mut t = SyncTracker::new(3);
        for v in [Some(1), Some(2), Some(0), Some(1), Some(2), Some(0)] {
            t.observe(v);
        }
        assert_eq!(t.streak_start(), Some(0));
        assert_eq!(t.streak_len(), 6);
    }

    #[test]
    fn tracker_k1_always_increments() {
        let mut t = SyncTracker::new(1);
        for _ in 0..5 {
            t.observe(Some(0));
        }
        assert_eq!(t.streak_start(), Some(0));
        assert_eq!(t.streak_len(), 5);
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn tracker_rejects_zero_modulus() {
        let _ = SyncTracker::new(0);
    }
}
