//! Traffic accounting.
//!
//! Message complexity is one of the claims reproduced by experiment M1
//! (constant overhead of `ss-Byz-Clock-Sync` vs. the `log k` and `O(f)`
//! pipelines), so the simulator counts both envelopes and encoded bytes,
//! split by correct and Byzantine senders.

/// Traffic totals for one beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BeatTraffic {
    /// Envelopes sent by correct nodes.
    pub correct_msgs: u64,
    /// Encoded payload bytes sent by correct nodes.
    pub correct_bytes: u64,
    /// Envelopes sent by Byzantine nodes.
    pub byz_msgs: u64,
    /// Encoded payload bytes sent by Byzantine nodes.
    pub byz_bytes: u64,
    /// Envelopes the adversary tried to forge from non-Byzantine senders
    /// (dropped by the authenticated network).
    pub forged_dropped: u64,
    /// Phantom envelopes injected by fault events.
    pub phantom_msgs: u64,
}

impl BeatTraffic {
    /// Total delivered envelopes this beat.
    pub fn total_msgs(&self) -> u64 {
        self.correct_msgs + self.byz_msgs + self.phantom_msgs
    }
}

/// Per-beat traffic history for a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    beats: Vec<BeatTraffic>,
}

impl TrafficStats {
    pub(crate) fn begin_beat(&mut self) {
        self.beats.push(BeatTraffic::default());
    }

    pub(crate) fn current(&mut self) -> &mut BeatTraffic {
        self.beats
            .last_mut()
            .expect("begin_beat precedes accounting")
    }

    /// Traffic of every completed beat, oldest first.
    pub fn per_beat(&self) -> &[BeatTraffic] {
        &self.beats
    }

    /// Mean correct-node envelopes per beat over the whole run.
    pub fn mean_correct_msgs_per_beat(&self) -> f64 {
        if self.beats.is_empty() {
            return 0.0;
        }
        self.beats
            .iter()
            .map(|b| b.correct_msgs as f64)
            .sum::<f64>()
            / self.beats.len() as f64
    }

    /// Mean correct-node payload bytes per beat over the whole run.
    pub fn mean_correct_bytes_per_beat(&self) -> f64 {
        if self.beats.is_empty() {
            return 0.0;
        }
        self.beats
            .iter()
            .map(|b| b.correct_bytes as f64)
            .sum::<f64>()
            / self.beats.len() as f64
    }

    /// Sum of all correct-node envelopes.
    pub fn total_correct_msgs(&self) -> u64 {
        self.beats.iter().map(|b| b.correct_msgs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_accumulates() {
        let mut stats = TrafficStats::default();
        stats.begin_beat();
        stats.current().correct_msgs += 10;
        stats.current().correct_bytes += 100;
        stats.begin_beat();
        stats.current().correct_msgs += 20;
        stats.current().byz_msgs += 5;
        assert_eq!(stats.per_beat().len(), 2);
        assert_eq!(stats.total_correct_msgs(), 30);
        assert!((stats.mean_correct_msgs_per_beat() - 15.0).abs() < 1e-9);
        assert!((stats.mean_correct_bytes_per_beat() - 50.0).abs() < 1e-9);
        assert_eq!(stats.per_beat()[1].total_msgs(), 25);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = TrafficStats::default();
        assert_eq!(stats.mean_correct_msgs_per_beat(), 0.0);
        assert_eq!(stats.total_correct_msgs(), 0);
    }
}
