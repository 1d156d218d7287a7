//! Round-based protocol instances — the unit the Fig. 1 pipeline staggers.
//!
//! A [`RoundProtocol`] is *specified* synchronously (round `r` = one send
//! plus one receive), but deliberately never drives itself: the round
//! index always comes from the driver, [`crate::Pipeline`], whose beat
//! index is the round index — `Δ` staggered instances advance one round
//! per beat, exactly the paper's global-beat model.

use byzclock_sim::{NodeId, SimRng, Target, Wire};
use std::fmt;

/// A synchronous protocol instance that runs for a fixed number of rounds
/// and then yields an output.
///
/// Round `r` of an instance consists of one send and one receive within
/// the same beat of the lockstep driver ([`crate::Pipeline`]). The
/// *driver* owns the round index; an
/// instance must trust the index it is given rather than an internal
/// counter, which is what makes pipelined execution self-stabilizing: a
/// corrupted instance emits garbage for at most its remaining rounds and is
/// then retired.
pub trait RoundProtocol {
    /// Message type of one instance.
    type Msg: Clone + fmt::Debug + Wire;
    /// What the instance produces after its last round.
    type Output;

    /// Emit the messages of round `round` (0-based).
    fn send_round(&mut self, round: usize, rng: &mut SimRng, out: &mut Vec<(Target, Self::Msg)>);

    /// Process the messages received in round `round`. `inbox` holds at
    /// most one message per sender (the pipeline deduplicates).
    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, Self::Msg)], rng: &mut SimRng);

    /// The instance's output; meaningful after `recv_round` of the final
    /// round, arbitrary-but-well-defined before that (self-stabilization:
    /// a freshly corrupted instance must still answer).
    fn output(&self) -> Self::Output;

    /// Transient fault: scramble all instance state.
    fn corrupt(&mut self, rng: &mut SimRng);

    /// Named instrumentation counters of this instance, sampled when the
    /// driver retires it (e.g. the GVSS coin's recover-round decode batch
    /// sizes). Purely observational — drivers sum them across retired
    /// instances ([`crate::Pipeline::retired_metrics`]) and scenarios can
    /// surface the totals in report extras; protocol behavior must never
    /// read them. The default is no metrics.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Sums `from` into `into`, matching by key (first-seen order preserved) —
/// the one merge rule for instrumentation counters, shared by the pipeline
/// (summing retired instances) and the clock adapters (summing several
/// coin pipelines into one report).
pub fn merge_metrics(into: &mut Vec<(&'static str, f64)>, from: Vec<(&'static str, f64)>) {
    for (key, value) in from {
        match into.iter_mut().find(|(k, _)| *k == key) {
            Some((_, acc)) => *acc += value,
            None => into.push((key, value)),
        }
    }
}

/// A factory for [`RoundProtocol`] instances of a common-coin protocol `A`
/// in the sense of Definition 2.6: every instance runs for exactly
/// [`CoinScheme::rounds`] rounds (`Δ_A`) and outputs a bit.
///
/// The scheme itself is *code* (cluster constants, field modulus), not
/// state; it is cloned freely and never corrupted.
pub trait CoinScheme: Clone {
    /// The per-instance protocol type.
    type Proto: RoundProtocol<Output = bool>;

    /// `Δ_A`: rounds per instance, also the pipeline depth and the
    /// stabilization time of `ss-Byz-Coin-Flip` (Lemma 1).
    fn rounds(&self) -> usize;

    /// Creates a fresh, properly initialized instance.
    fn spawn(&self, rng: &mut SimRng) -> Self::Proto;

    /// Observes the runner's global beat index, forwarded from
    /// [`byzclock_sim::Application::begin_beat`] before any send of the
    /// beat. Schemes whose spawned instances depend on the beat (the
    /// committee coin's rotation schedule) override this; beat-oblivious
    /// schemes keep the no-op default.
    fn begin_beat(&mut self, _beat: u64) {}
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A deterministic toy coin for pipeline tests: at round `rounds - 1`
    /// every node broadcasts its locally drawn bit and outputs the XOR of
    /// the first `quorum` received bits. Not Byzantine tolerant — it exists
    /// to make pipeline slot arithmetic observable.
    #[derive(Clone)]
    pub struct XorTestScheme {
        pub rounds: usize,
        pub quorum: usize,
    }

    #[derive(Debug)]
    pub struct XorTestProto {
        quorum: usize,
        my_bit: bool,
        acc: bool,
        sent_rounds: Vec<usize>,
        recv_rounds: Vec<usize>,
    }

    impl RoundProtocol for XorTestProto {
        type Msg = bool;
        type Output = bool;

        fn send_round(&mut self, round: usize, _rng: &mut SimRng, out: &mut Vec<(Target, bool)>) {
            self.sent_rounds.push(round);
            out.push((Target::All, self.my_bit));
        }

        fn recv_round(&mut self, round: usize, inbox: &[(NodeId, bool)], _rng: &mut SimRng) {
            self.recv_rounds.push(round);
            self.acc = inbox
                .iter()
                .take(self.quorum)
                .fold(false, |acc, &(_, b)| acc ^ b);
        }

        fn output(&self) -> bool {
            self.acc
        }

        fn corrupt(&mut self, rng: &mut SimRng) {
            use rand::Rng;
            self.my_bit = rng.random();
            self.acc = rng.random();
        }

        fn metrics(&self) -> Vec<(&'static str, f64)> {
            vec![
                ("xor_instances", 1.0),
                ("xor_sent_rounds", self.sent_rounds.len() as f64),
            ]
        }
    }

    impl CoinScheme for XorTestScheme {
        type Proto = XorTestProto;

        fn rounds(&self) -> usize {
            self.rounds
        }

        fn spawn(&self, rng: &mut SimRng) -> XorTestProto {
            use rand::Rng;
            XorTestProto {
                quorum: self.quorum,
                my_bit: rng.random(),
                acc: false,
                sent_rounds: Vec::new(),
                recv_rounds: Vec::new(),
            }
        }
    }

    impl XorTestProto {
        pub fn sent_rounds(&self) -> &[usize] {
            &self.sent_rounds
        }

        #[allow(dead_code)]
        pub fn recv_rounds(&self) -> &[usize] {
            &self.recv_rounds
        }
    }
}
