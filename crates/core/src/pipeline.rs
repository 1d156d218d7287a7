//! `ss-Byz-Coin-Flip` (Fig. 1), generalized: pipelined execution of any
//! fixed-round protocol.
//!
//! The pipeline holds `Δ` staggered instances; at every beat, slot `i`
//! executes round `i` of its instance, the slot-`Δ-1` instance terminates
//! and yields the beat's output, every instance shifts one slot up, and a
//! fresh instance enters slot 0. Starting from *any* state — arbitrary
//! garbage in every slot — all slots hold properly initialized instances
//! after `Δ` beats, which is exactly Lemma 1's convergence argument.
//!
//! **Sessions without counters.** The paper differentiates co-executing
//! instances with recyclable session numbers. Because every correct node
//! shifts its pipeline at every beat, an instance's *slot index* is already
//! a beat-synchronized session tag: all correct nodes' slot-`i` instances
//! were created the same beat. Messages carry the slot index ([`SlotMsg`])
//! and nothing unbounded, so the tagging is itself self-stabilizing.
//!
//! The same pipeline also drives the deterministic baseline
//! (`byzclock-baselines`): pipelining Byzantine-agreement instances over
//! predicted clock values is the §6.2 transformation with a deterministic
//! inner protocol.
//!
//! **Lockstep only.** The pipeline equates the driver's beat index with
//! the round index, which is only sound in the paper's global-beat model
//! (every message arrives the beat it was sent). The one bounded-delay
//! protocol, [`crate::BdClock`], does not run instances at all: its clock
//! value is the round index of a round-tag wheel that advances on `n − f`
//! quorums (see its module docs).

use crate::round::RoundProtocol;
use byzclock_sim::{NodeId, SimRng, Target, Wire, WireFormat, WireReader, WireWriter};
use std::collections::VecDeque;

/// A pipelined instance's message, tagged with the slot (= round) index it
/// belongs to this beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMsg<M> {
    /// Which pipeline slot (equivalently: which round of the instance in
    /// that slot) this message belongs to.
    pub slot: u8,
    /// The instance-level payload.
    pub msg: M,
}

impl<M: Wire> Wire for SlotMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_tagged(self.slot, &self.msg, format);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        Some(SlotMsg {
            slot: r.u8()?,
            msg: M::decode(format, r)?,
        })
    }
}

/// A pipeline of `Δ` staggered [`RoundProtocol`] instances (Fig. 1).
#[derive(Debug)]
pub struct Pipeline<P: RoundProtocol> {
    /// `slots[i]` executes round `i` this beat; `slots.len() == Δ`.
    slots: VecDeque<P>,
    /// [`RoundProtocol::metrics`] summed over every retired instance,
    /// keyed in first-seen order. Instrumentation: survives `corrupt`
    /// (like the traffic stats, it observes the run rather than being
    /// protocol state).
    retired_metrics: Vec<(&'static str, f64)>,
    /// `send`'s buffer for one slot's messages, kept for its capacity.
    sends: Vec<(Target, P::Msg)>,
    /// `deliver`'s per-slot inboxes, kept for their capacity; empty
    /// between beats, so no payload outlives its beat.
    per_slot: Vec<Vec<(NodeId, P::Msg)>>,
}

impl<P: RoundProtocol> Pipeline<P> {
    /// Builds a pipeline of `rounds` fresh instances.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `rounds > 255` (slots are tagged with a
    /// `u8` on the wire).
    pub fn new(rounds: usize, mut spawn: impl FnMut() -> P) -> Self {
        assert!(rounds >= 1, "a pipeline needs at least one slot");
        assert!(rounds <= 255, "slot tags are u8");
        Pipeline {
            slots: (0..rounds).map(|_| spawn()).collect(),
            retired_metrics: Vec::new(),
            sends: Vec::new(),
            per_slot: (0..rounds).map(|_| Vec::new()).collect(),
        }
    }

    /// Pipeline depth `Δ`.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// The instance currently in `slot` (for inspection in tests).
    pub fn slot(&self, slot: usize) -> &P {
        &self.slots[slot]
    }

    /// Beat send step: every slot emits its round's messages, tagged.
    pub fn send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, SlotMsg<P::Msg>)>) {
        for (i, inst) in self.slots.iter_mut().enumerate() {
            inst.send_round(i, rng, &mut self.sends);
            for (target, msg) in self.sends.drain(..) {
                out.push((target, SlotMsg { slot: i as u8, msg }));
            }
        }
    }

    /// Beat deliver step: routes messages to slots by tag, completes the
    /// oldest instance, shifts, and spawns a fresh instance into slot 0.
    /// Returns the completed instance's output — the pipeline's output for
    /// this beat (Fig. 1 line 2).
    ///
    /// `spawn` receives this beat's output so pipelines whose next input
    /// depends on the last result (the deterministic consensus clocks) can
    /// chain instances.
    ///
    /// `inbox` holds `(sender, message)` pairs sorted by sender; at most the
    /// first message per `(sender, slot)` pair is considered, so a
    /// Byzantine node cannot stuff a round.
    pub fn deliver(
        &mut self,
        inbox: &[(NodeId, SlotMsg<P::Msg>)],
        rng: &mut SimRng,
        spawn: impl FnOnce(&mut SimRng, &P::Output) -> P,
    ) -> P::Output {
        let depth = self.slots.len();
        let per_slot = &mut self.per_slot;
        for (from, slot_msg) in inbox {
            let slot = usize::from(slot_msg.slot);
            if slot >= depth {
                continue; // out-of-range tag: garbage or corruption
            }
            // One message per (sender, slot): drop duplicates. The inbox
            // is sorted by sender, so a duplicate can only sit at the tail
            // of its slot's list — an O(1) check instead of an O(n) rescan
            // per message.
            if per_slot[slot]
                .last()
                .is_some_and(|&(prev, _)| prev == *from)
            {
                continue;
            }
            per_slot[slot].push((*from, slot_msg.msg.clone()));
        }
        for ((i, inst), msgs) in self.slots.iter_mut().enumerate().zip(per_slot) {
            inst.recv_round(i, msgs, rng);
            msgs.clear();
        }
        let finished = self.slots.pop_back().expect("pipeline is never empty");
        crate::round::merge_metrics(&mut self.retired_metrics, finished.metrics());
        let output = finished.output();
        self.slots.push_front(spawn(rng, &output));
        output
    }

    /// [`RoundProtocol::metrics`] summed over every instance this pipeline
    /// has retired, in first-seen key order.
    pub fn retired_metrics(&self) -> &[(&'static str, f64)] {
        &self.retired_metrics
    }

    /// Transient fault: scramble every slot's instance state. The pipeline
    /// *structure* (depth, shifting) is code and survives; Lemma 1 then
    /// gives recovery within `Δ` beats.
    pub fn corrupt(&mut self, rng: &mut SimRng) {
        for inst in &mut self.slots {
            inst.corrupt(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::testutil::{XorTestProto, XorTestScheme};
    use crate::round::CoinScheme;
    use rand::SeedableRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(7)
    }

    fn pipeline(scheme: &XorTestScheme, rng: &mut SimRng) -> Pipeline<XorTestProto> {
        Pipeline::new(scheme.rounds(), || scheme.spawn(rng))
    }

    #[test]
    fn slots_execute_their_own_round_index() {
        let scheme = XorTestScheme {
            rounds: 4,
            quorum: 1,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        let mut out = Vec::new();
        p.send(&mut rng, &mut out);
        let slots: Vec<u8> = out.iter().map(|(_, m)| m.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        // Each instance recorded exactly the round matching its slot.
        for (i, inst) in (0..4).map(|i| (i, p.slot(i))) {
            assert_eq!(inst.sent_rounds(), &[i]);
        }
    }

    #[test]
    fn an_instance_advances_one_round_per_beat() {
        let scheme = XorTestScheme {
            rounds: 3,
            quorum: 1,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        for _ in 0..2 {
            let mut out = Vec::new();
            p.send(&mut rng, &mut out);
            let spawn_scheme = scheme.clone();
            p.deliver(&[], &mut rng, move |r, _| spawn_scheme.spawn(r));
        }
        // An original instance has aged two slots: it sent round 0 as slot 0
        // (beat 1) and round 1 as slot 1 (beat 2), and now sits in slot 2.
        assert_eq!(p.slot(2).sent_rounds(), &[0, 1]);
        // The instance born at the first deliver sent round 0 during beat 2.
        assert_eq!(p.slot(1).sent_rounds(), &[0]);
        // Fresh slot-0 instance (born at the second deliver) has sent nothing.
        assert_eq!(p.slot(0).sent_rounds(), &[] as &[usize]);
    }

    #[test]
    fn duplicate_and_garbage_slots_are_dropped() {
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 4,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        let a = NodeId::new(0);
        let inbox = vec![
            (a, SlotMsg { slot: 1, msg: true }),
            (
                a,
                SlotMsg {
                    slot: 1,
                    msg: false,
                },
            ), // duplicate from same sender
            (a, SlotMsg { slot: 9, msg: true }), // out-of-range tag
        ];
        // quorum 4 XOR over at most 1 accepted message => acc = true.
        let out = p.deliver(&inbox, &mut rng, |r, _| scheme.spawn(r));
        assert!(out);
    }

    #[test]
    fn output_comes_from_the_retiring_slot() {
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 1,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        let sender = NodeId::new(3);
        // Feed slot 1 (the retiring one) a deterministic bit.
        let inbox = vec![
            (sender, SlotMsg { slot: 1, msg: true }),
            (
                sender,
                SlotMsg {
                    slot: 0,
                    msg: false,
                },
            ),
        ];
        let out = p.deliver(&inbox, &mut rng, |r, _| scheme.spawn(r));
        assert!(out, "slot 1 received `true` and XOR over quorum 1 is true");
    }

    #[test]
    fn corruption_heals_within_depth_beats() {
        // Lemma 1: after Δ beats every slot holds a fresh instance.
        let scheme = XorTestScheme {
            rounds: 3,
            quorum: 1,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        p.corrupt(&mut rng);
        for _ in 0..3 {
            let mut out = Vec::new();
            p.send(&mut rng, &mut out);
            p.deliver(&[], &mut rng, |r, _| scheme.spawn(r));
        }
        // All slots were spawned after the corruption: their sent_rounds
        // histories are exactly the rounds of their slot positions.
        for i in 0..3 {
            let expected: Vec<usize> = (0..i).collect();
            assert_eq!(p.slot(i).sent_rounds(), &expected[..]);
        }
    }

    #[test]
    fn retired_metrics_accumulate_across_instances() {
        let scheme = XorTestScheme {
            rounds: 2,
            quorum: 1,
        };
        let mut rng = rng();
        let mut p = pipeline(&scheme, &mut rng);
        assert!(p.retired_metrics().is_empty());
        for _ in 0..3 {
            let mut out = Vec::new();
            p.send(&mut rng, &mut out);
            p.deliver(&[], &mut rng, |r, _| scheme.spawn(r));
        }
        // Three retirees, each having sent: 2 rounds (a boot instance that
        // pre-dated beat 1 sends only its slot-1 round), so 1 + 2 + 2.
        let metrics = p.retired_metrics().to_vec();
        assert_eq!(
            metrics,
            vec![("xor_instances", 3.0), ("xor_sent_rounds", 5.0)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_rejected() {
        let scheme = XorTestScheme {
            rounds: 1,
            quorum: 1,
        };
        let mut rng = rng();
        let _ = Pipeline::new(0, || scheme.spawn(&mut rng));
    }

    #[test]
    fn slot_msg_wire_size() {
        let m = SlotMsg { slot: 2, msg: 7u64 };
        assert_eq!(WireFormat::Fixed.len_of(&m), 9);
    }
}
