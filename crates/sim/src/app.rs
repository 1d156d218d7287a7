//! The node-side protocol contract.

use crate::{Envelope, NodeId, SimRng, Target, Wire};

/// A protocol stack running on one correct node.
///
/// The simulator drives each beat through `phases()` exchange phases; in
/// every phase it first calls [`Application::send`] on all correct nodes,
/// then lets the adversary inject Byzantine traffic, then calls
/// [`Application::deliver`] with everything addressed to this node. A
/// message sent in phase `p` of beat `r` is delivered in phase `p` of beat
/// `r` — "before the next beat" in the paper's terms, with multi-phase
/// beats modelling the paper's sequential in-beat exchanges (Fig. 3 line 2,
/// Fig. 4 step 3).
///
/// **Self-stabilization contract**: [`Application::corrupt`] must overwrite
/// every *state* variable with an arbitrary value of its type (using the
/// supplied RNG). Static configuration — `n`, `f`, the node id, protocol
/// constants — is "part of the code" (Remark 2.1) and must survive.
pub trait Application {
    /// The message type exchanged by this protocol stack.
    type Msg: Clone + std::fmt::Debug + Wire;

    /// Number of exchange phases per beat (constant per protocol).
    fn phases(&self) -> usize {
        1
    }

    /// Called on every correct node at the top of each beat, before any
    /// phase's [`Application::send`], with the runner's global beat index.
    /// Protocols whose behaviour depends on the beat (e.g. rotating coin
    /// committees) override this; the default is a no-op. The beat index is
    /// runner-owned configuration, not node state: [`Application::corrupt`]
    /// does not scramble it, and the next `begin_beat` call re-synchronizes
    /// every correct node regardless of prior state.
    fn begin_beat(&mut self, _beat: u64) {}

    /// Emit this node's messages for the given phase of the current beat.
    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>);

    /// Process the messages delivered to this node in the given phase.
    /// `inbox` is sorted by sender id; a sender appears zero or more times.
    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng);

    /// Transient fault: scramble all protocol state arbitrarily.
    fn corrupt(&mut self, rng: &mut SimRng);

    /// Unused: the runner steps every node serially and never calls this.
    /// The declaration remains only because the stand-alone `benchmark/`
    /// package still forwards it; ROADMAP item 2 deletes it together with
    /// that forward.
    fn parallel_safe(&self) -> bool {
        false
    }
}

/// Collects one node's outgoing messages for a phase.
///
/// The send buffer is owned by the runner and recycled across beats — a
/// steady-state send phase performs no allocation once the buffer has
/// grown to the protocol's working size.
pub struct Outbox<'a, M> {
    sends: &'a mut Vec<(Target, M)>,
    rng: &'a mut SimRng,
}

impl<'a, M> Outbox<'a, M> {
    pub(crate) fn new(sends: &'a mut Vec<(Target, M)>, rng: &'a mut SimRng) -> Self {
        sends.clear();
        Outbox { sends, rng }
    }

    /// Queue a unicast.
    pub fn unicast(&mut self, to: NodeId, msg: M) {
        self.sends.push((Target::One(to), msg));
    }

    /// Queue a broadcast — delivered to *all* nodes, the sender included
    /// (the paper counts the sender's own value among the `n` entries).
    pub fn broadcast(&mut self, msg: M) {
        self.sends.push((Target::All, msg));
    }

    /// Queue a `(target, msg)` pair a protocol collected itself.
    pub fn push(&mut self, target: Target, msg: M) {
        self.sends.push((target, msg));
    }

    /// The node's deterministic RNG, for protocols that randomize at send
    /// time (e.g. the coin's dealing round).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// Runs one send phase of `app` outside a [`crate::Simulation`], returning
/// the collected `(target, message)` pairs.
///
/// This is the enumerable single-beat driver seam: the seeded runner owns
/// its send buffers privately, but a model checker (or any exhaustive
/// driver) needs to execute one phase of one node at a time, branch on
/// every adversary/coin alternative, and inspect the messages in between.
/// Delivery needs no counterpart — [`Application::deliver`] already takes
/// the inbox as a plain argument.
pub fn collect_sends<A: Application>(
    app: &mut A,
    phase: usize,
    rng: &mut SimRng,
) -> Vec<(Target, A::Msg)> {
    let mut sends = Vec::new();
    let mut out = Outbox::new(&mut sends, rng);
    app.send(phase, &mut out);
    sends
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn outbox_collects_in_order_and_recycles_its_buffer() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut buf = vec![(Target::All, 99u64)]; // stale content from a prior phase
        {
            let mut out = Outbox::new(&mut buf, &mut rng);
            out.broadcast(1u64);
            out.unicast(NodeId::new(2), 2u64);
        }
        assert_eq!(buf.len(), 2, "stale sends cleared on reuse");
        assert_eq!(buf[0], (Target::All, 1));
        assert_eq!(buf[1], (Target::One(NodeId::new(2)), 2));
    }
}
