//! Message envelopes and send targets.

use crate::NodeId;

/// A message in flight: sender, recipient, round tag, payload.
///
/// The simulator stamps `from` itself for correct nodes — the network is
/// authenticated (Def. 2.2(2) of the paper), so a Byzantine node can only
/// forge envelopes from *its own* identity.
///
/// # The round tag
///
/// `round` is the beat the sender *claims* to have sent the message in.
/// For correct nodes the runner stamps the true beat, so under a delayed
/// timing model a receiver can classify traffic as on-time or late instead
/// of assuming everything in its inbox belongs to the current beat. The
/// tag is claimed metadata, not payload: it costs no wire bytes (traffic
/// accounting is unchanged), Byzantine senders may lie about it freely
/// ([`crate::ByzOutbox::send_tagged`]), and phantom replays resurface with
/// arbitrary tags — so protocols must treat it as a hint, never as
/// authenticated truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender identity (authenticated by the network).
    pub from: NodeId,
    /// Recipient identity.
    pub to: NodeId,
    /// The beat the sender claims this message was sent in (stamped
    /// truthfully by the runner for correct nodes; arbitrary for Byzantine
    /// senders and phantoms).
    pub round: u64,
    /// Payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// An envelope tagged with round 0 — the pre-tag constructor shape,
    /// for tests and callers that re-wrap sub-protocol inboxes.
    pub fn new(from: NodeId, to: NodeId, msg: M) -> Self {
        Envelope {
            from,
            to,
            round: 0,
            msg,
        }
    }

    /// The same envelope with a different payload, all metadata (sender,
    /// recipient, round tag) preserved — the demultiplexing helper for
    /// layered protocols that unwrap an envelope and hand the inner
    /// message to a sub-protocol.
    pub fn map<N>(&self, msg: N) -> Envelope<N> {
        Envelope {
            from: self.from,
            to: self.to,
            round: self.round,
            msg,
        }
    }
}

/// Addressing mode for an outgoing message.
///
/// The paper's footnote: "broadcast" means *send the message to all nodes*
/// — there are no broadcast channels, so a broadcast is accounted as `n`
/// unicasts (the sender included, which keeps the `n`-entry vote vectors of
/// Observation 3.1 literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Send to every node, including the sender itself.
    All,
    /// Send to one node.
    One(NodeId),
}

/// Calls `f(from, to, msg)` once per envelope the per-sender send lists
/// stand for — a broadcast is `n` of them — in (sender, emission,
/// recipient) order: the one order the adversary's view, the delay draws,
/// the history ring and the inboxes all follow.
pub(crate) fn for_each_send<M>(
    sends: &[Vec<(Target, M)>],
    n: usize,
    mut f: impl FnMut(NodeId, NodeId, &M),
) {
    for (from, sends) in sends.iter().enumerate() {
        let from = NodeId::new(from as u16);
        for (target, msg) in sends {
            match *target {
                Target::One(to) => f(from, to, msg),
                Target::All => (0..n as u16).for_each(|to| f(from, NodeId::new(to), msg)),
            }
        }
    }
}

/// A correct node's envelope: the runner authenticates `from` and stamps
/// the true send beat as the round tag.
pub(crate) fn correct_envelope<M: Clone>(
    from: NodeId,
    to: NodeId,
    beat: u64,
    msg: &M,
) -> Envelope<M> {
    Envelope {
        from,
        to,
        round: beat,
        msg: msg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope {
            from: NodeId::new(1),
            to: NodeId::new(2),
            round: 7,
            msg: 42u64,
        };
        let e2 = e.clone();
        assert_eq!(e, e2);
        assert!(format!("{e:?}").contains("42"));
    }

    #[test]
    fn map_preserves_metadata() {
        let e = Envelope {
            from: NodeId::new(1),
            to: NodeId::new(2),
            round: 9,
            msg: 42u64,
        };
        let inner = e.map("payload");
        assert_eq!(inner.from, e.from);
        assert_eq!(inner.to, e.to);
        assert_eq!(inner.round, 9, "demultiplexing keeps the round tag");
        assert_eq!(inner.msg, "payload");
        assert_eq!(Envelope::new(NodeId::new(0), NodeId::new(1), ()).round, 0);
    }
}
