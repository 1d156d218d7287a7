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
    /// for tests and drivers that hand a protocol a hand-built inbox (the
    /// model checker's single-beat steps).
    pub fn new(from: NodeId, to: NodeId, msg: M) -> Self {
        Envelope {
            from,
            to,
            round: 0,
            msg,
        }
    }

    /// The same envelope with a different payload, all metadata (sender,
    /// recipient, round tag) preserved — how the runner swaps in the
    /// re-parsed payload at a byte boundary.
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

/// Where one phase's send lists put each recipient's traffic: the
/// `(sender, emission)` position of every broadcast, and per recipient the
/// positions of the unicasts addressed to it, all in (sender, emission)
/// order. One pass over the send lists fills it into recycled buffers, so
/// reading a recipient's share afterwards costs what that recipient is
/// delivered, not a walk over every send.
#[derive(Debug)]
pub(crate) struct SendIndex {
    broadcasts: Vec<(u16, u32)>,
    /// `unicasts[to]`; empty for a recipient the index was told to skip.
    unicasts: Vec<Vec<(u16, u32)>>,
}

impl SendIndex {
    /// An empty index over recipients `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        SendIndex {
            broadcasts: Vec::new(),
            unicasts: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Re-indexes `sends`. Unicasts to `skip`ped recipients (`skip[to]`)
    /// and to ids outside the cluster are left out: nobody reads them.
    pub(crate) fn build<M>(&mut self, sends: &[Vec<(Target, M)>], skip: &[bool]) {
        self.broadcasts.clear();
        self.unicasts.iter_mut().for_each(Vec::clear);
        for (from, sends) in sends.iter().enumerate() {
            for (emission, (target, _)) in sends.iter().enumerate() {
                let at = (from as u16, emission as u32);
                match *target {
                    Target::All => self.broadcasts.push(at),
                    Target::One(to) => {
                        if !skip.get(to.index()).copied().unwrap_or(true) {
                            self.unicasts[to.index()].push(at);
                        }
                    }
                }
            }
        }
    }

    /// Calls `f(from, msg)` for every send in `sends` (the lists the index
    /// was built from) addressed to `to`, in (sender, emission) order: the
    /// broadcasts and `to`'s unicasts, merged.
    pub(crate) fn for_each_to<'s, M>(
        &self,
        sends: &'s [Vec<(Target, M)>],
        to: NodeId,
        mut f: impl FnMut(NodeId, &'s M),
    ) {
        let (mut all, mut one) = (
            self.broadcasts.as_slice(),
            self.unicasts[to.index()].as_slice(),
        );
        loop {
            let (from, emission) = match (all.split_first(), one.split_first()) {
                (Some((&a, rest)), Some((&b, _))) if a < b => {
                    all = rest;
                    a
                }
                (_, Some((&b, rest))) => {
                    one = rest;
                    b
                }
                (Some((&a, rest)), None) => {
                    all = rest;
                    a
                }
                (None, None) => return,
            };
            f(
                NodeId::new(from),
                &sends[from as usize][emission as usize].1,
            );
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

    /// Per recipient, the index yields exactly the sends `for_each_send`
    /// addresses to it, in the same order; skipped and out-of-range
    /// unicast recipients get nothing indexed.
    #[test]
    fn send_index_reads_each_recipient_in_send_order() {
        let one = |to: u16| Target::One(NodeId::new(to));
        let sends = vec![
            vec![(one(2), 0u64), (Target::All, 1), (one(0), 2), (one(9), 3)],
            vec![],
            vec![(Target::All, 4), (one(2), 5), (one(3), 6), (Target::All, 7)],
            vec![(one(2), 8), (one(2), 9)],
        ];
        let skip = [false, false, false, true];
        let mut index = SendIndex::new(4);
        // Build twice: the second build must not see the first's entries.
        index.build(&sends, &skip);
        index.build(&sends, &skip);
        for to in 0..4u16 {
            let to = NodeId::new(to);
            let mut want = Vec::new();
            for_each_send(&sends, 4, |from, t, msg| {
                if t == to {
                    want.push((from, *msg));
                }
            });
            let mut got = Vec::new();
            index.for_each_to(&sends, to, |from, msg| got.push((from, *msg)));
            if skip[to.index()] {
                // Only the broadcasts (payloads 1, 4 and 7) are indexed.
                want.retain(|&(_, msg)| [1, 4, 7].contains(&msg));
            }
            assert_eq!(got, want, "recipient {to:?}");
        }
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
