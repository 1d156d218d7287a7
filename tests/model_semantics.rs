//! The model of Section 2, asserted end-to-end: private channels, rushing,
//! sender authentication, and the beat-delivery guarantee.

use byzclock::alg::{OracleBeacon, Trit, TwoClock, TwoClockMsg};
use byzclock::coin::{ticket_two_clock, TicketTwoClock};
use byzclock::sim::{
    Adversary, AdversaryView, Application, ByzOutbox, Envelope, NodeId, SimBuilder, Visibility,
    WireFormat,
};

/// An adversary that records what it is allowed to observe.
struct Peeker {
    saw_unicast_between_correct: std::sync::atomic::AtomicBool,
    saw_broadcast_content: std::sync::atomic::AtomicBool,
    tried_forgery: std::sync::atomic::AtomicBool,
}

type Msg = <TicketTwoClock as Application>::Msg;

impl Adversary<Msg> for &Peeker {
    fn act(&mut self, view: &AdversaryView<'_, Msg>, out: &mut ByzOutbox<'_, Msg>) {
        use std::sync::atomic::Ordering;
        for e in view.visible() {
            let to_byz = view.is_byzantine(e.to);
            if !to_byz {
                // Under private channels this must never happen.
                self.saw_unicast_between_correct
                    .store(true, Ordering::Relaxed);
            }
            if matches!(e.msg, TwoClockMsg::Clock(_)) {
                self.saw_broadcast_content.store(true, Ordering::Relaxed);
            }
        }
        // Attempt to forge from a correct sender: must be dropped.
        if !self.tried_forgery.swap(true, Ordering::Relaxed) {
            out.send(
                NodeId::new(0), // correct node
                NodeId::new(1),
                TwoClockMsg::Clock(Trit::Zero),
            );
        }
    }
}

#[test]
fn private_channels_hide_correct_unicasts_but_show_broadcasts() {
    let peeker = Peeker {
        saw_unicast_between_correct: Default::default(),
        saw_broadcast_content: Default::default(),
        tried_forgery: Default::default(),
    };
    {
        let mut sim = SimBuilder::new(7, 2)
            .seed(4)
            .build(ticket_two_clock, &peeker);
        sim.run_beats(10);
        // Forged envelope was counted and dropped.
        let forged: u64 = sim
            .stats()
            .per_beat()
            .iter()
            .map(|b| b.forged_dropped)
            .sum();
        assert_eq!(forged, 1, "exactly one forgery attempt must be recorded");
    }
    use std::sync::atomic::Ordering;
    assert!(
        !peeker.saw_unicast_between_correct.load(Ordering::Relaxed),
        "private channels leaked a correct-to-correct unicast"
    );
    assert!(
        peeker.saw_broadcast_content.load(Ordering::Relaxed),
        "broadcast clock values must be visible to the adversary"
    );
}

#[test]
fn omniscient_mode_sees_everything() {
    let peeker = Peeker {
        saw_unicast_between_correct: Default::default(),
        saw_broadcast_content: Default::default(),
        tried_forgery: Default::default(),
    };
    {
        let mut sim = SimBuilder::new(7, 2)
            .seed(4)
            .visibility(Visibility::Omniscient)
            .build(ticket_two_clock, &peeker);
        sim.run_beats(5);
    }
    use std::sync::atomic::Ordering;
    assert!(
        peeker.saw_unicast_between_correct.load(Ordering::Relaxed),
        "omniscient mode must expose correct-to-correct traffic (GVSS rows/echoes)"
    );
}

/// The delivery guarantee (Def. 2.2(1)): a message sent at beat r is
/// processed the same beat — observable as the 2-clock flipping in
/// lockstep from an agreed state with zero latency.
#[test]
fn same_beat_delivery_drives_lockstep_flip() {
    let beacon = OracleBeacon::perfect(3);
    let mut sim = SimBuilder::new(4, 1).seed(1).build(
        move |cfg, _rng| {
            let mut c = TwoClock::new(cfg, beacon.source(cfg.id));
            c.set_clock(Trit::Zero);
            c
        },
        byzclock::sim::SilentAdversary,
    );
    sim.step();
    assert!(sim.correct_apps().all(|(_, a)| a.clock() == Trit::One));
}

/// The §6.3 bounded-delay extension of Def. 2.2(1): a 1-beat window is
/// exactly same-beat delivery (the lockstep flip still happens), and a
/// wider window records every observed delay inside the window.
#[test]
fn bounded_delay_window_bounds_every_delivery() {
    use byzclock::sim::TimingModel;
    let beacon = OracleBeacon::perfect(3);
    let mut sim = SimBuilder::new(4, 1)
        .seed(1)
        .timing(TimingModel::bounded(1))
        .build(
            move |cfg, _rng| {
                let mut c = TwoClock::new(cfg, beacon.source(cfg.id));
                c.set_clock(Trit::Zero);
                c
            },
            byzclock::sim::SilentAdversary,
        );
    sim.step();
    assert!(
        sim.correct_apps().all(|(_, a)| a.clock() == Trit::One),
        "a 1-beat window must reproduce same-beat delivery"
    );
    assert_eq!(
        sim.delay_histogram(),
        &[12],
        "3 senders x 4 targets, all at delay 0"
    );

    let beacon = OracleBeacon::perfect(3);
    let mut sim = SimBuilder::new(4, 1)
        .seed(1)
        .timing(TimingModel::bounded(3))
        .build(
            move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
            byzclock::sim::SilentAdversary,
        );
    sim.run_beats(50);
    let hist = sim.delay_histogram().to_vec();
    assert_eq!(hist.len(), 3, "no delay outside the 3-beat window");
    assert_eq!(hist.iter().sum::<u64>(), 3 * 4 * 50);
    assert!(
        hist.iter().all(|&c| c > 0),
        "uniform window draws: {hist:?}"
    );
}

/// Envelope payloads are delivered unmodified (Def. 2.2(2)): wire encoding
/// is observational only.
#[test]
fn wire_encoding_does_not_affect_payloads() {
    let msg: Msg = TwoClockMsg::Clock(Trit::Bot);
    let mut buf = bytes::BytesMut::new();
    WireFormat::Fixed.encode_into(&msg, &mut buf);
    assert_eq!(buf.len(), WireFormat::Fixed.len_of(&msg));
    let e = Envelope::new(NodeId::new(0), NodeId::new(1), msg.clone());
    assert_eq!(e.msg, msg);
}
