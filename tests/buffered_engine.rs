//! `bd-clock`'s round-tag wheel seen from outside: a Byzantine sender
//! lying about round tags cannot stall quorum ticks, a quorum that lands
//! on the expiry beat wins over the timeout rules, and under bounded
//! delay the wheel keeps ticking where a beat-indexed tag count stalls.

use byzclock::alg::{
    all_synced, BdClock, BdClockMsg, BdSnapshot, DigitalClock, FixedRand, OracleBeacon, RandSource,
    RoundMsg,
};
use byzclock::sim::{
    Adversary, AdversaryView, Application, ByzOutbox, Envelope, NodeCfg, NodeId, Outbox,
    SilentAdversary, SimBuilder, SimRng, TimingModel,
};
use rand::SeedableRng;

fn metric(app: &BdClock<impl RandSource<Msg = ()>>, name: &str) -> f64 {
    app.metrics()
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .unwrap()
}

/// A Byzantine strategy built entirely out of round-tag lies: every beat
/// each Byzantine node stuffs duplicate messages for every wheel slot,
/// claims out-of-range tags, lies about the envelope send beat, and
/// scatters copies across the delivery window.
struct TagChaos;

impl Adversary<BdClockMsg> for TagChaos {
    fn act(&mut self, view: &AdversaryView<'_, BdClockMsg>, out: &mut ByzOutbox<'_, BdClockMsg>) {
        for &b in view.byzantine() {
            for to in view.all_ids() {
                for tag in 0..8u8 {
                    // Duplicate stuffing: several copies per (sender, tag).
                    for copy in 0..2u64 {
                        out.send_tagged_after(
                            b,
                            to,
                            RoundMsg {
                                round: tag,
                                msg: (),
                            },
                            view.beat().wrapping_add(1_000), // claimed beat: a lie
                            copy % view.delay_window(),
                        );
                    }
                }
                out.send(
                    b,
                    to,
                    RoundMsg {
                        round: 255,
                        msg: (),
                    },
                ); // garbage tag
            }
        }
    }
}

/// Byzantine round-tag lies cannot stall quorum ticks: with `n - f`
/// correct nodes announcing honestly under bounded delay, the clock keeps
/// ticking once per beat, and the liars only populate the drop counters.
#[test]
fn tag_lies_cannot_stall_quorum_advancement() {
    for seed in 0..3u64 {
        let window = 2u64;
        let beats = 200u64;
        let beacon = OracleBeacon::perfect(seed);
        let mut sim = SimBuilder::new(7, 2)
            .seed(seed)
            .timing(TimingModel::bounded(window))
            .build(
                move |cfg, _rng| BdClock::new(cfg, 8, window, beacon.source(cfg.id)),
                TagChaos,
            );
        sim.run_beats(beats);
        let synced = all_synced(sim.correct_apps().map(|(_, a)| a.read()));
        assert_eq!(synced, Some(beats % 8), "seed {seed}: one tick per beat");
        for (id, app) in sim.correct_apps() {
            let metrics = app.metrics();
            // The point of the test: advancement stays quorum-driven — the
            // 5 correct announcements always arrive within the window, so
            // the adversary's tags never force the timeout rules to carry
            // the clock.
            assert_eq!(
                metric(app, "bd_quorum_ticks"),
                beats as f64,
                "node {id}: {metrics:?}"
            );
            assert_eq!(
                metric(app, "bd_timeout_events"),
                0.0,
                "node {id}: {metrics:?}"
            );
            // And the lies are visibly absorbed, not silently accepted:
            // more drops than the garbage tags alone account for.
            assert!(
                metric(app, "bd_dropped_invalid") > (2 * beats) as f64,
                "node {id}: {metrics:?}"
            );
        }
    }
}

/// One node restored to round 0 with `beats_waiting` one short of the
/// window and no support, over a coin that always says 1.
fn node_one_beat_before_expiry(window: u64) -> BdClock<FixedRand> {
    let coin = FixedRand::new();
    coin.set(true);
    let mut node = BdClock::new(NodeCfg::new(NodeId::new(0), 4, 1), 8, window, coin);
    node.mc_restore(&BdSnapshot {
        round: 0,
        beats_waiting: window - 1,
        pending_send: false,
        resend: false,
        wheel: Vec::new(),
        evidence: Vec::new(),
        beat: 10,
    });
    node
}

fn tag_envelopes(
    senders: std::ops::Range<u16>,
    tag: u8,
    claimed: u64,
) -> Vec<Envelope<BdClockMsg>> {
    senders
        .map(|i| Envelope {
            from: NodeId::new(i),
            to: NodeId::new(0),
            round: claimed,
            msg: RoundMsg {
                round: tag,
                msg: (),
            },
        })
        .collect()
}

/// The timeout edge: a quorum that completes on the exact beat the window
/// expires must tick by the *quorum* rule — the timeout rules are the
/// fallback, not a race winner (the model checker showed the window = 1
/// degenerate case makes this exact race the whole ballgame).
#[test]
fn quorum_on_exact_expiry_beat_takes_the_quorum_path() {
    let window = 3u64;
    let mut rng = SimRng::seed_from_u64(1);

    let mut node = node_one_beat_before_expiry(window);
    node.deliver(0, &tag_envelopes(0..3, 0, 10), &mut rng);
    assert_eq!(node.read(), Some(1), "quorum must win the expiry beat");
    assert_eq!(metric(&node, "bd_quorum_ticks"), 1.0);
    assert_eq!(metric(&node, "bd_timeout_events"), 0.0);

    // Control: the identical state minus the quorum expires on that very
    // beat and, with the coin at 1, resets — proving the edge was real.
    let mut node = node_one_beat_before_expiry(window);
    node.mc_restore(&BdSnapshot {
        round: 5,
        ..node.mc_snapshot()
    });
    node.deliver(0, &[], &mut rng);
    assert_eq!(metric(&node, "bd_timeout_events"), 1.0);
    assert_eq!(metric(&node, "bd_resets"), 1.0);
    assert_eq!(node.read(), Some(0));
}

/// A beat-indexed executor over the same wire format: it broadcasts its
/// round tag every beat and ticks only when this beat's inbox holds an
/// `n - f` quorum for its round — the lockstep reading of "count the
/// votes of this beat".
struct BeatIndexedClock {
    round: u8,
    quorum: usize,
    ticks: u64,
}

impl Application for BeatIndexedClock {
    type Msg = BdClockMsg;

    fn send(&mut self, _phase: usize, out: &mut Outbox<'_, BdClockMsg>) {
        out.broadcast(RoundMsg {
            round: self.round,
            msg: (),
        });
    }

    fn deliver(&mut self, _phase: usize, inbox: &[Envelope<BdClockMsg>], _rng: &mut SimRng) {
        if inbox.iter().filter(|e| e.msg.round == self.round).count() >= self.quorum {
            self.round = (self.round + 1) % 8;
            self.ticks += 1;
        }
    }

    fn corrupt(&mut self, _rng: &mut SimRng) {}
}

/// The wheel is what closes the d1 gap mechanically: from a clean start
/// under `delay=3` the bd-clock ticks once per beat, parking early tags
/// for the rounds they belong to — while the beat-indexed executor over
/// the same delays loses most of each round's traffic to the wrong beat.
#[test]
fn buffered_engine_survives_bounded_delay_where_sync_does_not() {
    let window = 3u64;
    let beats = 120u64;
    let beacon = OracleBeacon::perfect(5);
    let mut sim = SimBuilder::new(7, 2)
        .seed(5)
        .timing(TimingModel::bounded(window))
        .build(
            move |cfg, _rng| BdClock::new(cfg, 8, window, beacon.source(cfg.id)),
            SilentAdversary,
        );
    sim.run_beats(beats);
    assert!(all_synced(sim.correct_apps().map(|(_, a)| a.read())).is_some());
    for (id, app) in sim.correct_apps() {
        // The first tags need up to `window` beats to land; every beat
        // after that is a quorum tick.
        assert!(
            metric(app, "bd_quorum_ticks") >= (beats - window) as f64,
            "node {id}: {:?}",
            app.metrics()
        );
        assert!(
            metric(app, "bd_buffered_ahead") > 0.0,
            "node {id}: a 3-beat window must produce early traffic"
        );
    }

    let mut sync_sim = SimBuilder::new(7, 2)
        .seed(5)
        .timing(TimingModel::bounded(window))
        .build(
            |cfg, _rng| BeatIndexedClock {
                round: 0,
                quorum: cfg.quorum(),
                ticks: 0,
            },
            SilentAdversary,
        );
    sync_sim.run_beats(beats);
    for (id, app) in sync_sim.correct_apps() {
        assert!(
            app.ticks < beats / 2,
            "node {id}: the beat-indexed count ticked {} of {beats} beats",
            app.ticks
        );
    }
}
