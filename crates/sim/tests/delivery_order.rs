//! Delivery order as a property: every correct node's deliveries, envelope
//! for envelope, and the delay histogram, against a reference that files
//! every envelope of the run under its arrival slot the obvious way.
//!
//! The reference turns each phase's sends into envelopes in sender order —
//! correct sends in (sender, emission, recipient) order, then Byzantine
//! sends, then phantom replays — draws each correct envelope's delay from
//! the run's delay stream, files everything under its `(arrival beat,
//! phase, recipient)` slot, stable-sorts each due inbox by sender and drops
//! the slots due during a blackout. The nodes and the adversary follow a
//! script, so their sends are a function of `(node, beat, phase)` the
//! reference can replay without running them.

use byzclock_sim::{
    derive_seed, Adversary, AdversaryView, Application, ByzOutbox, Envelope, FaultEvent, FaultKind,
    FaultPlan, NodeId, Outbox, SimBuilder, SimRng, Target, TimingModel, Wire, WireConfig,
    WireFormat, WireReader, WireWriter,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// Payloads with this bit set fail to parse, so a byte-boundary run drops
/// them; only the adversary sends them.
const POISON: u64 = 1 << 63;

/// A payload naming its origin: sender, beat, phase and emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Probe(u64);

impl Wire for Probe {
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        self.0.encode(format, w);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        u64::decode(format, r)
            .filter(|v| v & POISON == 0)
            .map(Probe)
    }
}

fn payload(from: u16, beat: u64, phase: usize, emission: usize) -> Probe {
    Probe((u64::from(from) << 48) | (beat << 16) | ((phase as u64) << 8) | emission as u64)
}

/// One scripted correct send, made on the beats whose bit `mask` sets.
#[derive(Clone, Debug)]
struct ScriptedSend {
    mask: u8,
    /// `None` broadcasts; `Some(to)` may name the sender or an id `>= n`.
    to: Option<u16>,
}

#[derive(Clone, Copy, Debug)]
enum ByzKind {
    Send,
    SendAfter(u64),
    Broadcast,
}

/// One scripted adversary move, made in `phase` of the beats `mask`
/// selects. `from` may be a correct id (a forgery the outbox drops).
#[derive(Clone, Debug)]
struct ByzAct {
    phase: usize,
    mask: u8,
    from: u16,
    to: u16,
    kind: ByzKind,
    poison: bool,
}

fn on(mask: u8, beat: u64) -> bool {
    mask >> (beat % 8) & 1 == 1
}

#[derive(Debug)]
struct Script {
    n: usize,
    phases: usize,
    byz: Vec<u16>,
    /// `sends[node][phase]`, in emission order.
    sends: Vec<Vec<Vec<ScriptedSend>>>,
    acts: Vec<ByzAct>,
}

impl Script {
    fn generate(rng: &mut SimRng, n: usize, phases: usize) -> Script {
        let mut byz: Vec<u16> = (0..n as u16)
            .filter(|_| rng.random_range(0..4u8) == 0)
            .collect();
        byz.truncate((n - 1) / 3);
        let sends = (0..n)
            .map(|_| {
                (0..phases)
                    .map(|_| {
                        (0..rng.random_range(0..4usize))
                            .map(|_| ScriptedSend {
                                mask: rng.random(),
                                to: rng
                                    .random::<bool>()
                                    .then(|| rng.random_range(0..n as u16 + 2)),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let acts = (0..rng.random_range(0..6usize))
            .map(|_| ByzAct {
                phase: rng.random_range(0..phases),
                mask: rng.random(),
                from: match byz.len() {
                    0 => rng.random_range(0..n as u16 + 1),
                    len if rng.random_range(0..5u8) > 0 => byz[rng.random_range(0..len)],
                    _ => rng.random_range(0..n as u16 + 1),
                },
                to: rng.random_range(0..n as u16 + 1),
                kind: match rng.random_range(0..3u8) {
                    0 => ByzKind::Send,
                    1 => ByzKind::SendAfter(rng.random_range(0..4)),
                    _ => ByzKind::Broadcast,
                },
                poison: rng.random_range(0..4u8) == 0,
            })
            .collect();
        Script {
            n,
            phases,
            byz,
            sends,
            acts,
        }
    }

    /// Node `me`'s `(target, msg)` list for `phase` of `beat`.
    fn sends(&self, me: u16, beat: u64, phase: usize) -> Vec<(Target, Probe)> {
        self.sends[me as usize][phase]
            .iter()
            .enumerate()
            .filter(|(_, s)| on(s.mask, beat))
            .map(|(k, s)| {
                let target = s.to.map_or(Target::All, |to| Target::One(NodeId::new(to)));
                (target, payload(me, beat, phase, k))
            })
            .collect()
    }

    /// The adversary's moves for `phase` of `beat`, with their payloads.
    fn acts(&self, beat: u64, phase: usize) -> impl Iterator<Item = (&ByzAct, Probe)> {
        self.acts.iter().enumerate().filter_map(move |(k, a)| {
            let Probe(p) = payload(a.from, beat, phase, 128 + k);
            (a.phase == phase && on(a.mask, beat))
                .then_some((a, Probe(if a.poison { p | POISON } else { p })))
        })
    }
}

/// Says what its script says and records every delivery as
/// `(beat, phase, envelope)`.
struct Scripted {
    me: u16,
    beat: u64,
    script: Rc<Script>,
    got: Vec<(u64, usize, Envelope<Probe>)>,
}

impl Application for Scripted {
    type Msg = Probe;
    fn phases(&self) -> usize {
        self.script.phases
    }
    fn begin_beat(&mut self, beat: u64) {
        self.beat = beat;
    }
    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Probe>) {
        for (target, msg) in self.script.sends(self.me, self.beat, phase) {
            out.push(target, msg);
        }
    }
    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Probe>], _rng: &mut SimRng) {
        let beat = self.beat;
        self.got
            .extend(inbox.iter().map(|e| (beat, phase, e.clone())));
    }
    fn corrupt(&mut self, _rng: &mut SimRng) {}
}

struct ScriptedAdversary(Rc<Script>);

impl Adversary<Probe> for ScriptedAdversary {
    fn act(&mut self, view: &AdversaryView<'_, Probe>, out: &mut ByzOutbox<'_, Probe>) {
        for (a, msg) in self.0.acts(view.beat(), view.phase()) {
            let (from, to) = (NodeId::new(a.from), NodeId::new(a.to));
            match a.kind {
                ByzKind::Send => out.send(from, to, msg),
                ByzKind::SendAfter(delay) => out.send_after(from, to, msg, delay),
                ByzKind::Broadcast => out.broadcast(from, msg),
            }
        }
    }
}

type Deliveries = Vec<Vec<(u64, usize, Envelope<Probe>)>>;

/// Everything the run delivers per recipient, and its delay histogram,
/// worked out by filing every envelope under its arrival slot.
fn reference(
    script: &Script,
    seed: u64,
    timing: TimingModel,
    byte_boundary: bool,
    plan: &FaultPlan,
    beats: u64,
) -> (Deliveries, Vec<u64>) {
    let (n, window, lockstep) = (script.n, timing.window(), timing.is_lockstep());
    let is_byz = |id: u16| script.byz.contains(&id);
    let stream = |k: u64| SimRng::seed_from_u64(derive_seed(seed, (1 << 32) + k));
    let (mut fault_rng, mut delay_rng, mut tag_rng) = (stream(1), stream(2), stream(3));
    let mut histogram = vec![0; if lockstep { 0 } else { window as usize }];
    let record = plan
        .events()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::PhantomBurst { .. }));
    let mut history: VecDeque<Envelope<Probe>> = VecDeque::new();
    let mut phantoms: Vec<Envelope<Probe>> = Vec::new();
    let mut slots: BTreeMap<(u64, usize, u16), Vec<Envelope<Probe>>> = BTreeMap::new();
    let mut blackout_until = 0;
    let mut got: Deliveries = vec![Vec::new(); n];
    let parses = |e: &Envelope<Probe>| !byte_boundary || e.msg.0 & POISON == 0;
    let env = |from: u16, to: u16, round: u64, msg: Probe| Envelope {
        from: NodeId::new(from),
        to: NodeId::new(to),
        round,
        msg,
    };
    for beat in 0..beats {
        for phase in 0..script.phases {
            let mut correct = Vec::new();
            for from in (0..n as u16).filter(|&id| !is_byz(id)) {
                for (target, msg) in script.sends(from, beat, phase) {
                    match target {
                        Target::All => {
                            (0..n as u16).for_each(|to| correct.push(env(from, to, beat, msg)))
                        }
                        Target::One(to) => correct.push(env(from, to.raw(), beat, msg)),
                    }
                }
            }
            let mut byzantine = Vec::new();
            for (a, msg) in script.acts(beat, phase) {
                if !is_byz(a.from) {
                    continue; // a forgery: the network authenticates senders
                }
                match a.kind {
                    ByzKind::Send => byzantine.push((0, env(a.from, a.to, beat, msg))),
                    ByzKind::SendAfter(d) => byzantine.push((d, env(a.from, a.to, beat, msg))),
                    ByzKind::Broadcast => {
                        (0..n as u16).for_each(|to| byzantine.push((0, env(a.from, to, beat, msg))))
                    }
                }
            }
            if record {
                let routed = correct
                    .iter()
                    .chain(byzantine.iter().map(|(_, e)| e))
                    .chain(&phantoms);
                for e in routed {
                    if history.len() == 4096 {
                        history.pop_front();
                    }
                    history.push_back(e.clone());
                }
            }
            let mut file = |e: Envelope<Probe>, delay: u64| {
                if !lockstep {
                    histogram[delay as usize] += 1;
                }
                if e.to.index() < n {
                    let to = e.to.raw();
                    slots.entry((beat + delay, phase, to)).or_default().push(e);
                }
            };
            for e in correct.into_iter().filter(parses) {
                let delay = if window > 1 {
                    delay_rng.random_range(0..window)
                } else {
                    0
                };
                file(e, delay);
            }
            for (delay, e) in byzantine.into_iter().filter(|(_, e)| parses(e)) {
                file(e, delay.min(window - 1));
            }
            for e in phantoms.drain(..).filter(parses) {
                file(e, 0);
            }
            for to in 0..n as u16 {
                let mut inbox = slots.remove(&(beat, phase, to)).unwrap_or_default();
                if beat >= blackout_until && !is_byz(to) {
                    inbox.sort_by_key(|e| e.from); // stable
                    got[to as usize].extend(inbox.into_iter().map(|e| (beat, phase, e)));
                }
            }
        }
        for event in plan.events().iter().filter(|e| e.beat == beat) {
            match event.kind {
                FaultKind::PhantomBurst { count } if !history.is_empty() => {
                    for _ in 0..count {
                        let mut e = history[fault_rng.random_range(0..history.len())].clone();
                        e.to = NodeId::new(fault_rng.random_range(0..n as u16));
                        e.round = tag_rng.random();
                        phantoms.push(e);
                    }
                }
                FaultKind::Blackout { beats } => {
                    blackout_until = blackout_until.max(beat + 1 + beats);
                }
                _ => {}
            }
        }
    }
    (got, histogram)
}

proptest! {
    /// Lockstep and windows 1–3, with and without the byte boundary: the
    /// runner delivers what the reference files, in the reference's order,
    /// and observes the same delays.
    #[test]
    fn deliveries_follow_the_routing_order(
        (n, phases, beats) in (1usize..=10, 1usize..=3, 4u64..=10),
        (window, byte_boundary, packed) in (0u64..=3, any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let script = Rc::new(Script::generate(&mut rng, n, phases));
        let mut events = Vec::new();
        if rng.random::<bool>() {
            let count = rng.random_range(1..24);
            let beat = rng.random_range(0..beats);
            events.push(FaultEvent { beat, kind: FaultKind::PhantomBurst { count } });
        }
        if rng.random::<bool>() {
            let beat = rng.random_range(0..beats);
            let kind = FaultKind::Blackout { beats: rng.random_range(1..3) };
            events.push(FaultEvent { beat, kind });
        }
        let plan = FaultPlan::new(events);
        let timing = match window {
            0 => TimingModel::Lockstep,
            w => TimingModel::bounded(w),
        };
        let mut wire = if packed { WireConfig::packed() } else { WireConfig::fixed() };
        wire.byte_boundary = byte_boundary;

        let mut sim = SimBuilder::new(n, script.byz.len())
            .byzantine(script.byz.iter().copied())
            .seed(seed)
            .timing(timing)
            .wire(wire)
            .faults(plan.clone())
            .build(
                |cfg, _rng| Scripted {
                    me: cfg.id.raw(),
                    beat: 0,
                    script: Rc::clone(&script),
                    got: Vec::new(),
                },
                ScriptedAdversary(Rc::clone(&script)),
            );
        sim.run_beats(beats);

        let (want, histogram) = reference(&script, seed, timing, byte_boundary, &plan, beats);
        for (id, app) in sim.correct_apps() {
            prop_assert_eq!(&app.got, &want[id.index()], "recipient {:?} of {:?}", id, script);
        }
        prop_assert_eq!(sim.delay_histogram(), histogram.as_slice());
    }
}
