//! Span recording for the traced run, all from this side of the program's
//! public trait seams.
//!
//! Four transparent wrappers — [`TracedApp`] (`Application`),
//! [`TracedRand`] (`RandSource`), [`TracedScheme`] (`CoinScheme::spawn`)
//! and [`TracedProto`] (`RoundProtocol` by round index) — forward every
//! call to the real type and time it. Spans nest step → app → rand →
//! round; each carries the beat it ran in, and the recorder keeps one
//! accumulator per (beat, span name) in thread-local memory until the run
//! ends. A layer's self time is its spans minus its children's, so the
//! layers sum to the `step` span by construction.

use bytes::BytesMut;
use byzclock_core::{CoinScheme, DigitalClock, RandSource, RoundProtocol};
use byzclock_sim::{Application, Envelope, NodeId, Outbox, SimRng, Target, Wire, WireFormat};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Deepest coin pipeline any traced scheme runs (the committee coin's
/// deal, echo, vote, recover, relay).
pub const ROUNDS: usize = 5;

/// Names of the coin rounds by round index, as the per-layer metrics
/// spell them.
pub const ROUND_NAMES: [&str; ROUNDS] = ["deal", "echo", "vote", "recover", "relay"];

/// One span name. The discriminant indexes a beat's accumulator row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Application::begin_beat`, child of `step`.
    AppBegin,
    /// `Application::send`, child of `step`.
    AppSend,
    /// `Application::deliver`, child of `step`.
    AppDeliver,
    /// `RandSource::send`, child of `app.send`.
    RandSend,
    /// `RandSource::deliver`, child of `app.deliver`.
    RandDeliver,
    /// `RoundProtocol::send_round(r)`, child of `rand.send` (or of
    /// `app.send` for the coin stream, which has no `RandSource` seam).
    RoundSend(usize),
    /// `RoundProtocol::recv_round(r)`, child of `rand.deliver`.
    RoundRecv(usize),
    /// `CoinScheme::spawn`, child of `rand.deliver`.
    Spawn,
}

/// Accumulators per beat: 3 app + 2 rand + 2 × [`ROUNDS`] + spawn.
pub const SPANS: usize = 6 + 2 * ROUNDS;

impl Span {
    fn index(self) -> usize {
        match self {
            Span::AppBegin => 0,
            Span::AppSend => 1,
            Span::AppDeliver => 2,
            Span::RandSend => 3,
            Span::RandDeliver => 4,
            Span::Spawn => 5,
            Span::RoundSend(r) => 6 + r.min(ROUNDS - 1),
            Span::RoundRecv(r) => 6 + ROUNDS + r.min(ROUNDS - 1),
        }
    }
}

/// `(name, parent)` of every accumulator, in [`Span::index`] order.
pub const SPAN_TABLE: [(&str, &str); SPANS] = [
    ("app.begin_beat", "step"),
    ("app.send", "step"),
    ("app.deliver", "step"),
    ("rand.send", "app.send"),
    ("rand.deliver", "app.deliver"),
    ("coin.spawn", "rand.deliver"),
    ("coin.deal.send", "rand.send"),
    ("coin.echo.send", "rand.send"),
    ("coin.vote.send", "rand.send"),
    ("coin.recover.send", "rand.send"),
    ("coin.relay.send", "rand.send"),
    ("coin.deal.recv", "rand.deliver"),
    ("coin.echo.recv", "rand.deliver"),
    ("coin.vote.recv", "rand.deliver"),
    ("coin.recover.recv", "rand.deliver"),
    ("coin.relay.recv", "rand.deliver"),
];

/// Everything recorded for one beat.
#[derive(Debug, Clone, Default)]
pub struct BeatRow {
    /// The beat index — the id every span of the beat shares.
    pub beat: u64,
    /// Duration of the `step` span.
    pub step_ns: u64,
    /// Summed span durations by [`Span`] index.
    pub ns: [u64; SPANS],
    /// Span counts by [`Span`] index.
    pub count: [u32; SPANS],
}

impl BeatRow {
    fn sum(&self, range: std::ops::Range<usize>) -> u64 {
        self.ns[range].iter().sum()
    }

    /// Time in the three `Application` spans.
    pub fn app_ns(&self) -> u64 {
        self.sum(0..3)
    }

    /// Time in the two `RandSource` spans.
    pub fn rand_ns(&self) -> u64 {
        self.sum(3..5)
    }

    /// Time in the round and spawn spans (the leaves).
    pub fn coin_ns(&self) -> u64 {
        self.sum(5..SPANS)
    }

    /// Time in `send_round(r)`.
    pub fn round_send_ns(&self, r: usize) -> u64 {
        self.ns[Span::RoundSend(r).index()]
    }

    /// Time in `recv_round(r)`.
    pub fn round_recv_ns(&self, r: usize) -> u64 {
        self.ns[Span::RoundRecv(r).index()]
    }

    /// Time in `CoinScheme::spawn`.
    pub fn spawn_ns(&self) -> u64 {
        self.ns[Span::Spawn.index()]
    }

    /// Instances spawned.
    pub fn spawns(&self) -> u32 {
        self.count[Span::Spawn.index()]
    }
}

/// One phase's worth of envelopes as node 0 received them, kept so the
/// codec can be timed in isolation on real traffic after the run.
pub trait WireSample {
    /// Times `len_of`, `encode_into`, `decode_from` and `clone` over the
    /// sample, adding to `into`.
    fn measure(&self, format: WireFormat, into: &mut WireTimings);
}

/// Summed isolated codec timings over captured envelopes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTimings {
    /// Envelope visits (envelopes × repetitions).
    pub msgs: u64,
    /// Encoded bytes visited.
    pub bytes: u64,
    /// Time in `WireFormat::len_of`.
    pub len_ns: u64,
    /// Time in `WireFormat::encode_into`.
    pub encode_ns: u64,
    /// Time in `WireFormat::decode_from`.
    pub decode_ns: u64,
    /// Time in `Envelope::clone`.
    pub clone_ns: u64,
}

impl<M: Wire + Clone> WireSample for Vec<Envelope<M>> {
    fn measure(&self, format: WireFormat, into: &mut WireTimings) {
        if self.is_empty() {
            return;
        }
        // Enough repetitions that the clock's own cost disappears, few
        // enough that a 25 MB beat of GVSS matrices stays under a second.
        let bytes: u64 = self.iter().map(|e| format.len_of(&e.msg) as u64).sum();
        let reps = (20_000_000 / bytes.max(1)).clamp(1, 200);
        let encoded: Vec<BytesMut> = self
            .iter()
            .map(|e| {
                let mut buf = BytesMut::new();
                format.encode_into(&e.msg, &mut buf);
                buf
            })
            .collect();
        let mut buf = BytesMut::new();
        for _ in 0..reps {
            let t = Instant::now();
            for e in self {
                black_box(format.len_of(black_box(&e.msg)));
            }
            into.len_ns += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            for e in self {
                buf.clear();
                format.encode_into(black_box(&e.msg), &mut buf);
                black_box(&buf);
            }
            into.encode_ns += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            for bytes in &encoded {
                black_box(format.decode_from::<M>(black_box(bytes.as_slice())));
            }
            into.decode_ns += t.elapsed().as_nanos() as u64;

            let t = Instant::now();
            for e in self {
                black_box(black_box(e).clone());
            }
            into.clone_ns += t.elapsed().as_nanos() as u64;
        }
        into.msgs += reps * self.len() as u64;
        into.bytes += reps * bytes;
    }
}

#[derive(Default)]
struct Recorder {
    /// The open beat, if a `step` span is open.
    open: Option<BeatRow>,
    rows: Vec<BeatRow>,
    /// Beat whose node-0 inboxes are kept for the codec timings.
    capture_beat: Option<u64>,
    samples: Vec<Box<dyn WireSample>>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Opens the `step` span of `beat`. Spans recorded while no beat is open
/// (construction, `corrupt`) are dropped: they belong to set-up.
pub fn begin_beat(beat: u64) {
    RECORDER.with_borrow_mut(|r| {
        r.open = Some(BeatRow {
            beat,
            ..BeatRow::default()
        })
    });
}

/// Closes the open `step` span with its measured duration.
pub fn end_beat(step_ns: u64) {
    RECORDER.with_borrow_mut(|r| {
        if let Some(mut row) = r.open.take() {
            row.step_ns = step_ns;
            r.rows.push(row);
        }
    });
}

/// Asks node 0's [`TracedApp`] to keep the inboxes of `beat`.
pub fn capture_envelopes_at(beat: u64) {
    RECORDER.with_borrow_mut(|r| r.capture_beat = Some(beat));
}

/// Takes every recorded beat, oldest first, and resets the recorder.
pub fn take_rows() -> Vec<BeatRow> {
    RECORDER.with_borrow_mut(|r| std::mem::take(&mut r.rows))
}

/// Runs the isolated codec timings over the captured envelopes.
pub fn measure_captured(format: WireFormat) -> WireTimings {
    let samples = RECORDER.with_borrow_mut(|r| std::mem::take(&mut r.samples));
    let mut timings = WireTimings::default();
    for sample in &samples {
        sample.measure(format, &mut timings);
    }
    timings
}

fn span<T>(which: Span, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    RECORDER.with_borrow_mut(|r| {
        if let Some(row) = r.open.as_mut() {
            row.ns[which.index()] += ns;
            row.count[which.index()] += 1;
        }
    });
    out
}

/// An [`Application`] with its three per-beat entry points timed.
pub struct TracedApp<A> {
    inner: A,
    id: NodeId,
}

impl<A> TracedApp<A> {
    /// Wraps node `id`'s application.
    pub fn new(id: NodeId, inner: A) -> Self {
        TracedApp { inner, id }
    }

    /// The wrapped application.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Application> Application for TracedApp<A>
where
    A::Msg: 'static,
{
    type Msg = A::Msg;

    fn phases(&self) -> usize {
        self.inner.phases()
    }

    fn begin_beat(&mut self, beat: u64) {
        span(Span::AppBegin, || self.inner.begin_beat(beat));
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        span(Span::AppSend, || self.inner.send(phase, out));
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        if self.id.index() == 0 {
            RECORDER.with_borrow_mut(|r| {
                if r.capture_beat.is_some() && r.capture_beat == r.open.as_ref().map(|b| b.beat) {
                    r.samples.push(Box::new(inbox.to_vec()));
                }
            });
        }
        span(Span::AppDeliver, || self.inner.deliver(phase, inbox, rng));
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.inner.corrupt(rng);
    }

    fn parallel_safe(&self) -> bool {
        self.inner.parallel_safe()
    }
}

impl<A: DigitalClock> DigitalClock for TracedApp<A> {
    fn modulus(&self) -> u64 {
        self.inner.modulus()
    }

    fn read(&self) -> Option<u64> {
        self.inner.read()
    }
}

/// A [`RandSource`] with `send` and `deliver` timed.
#[derive(Debug)]
pub struct TracedRand<R>(pub R);

impl<R: RandSource> RandSource for TracedRand<R> {
    type Msg = R::Msg;

    fn send(&mut self, rng: &mut SimRng, out: &mut Vec<(Target, Self::Msg)>) {
        span(Span::RandSend, || self.0.send(rng, out));
    }

    fn deliver(&mut self, inbox: &[(NodeId, Self::Msg)], rng: &mut SimRng) -> bool {
        span(Span::RandDeliver, || self.0.deliver(inbox, rng))
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.0.corrupt(rng);
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.0.metrics()
    }

    fn begin_beat(&mut self, beat: u64) {
        self.0.begin_beat(beat);
    }

    fn independent(&self) -> bool {
        self.0.independent()
    }
}

/// A [`CoinScheme`] whose `spawn` is timed and whose instances are
/// [`TracedProto`]s.
#[derive(Debug, Clone)]
pub struct TracedScheme<S>(pub S);

impl<S: CoinScheme> CoinScheme for TracedScheme<S> {
    type Proto = TracedProto<S::Proto>;

    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn spawn(&self, rng: &mut SimRng) -> Self::Proto {
        TracedProto(span(Span::Spawn, || self.0.spawn(rng)))
    }

    fn begin_beat(&mut self, beat: u64) {
        self.0.begin_beat(beat);
    }
}

/// A [`RoundProtocol`] instance with each round's send and receive timed
/// under the round's index.
#[derive(Debug)]
pub struct TracedProto<P>(P);

impl<P: RoundProtocol> RoundProtocol for TracedProto<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send_round(&mut self, round: usize, rng: &mut SimRng, out: &mut Vec<(Target, Self::Msg)>) {
        span(Span::RoundSend(round), || {
            self.0.send_round(round, rng, out)
        });
    }

    fn recv_round(&mut self, round: usize, inbox: &[(NodeId, Self::Msg)], rng: &mut SimRng) {
        span(Span::RoundRecv(round), || {
            self.0.recv_round(round, inbox, rng)
        });
    }

    fn output(&self) -> Self::Output {
        self.0.output()
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        self.0.corrupt(rng);
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.0.metrics()
    }
}
