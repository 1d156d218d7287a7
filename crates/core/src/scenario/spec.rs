//! The declarative scenario description.
//!
//! A [`ScenarioSpec`] is plain data naming one point of the reproduction's
//! experiment grid: protocol × cluster shape × coin × adversary × fault
//! plan × timing model × seed. Specs are serializable as a single
//! self-describing line (see [`ScenarioSpec::parse`]) so sweeps can be
//! logged, diffed, replayed from a shell, and later sharded across
//! processes.
//!
//! # Timing (`delay=`)
//!
//! The optional `delay=d` key selects the delivery-timing model
//! ([`byzclock_sim::TimingModel`]): absent or `delay=0` is the paper's
//! lockstep global beat (every message arrives the beat it was sent);
//! `delay=d` with `d >= 1` is the §6.3 bounded-delay (semi-synchronous)
//! model — a correct message arrives within a seeded window of `d` beats,
//! and the adversary may rush or reorder its own traffic inside the
//! window. Lockstep spec lines render without the key, so historical spec
//! strings (and the reports that echo them) are unchanged.

use super::registry::ScenarioError;
use byzclock_sim::{FaultEvent, FaultKind, FaultPlan, NodeId, TimingModel, WireConfig, WireFormat};
use std::fmt;

/// Which randomness substrate the protocol draws its per-beat bit from.
///
/// Oracle probabilities are stored in permille (`0..=1000`) so specs stay
/// `Eq` and round-trip exactly through their string form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinSpec {
    /// The paper's full construction: pipelined GVSS ticket coin.
    Ticket,
    /// The naive XOR-combine coin (measurably weaker; experiment F1).
    Xor,
    /// Independent per-node local coins (the expected-exponential
    /// Dolev-Welch regime).
    Local,
    /// An ideal beacon with `P[E0] = p0`, `P[E1] = p1` (permille); the
    /// remainder of the probability mass is an adversarial split.
    Oracle {
        /// `P[all correct nodes see 0]`, in permille.
        p0_permille: u16,
        /// `P[all correct nodes see 1]`, in permille.
        p1_permille: u16,
    },
    /// No coin at all — for the deterministic baseline clocks.
    None,
}

impl CoinSpec {
    /// A perfect common coin (`p0 = p1 = 1/2`).
    pub fn perfect_oracle() -> Self {
        CoinSpec::Oracle {
            p0_permille: 500,
            p1_permille: 500,
        }
    }

    /// An oracle from float probabilities (rounded to permille).
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]` or sum above 1.
    pub fn oracle(p0: f64, p1: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p0) && (0.0..=1.0).contains(&p1) && p0 + p1 <= 1.0 + 1e-9,
            "invalid oracle probabilities p0={p0} p1={p1}"
        );
        CoinSpec::Oracle {
            p0_permille: (p0 * 1000.0).round() as u16,
            p1_permille: (p1 * 1000.0).round() as u16,
        }
    }

    /// Oracle `p0` as a float (0 for other coins).
    pub fn p0(&self) -> f64 {
        match self {
            CoinSpec::Oracle { p0_permille, .. } => f64::from(*p0_permille) / 1000.0,
            _ => 0.0,
        }
    }

    /// Oracle `p1` as a float (0 for other coins).
    pub fn p1(&self) -> f64 {
        match self {
            CoinSpec::Oracle { p1_permille, .. } => f64::from(*p1_permille) / 1000.0,
            _ => 0.0,
        }
    }
}

impl fmt::Display for CoinSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoinSpec::Ticket => write!(f, "ticket"),
            CoinSpec::Xor => write!(f, "xor"),
            CoinSpec::Local => write!(f, "local"),
            CoinSpec::Oracle {
                p0_permille,
                p1_permille,
            } => {
                write!(f, "oracle:{p0_permille},{p1_permille}")
            }
            CoinSpec::None => write!(f, "none"),
        }
    }
}

impl std::str::FromStr for CoinSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "ticket" => Ok(CoinSpec::Ticket),
            "xor" => Ok(CoinSpec::Xor),
            "local" => Ok(CoinSpec::Local),
            "none" => Ok(CoinSpec::None),
            "oracle" => Ok(CoinSpec::perfect_oracle()),
            _ => {
                let body = s
                    .strip_prefix("oracle:")
                    .ok_or_else(|| ScenarioError::Parse(format!("unknown coin spec `{s}`")))?;
                let (a, b) = body.split_once(',').ok_or_else(|| {
                    ScenarioError::Parse(format!("oracle coin needs `p0,p1` permille: `{s}`"))
                })?;
                let parse = |v: &str| {
                    v.parse::<u16>().map_err(|_| {
                        ScenarioError::Parse(format!("bad oracle permille `{v}` in `{s}`"))
                    })
                };
                let (p0, p1) = (parse(a)?, parse(b)?);
                if u32::from(p0) + u32::from(p1) > 1000 {
                    return Err(ScenarioError::Parse(format!(
                        "oracle probabilities sum above 1: `{s}`"
                    )));
                }
                Ok(CoinSpec::Oracle {
                    p0_permille: p0,
                    p1_permille: p1,
                })
            }
        }
    }
}

/// Optional instrumentation attached to a run's report extras.
///
/// Default `None` keeps every report byte-identical to the
/// pre-instrumentation era (the lockstep golden reports pin this);
/// `Decode` asks coin-backed scenarios to append the GVSS recover-round
/// decode counters (`decode_batches`, `decode_codewords`,
/// `decode_mean_batch`) accumulated by the batched Berlekamp–Welch path;
/// `Alloc` appends the GVSS workspace allocator counters
/// (`alloc_storage_builds`, `alloc_storage_reuses`, `alloc_decoder_builds`,
/// `alloc_decoder_hits`), which pin the zero-alloc steady state — after
/// warm-up every retired coin instance reuses pooled storage and cached
/// decoders instead of allocating. Families without the relevant machinery
/// refuse the knob (see `reject_unwired`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsSpec {
    /// No extra instrumentation (the default; omitted from spec lines).
    #[default]
    None,
    /// Report the coin's decode-batch counters in the extras.
    Decode,
    /// Report the coin's workspace allocator counters in the extras.
    Alloc,
}

impl fmt::Display for MetricsSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsSpec::None => write!(f, "none"),
            MetricsSpec::Decode => write!(f, "decode"),
            MetricsSpec::Alloc => write!(f, "alloc"),
        }
    }
}

impl std::str::FromStr for MetricsSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "none" => Ok(MetricsSpec::None),
            "decode" => Ok(MetricsSpec::Decode),
            "alloc" => Ok(MetricsSpec::Alloc),
            _ => Err(ScenarioError::Parse(format!(
                "unknown metrics spec `{s}` (valid: none, decode, alloc)"
            ))),
        }
    }
}

/// Which wire codec carries (and prices) the run's messages.
///
/// The first half of the name picks the [`WireFormat`] — `fixed` is the
/// historical fixed-width encoding, `packed` the compact one (minimal-width
/// field elements, bitsets, length deltas) — and the `-bytes` suffix turns
/// on the runner's *byte boundary*: every envelope is serialized at send
/// and re-parsed at delivery instead of moving in memory. Byte-boundary
/// runs produce reports identical to their in-memory twins (pinned by
/// tests); the knob exists so the serialization seam is actually exercised
/// — the seam a cross-process sweep backend will stand on. Default `fixed`,
/// omitted from spec lines, so every historical line and golden report is
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireSpec {
    /// Fixed-width encoding, in-memory delivery (the default).
    #[default]
    Fixed,
    /// Packed encoding, in-memory delivery.
    Packed,
    /// Fixed-width encoding across a real byte boundary.
    FixedBytes,
    /// Packed encoding across a real byte boundary.
    PackedBytes,
}

impl WireSpec {
    /// The sim-layer [`WireConfig`] this spec selects.
    pub fn config(&self) -> WireConfig {
        match self {
            WireSpec::Fixed => WireConfig::default(),
            WireSpec::Packed => WireConfig::packed(),
            WireSpec::FixedBytes => WireConfig::fixed().with_byte_boundary(),
            WireSpec::PackedBytes => WireConfig::packed().with_byte_boundary(),
        }
    }

    /// The encoding half of the knob.
    pub fn format(&self) -> WireFormat {
        self.config().format
    }
}

impl fmt::Display for WireSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireSpec::Fixed => write!(f, "fixed"),
            WireSpec::Packed => write!(f, "packed"),
            WireSpec::FixedBytes => write!(f, "fixed-bytes"),
            WireSpec::PackedBytes => write!(f, "packed-bytes"),
        }
    }
}

impl std::str::FromStr for WireSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "fixed" => Ok(WireSpec::Fixed),
            "packed" => Ok(WireSpec::Packed),
            "fixed-bytes" => Ok(WireSpec::FixedBytes),
            "packed-bytes" => Ok(WireSpec::PackedBytes),
            _ => Err(ScenarioError::Parse(format!(
                "unknown wire spec `{s}` (valid: fixed, packed, fixed-bytes, packed-bytes)"
            ))),
        }
    }
}

/// Which Byzantine strategy drives the faulty nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarySpec {
    /// Byzantine nodes stay silent (crash-like).
    Silent,
    /// Independent uniformly random clock votes.
    RandomVote,
    /// Per-recipient equivocation on clock votes.
    Equivocate,
    /// The rushing threshold-gaming splitter.
    SplitVote,
    /// The Remark 3.1 attacker with rushing knowledge of the coin
    /// (requires an oracle coin — that knowledge *is* the beacon handle).
    RandAwareSplitter,
    /// Structurally-valid random noise against the coin rounds
    /// (coin-stream scenarios).
    CoinNoise {
        /// Pipeline depth to imitate.
        depth: u8,
    },
    /// A Byzantine dealer handing out inconsistent GVSS rows
    /// (coin-stream scenarios).
    InconsistentDealer,
    /// Equivocation targeted at the recover round (coin-stream scenarios).
    RecoverEquivocator {
        /// The pipeline slot whose recover round is attacked.
        slot: u8,
    },
    /// Consensus-message equivocation against the deterministic baseline
    /// clocks; `mixed_bits` rotates binary-round lies in (for phase-king
    /// targets).
    BaEquivocator {
        /// Rotate Val/Bit/BitProp lies instead of value lies only.
        mixed_bits: bool,
    },
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::Silent => write!(f, "silent"),
            AdversarySpec::RandomVote => write!(f, "random-vote"),
            AdversarySpec::Equivocate => write!(f, "equivocate"),
            AdversarySpec::SplitVote => write!(f, "split-vote"),
            AdversarySpec::RandAwareSplitter => write!(f, "rand-aware-splitter"),
            AdversarySpec::CoinNoise { depth } => write!(f, "coin-noise:{depth}"),
            AdversarySpec::InconsistentDealer => write!(f, "inconsistent-dealer"),
            AdversarySpec::RecoverEquivocator { slot } => {
                write!(f, "recover-equivocator:{slot}")
            }
            AdversarySpec::BaEquivocator { mixed_bits: false } => write!(f, "ba-equivocator"),
            AdversarySpec::BaEquivocator { mixed_bits: true } => {
                write!(f, "ba-equivocator:mixed")
            }
        }
    }
}

impl std::str::FromStr for AdversarySpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "silent" => Ok(AdversarySpec::Silent),
            "random-vote" => Ok(AdversarySpec::RandomVote),
            "equivocate" => Ok(AdversarySpec::Equivocate),
            "split-vote" => Ok(AdversarySpec::SplitVote),
            "rand-aware-splitter" => Ok(AdversarySpec::RandAwareSplitter),
            "coin-noise" => Ok(AdversarySpec::CoinNoise { depth: 4 }),
            "inconsistent-dealer" => Ok(AdversarySpec::InconsistentDealer),
            "recover-equivocator" => Ok(AdversarySpec::RecoverEquivocator { slot: 3 }),
            "ba-equivocator" => Ok(AdversarySpec::BaEquivocator { mixed_bits: false }),
            "ba-equivocator:mixed" => Ok(AdversarySpec::BaEquivocator { mixed_bits: true }),
            _ => {
                if let Some(d) = s.strip_prefix("coin-noise:") {
                    let depth = d
                        .parse()
                        .map_err(|_| ScenarioError::Parse(format!("bad coin-noise depth `{d}`")))?;
                    return Ok(AdversarySpec::CoinNoise { depth });
                }
                if let Some(d) = s.strip_prefix("recover-equivocator:") {
                    let slot = d.parse().map_err(|_| {
                        ScenarioError::Parse(format!("bad recover-equivocator slot `{d}`"))
                    })?;
                    return Ok(AdversarySpec::RecoverEquivocator { slot });
                }
                Err(ScenarioError::Parse(format!(
                    "unknown adversary spec `{s}`"
                )))
            }
        }
    }
}

/// The transient-fault schedule, plus whether nodes boot from scrambled
/// memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlanSpec {
    /// Scramble every correct node's state right after construction
    /// (self-stabilization's "arbitrary initial state").
    pub corrupt_start: bool,
    /// Scheduled mid-run fault events.
    pub events: Vec<FaultEvent>,
}

impl FaultPlanSpec {
    /// No faults; clean boots.
    pub fn none() -> Self {
        FaultPlanSpec::default()
    }

    /// Corrupted initial memory, no mid-run faults — the standard
    /// convergence-measurement setup.
    pub fn corrupt_start() -> Self {
        FaultPlanSpec {
            corrupt_start: true,
            events: Vec::new(),
        }
    }

    /// The standard "fault storm" at `beat`: scramble all correct memory
    /// and replay `phantoms` stale messages.
    pub fn storm(beat: u64, phantoms: usize) -> Self {
        FaultPlanSpec {
            corrupt_start: false,
            events: vec![
                FaultEvent {
                    beat,
                    kind: FaultKind::CorruptAllCorrect,
                },
                FaultEvent {
                    beat,
                    kind: FaultKind::PhantomBurst { count: phantoms },
                },
            ],
        }
    }

    /// The sim-layer [`FaultPlan`] for the scheduled events.
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan::new(self.events.clone())
    }

    /// The beat after which the network is guaranteed non-faulty
    /// (0 when only the start is corrupted).
    pub fn measurement_start(&self) -> u64 {
        self.to_plan().last_fault_beat().map_or(0, |b| b + 1)
    }
}

impl fmt::Display for FaultPlanSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.corrupt_start {
            parts.push("corrupt-start".to_string());
        }
        for e in &self.events {
            parts.push(match &e.kind {
                FaultKind::CorruptAllCorrect => format!("scramble@{}", e.beat),
                FaultKind::CorruptNodes(ids) => format!(
                    "corrupt@{}:{}",
                    e.beat,
                    ids.iter()
                        .map(|i| i.raw().to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                FaultKind::PhantomBurst { count } => format!("phantoms@{}:{count}", e.beat),
                FaultKind::Blackout { beats } => format!("blackout@{}:{beats}", e.beat),
                _ => format!("unknown@{}", e.beat),
            });
        }
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

impl std::str::FromStr for FaultPlanSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        let mut plan = FaultPlanSpec::none();
        if s == "none" {
            return Ok(plan);
        }
        let bad = |what: &str| ScenarioError::Parse(format!("bad fault item `{what}` in `{s}`"));
        for item in s.split('+') {
            if item == "corrupt-start" {
                plan.corrupt_start = true;
                continue;
            }
            let (kind, rest) = item.split_once('@').ok_or_else(|| bad(item))?;
            let (beat_str, arg) = match rest.split_once(':') {
                Some((b, a)) => (b, Some(a)),
                None => (rest, None),
            };
            let beat: u64 = beat_str.parse().map_err(|_| bad(item))?;
            let kind = match (kind, arg) {
                ("scramble", None) => FaultKind::CorruptAllCorrect,
                ("corrupt", Some(ids)) => FaultKind::CorruptNodes(
                    ids.split(',')
                        .map(|i| i.parse::<u16>().map(NodeId::new))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|_| bad(item))?,
                ),
                ("phantoms", Some(count)) => FaultKind::PhantomBurst {
                    count: count.parse().map_err(|_| bad(item))?,
                },
                ("blackout", Some(beats)) => FaultKind::Blackout {
                    beats: beats.parse().map_err(|_| bad(item))?,
                },
                _ => return Err(bad(item)),
            };
            plan.events.push(FaultEvent { beat, kind });
        }
        plan.events.sort_by_key(|e| e.beat);
        Ok(plan)
    }
}

/// One fully-specified run of the reproduction harness.
///
/// Construct with [`ScenarioSpec::new`] and the fluent `with_*` setters,
/// or parse from the single-line form produced by [`fmt::Display`]:
///
/// ```
/// use byzclock_core::scenario::ScenarioSpec;
///
/// let spec = ScenarioSpec::parse(
///     "clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 budget=3000",
/// ).unwrap();
/// assert_eq!(spec.n, 7);
/// assert_eq!(ScenarioSpec::parse(&spec.to_string()).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Registry name of the protocol family (e.g. `two-clock`,
    /// `clock-sync`, `dw-clock`).
    pub protocol: String,
    /// Cluster size.
    pub n: usize,
    /// Protocol fault budget (code constant, `f < n/3` for the paper's
    /// algorithms).
    pub f: usize,
    /// Clock modulus `k` (ignored by the fixed-modulus 2-/4-clocks).
    pub clock_modulus: u64,
    /// Randomness substrate.
    pub coin: CoinSpec,
    /// Committee size `c` for the subsampled ticket-coin family
    /// (`committee=c`): each beat a deterministic, seed-rotated committee
    /// of `c` nodes runs the full GVSS rounds among themselves and relays
    /// the recovered bit to everyone else, cutting per-beat coin traffic
    /// from Θ(n⁴) to Θ(c⁴ + n·c). `None` (the default, omitted from spec
    /// lines so historical lines and golden reports are unchanged) means
    /// every node deals — the full ticket coin. Requires `coin=ticket`
    /// and `4 <= c <= n`.
    pub committee: Option<usize>,
    /// Byzantine strategy.
    pub adversary: AdversarySpec,
    /// Transient faults and boot corruption.
    pub fault_plan: FaultPlanSpec,
    /// Delivery-window width in beats: 0 = the paper's lockstep global
    /// beat; `d >= 1` = the §6.3 bounded-delay model with a `d`-beat
    /// window (see [`ScenarioSpec::timing`]).
    pub delay: u64,
    /// Which nodes are *actually* Byzantine (`None` = the `f` highest
    /// ids, the builder default). Lets resiliency experiments place more
    /// or fewer real faults than the budget, or make a specific node — a
    /// queen, a dealer — the traitor.
    pub byzantine: Option<Vec<u16>>,
    /// Optional instrumentation surfaced in the report extras
    /// (`metrics=decode`; default none, omitted from spec lines so
    /// historical lines and reports are unchanged).
    pub metrics: MetricsSpec,
    /// Wire codec: encoding format plus the byte-boundary toggle
    /// (`wire=fixed|packed|fixed-bytes|packed-bytes`; default fixed,
    /// omitted from spec lines).
    pub wire: WireSpec,
    /// Master seed; every random stream in the run derives from it.
    pub seed: u64,
    /// Maximum beats to execute before giving up on convergence.
    pub beat_budget: u64,
}

impl ScenarioSpec {
    /// A spec with the workspace defaults: `k = 8`, ticket coin, silent
    /// adversary, corrupted start, seed 0, 5000-beat budget.
    pub fn new(protocol: impl Into<String>, n: usize, f: usize) -> Self {
        ScenarioSpec {
            protocol: protocol.into(),
            n,
            f,
            clock_modulus: 8,
            coin: CoinSpec::Ticket,
            committee: None,
            adversary: AdversarySpec::Silent,
            fault_plan: FaultPlanSpec::corrupt_start(),
            delay: 0,
            byzantine: None,
            metrics: MetricsSpec::None,
            wire: WireSpec::Fixed,
            seed: 0,
            beat_budget: 5_000,
        }
    }

    /// Sets the clock modulus `k`.
    pub fn with_modulus(mut self, k: u64) -> Self {
        self.clock_modulus = k;
        self
    }

    /// Sets the coin.
    pub fn with_coin(mut self, coin: CoinSpec) -> Self {
        self.coin = coin;
        self
    }

    /// Selects the committee-subsampled coin with committee size `c`.
    pub fn with_committee(mut self, c: usize) -> Self {
        self.committee = Some(c);
        self
    }

    /// Sets the adversary.
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, fault_plan: FaultPlanSpec) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Sets the delivery-window width (0 = lockstep, `d >= 1` =
    /// bounded delay).
    pub fn with_delay(mut self, delay: u64) -> Self {
        self.delay = delay;
        self
    }

    /// The sim-layer [`TimingModel`] this spec selects.
    pub fn timing(&self) -> TimingModel {
        if self.delay == 0 {
            TimingModel::Lockstep
        } else {
            TimingModel::bounded(self.delay)
        }
    }

    /// Overrides which nodes are actually Byzantine.
    pub fn with_byzantine(mut self, ids: impl IntoIterator<Item = u16>) -> Self {
        self.byzantine = Some(ids.into_iter().collect());
        self
    }

    /// Requests extra instrumentation in the report extras.
    pub fn with_metrics(mut self, metrics: MetricsSpec) -> Self {
        self.metrics = metrics;
        self
    }

    /// Selects the wire codec (format + byte boundary).
    pub fn with_wire(mut self, wire: WireSpec) -> Self {
        self.wire = wire;
        self
    }

    /// The sim-layer [`WireConfig`] this spec selects.
    pub fn wire_config(&self) -> WireConfig {
        self.wire.config()
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the beat budget.
    pub fn with_budget(mut self, beats: u64) -> Self {
        self.beat_budget = beats;
        self
    }

    /// Structural validation shared by every protocol family.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |msg: String| Err(ScenarioError::InvalidSpec(msg));
        if self.n == 0 {
            return fail("cluster must have at least one node".into());
        }
        if self.f >= self.n {
            return fail(format!(
                "fault budget f={} must be below n={}",
                self.f, self.n
            ));
        }
        if self.n <= 2 * self.f {
            // The paper assumes n > 3f; n > 2f is the weakest budget at
            // which the n - f quorums still outnumber the liars (at
            // n <= 2f GVSS would grade dealers on n - 2f = 0 votes).
            // Rejecting here turns the sim layer's construction panic
            // into a diagnosable spec error.
            return fail(format!(
                "degenerate fault budget: n={} must exceed 2f={} (paper assumes n > 3f)",
                self.n,
                2 * self.f
            ));
        }
        if self.clock_modulus == 0 {
            return fail("clock modulus k must be at least 1".into());
        }
        if let Some(c) = self.committee {
            // The committee runs its own GVSS with budget f_c = (c-1)/3;
            // c >= 4 is the smallest committee with f_c >= 1 (c > 3f_c).
            if c < 4 {
                return fail(format!(
                    "committee size c={c} must be at least 4 (the committee's own n > 3f)"
                ));
            }
            if c > self.n {
                return fail(format!(
                    "committee size c={c} exceeds the cluster size n={}",
                    self.n
                ));
            }
            if self.coin != CoinSpec::Ticket {
                return fail(format!(
                    "committee={c} subsamples the GVSS ticket coin; it requires coin=ticket, \
                     not coin={}",
                    self.coin
                ));
            }
        }
        if self.beat_budget == 0 {
            return fail("beat budget must be at least 1".into());
        }
        if self.delay > 255 {
            return fail(format!(
                "delivery window delay={} is implausibly wide (max 255 beats)",
                self.delay
            ));
        }
        if let Some(byz) = &self.byzantine {
            let mut sorted = byz.clone();
            sorted.sort_unstable();
            let len_before = sorted.len();
            sorted.dedup();
            if sorted.len() != len_before {
                return fail("duplicate byzantine id".into());
            }
            if sorted.iter().any(|&id| usize::from(id) >= self.n) {
                return fail("byzantine id out of range".into());
            }
            if sorted.len() >= self.n {
                return fail("at least one node must stay correct".into());
            }
        }
        Ok(())
    }

    /// The keys [`ScenarioSpec::parse`] understands, in canonical order —
    /// kept next to the `match` below so diagnostics never drift from the
    /// parser.
    pub const KEYS: [&'static str; 13] = [
        "n",
        "f",
        "k",
        "coin",
        "committee",
        "adv",
        "faults",
        "delay",
        "byz",
        "metrics",
        "wire",
        "seed",
        "budget",
    ];

    /// Parses the single-line form (see the type-level example).
    ///
    /// Diagnostics name the offending token and list the valid keys, so a
    /// typo in a logged spec line (or a hand-edited sweep file) points
    /// straight at itself instead of failing generically.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        let mut tokens = s.split_whitespace();
        let protocol = tokens
            .next()
            .ok_or_else(|| ScenarioError::Parse("empty scenario spec".into()))?;
        let mut spec = ScenarioSpec::new(protocol, 4, 1);
        let mut saw_f = false;
        for tok in tokens {
            let (key, value) = tok.split_once('=').ok_or_else(|| {
                ScenarioError::Parse(format!(
                    "malformed token `{tok}`: expected key=value with a key from {}",
                    ScenarioSpec::KEYS.join(", ")
                ))
            })?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| ScenarioError::Parse(format!("bad number `{v}` for `{key}`")))
            };
            match key {
                "n" => spec.n = num(value)? as usize,
                "f" => {
                    spec.f = num(value)? as usize;
                    saw_f = true;
                }
                "k" => spec.clock_modulus = num(value)?,
                "coin" => spec.coin = value.parse()?,
                "committee" => spec.committee = Some(num(value)? as usize),
                "adv" => spec.adversary = value.parse()?,
                "faults" => spec.fault_plan = value.parse()?,
                "delay" => spec.delay = num(value)?,
                "byz" => {
                    spec.byzantine = Some(
                        value
                            .split(',')
                            .map(|i| {
                                i.parse::<u16>().map_err(|_| {
                                    ScenarioError::Parse(format!("bad byzantine id `{i}`"))
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                "metrics" => spec.metrics = value.parse()?,
                "wire" => spec.wire = value.parse()?,
                "seed" => spec.seed = num(value)?,
                "budget" => spec.beat_budget = num(value)?,
                _ => {
                    return Err(ScenarioError::Parse(format!(
                        "unknown spec key `{key}` (in token `{tok}`); valid keys: {}",
                        ScenarioSpec::KEYS.join(", ")
                    )));
                }
            }
        }
        if !saw_f {
            // The paper's default budget: the largest f with f < n/3.
            spec.f = spec.n.saturating_sub(1) / 3;
        }
        spec.validate()?;
        Ok(spec)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} n={} f={} k={} coin={}",
            self.protocol, self.n, self.f, self.clock_modulus, self.coin,
        )?;
        if let Some(c) = self.committee {
            // Like `delay`: the key renders only when set, so historical
            // full-coin spec lines stay byte-identical.
            write!(f, " committee={c}")?;
        }
        write!(f, " adv={} faults={}", self.adversary, self.fault_plan)?;
        if self.delay != 0 {
            // Lockstep lines stay byte-identical to the pre-timing-model
            // era: the key only appears for bounded-delay scenarios.
            write!(f, " delay={}", self.delay)?;
        }
        if let Some(byz) = &self.byzantine {
            write!(
                f,
                " byz={}",
                byz.iter().map(u16::to_string).collect::<Vec<_>>().join(",")
            )?;
        }
        if self.metrics != MetricsSpec::None {
            // Like `delay`, the key appears only when set, so historical
            // spec lines (and the reports that echo them) are unchanged.
            write!(f, " metrics={}", self.metrics)?;
        }
        if self.wire != WireSpec::Fixed {
            // Same pattern: the default wire codec renders nothing.
            write!(f, " wire={}", self.wire)?;
        }
        write!(f, " seed={} budget={}", self.seed, self.beat_budget)
    }
}

impl std::str::FromStr for ScenarioSpec {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        ScenarioSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_line_round_trips() {
        let spec = ScenarioSpec::new("clock-sync", 7, 2)
            .with_modulus(64)
            .with_coin(CoinSpec::oracle(0.4, 0.4))
            .with_adversary(AdversarySpec::SplitVote)
            .with_faults(FaultPlanSpec::storm(60, 100))
            .with_delay(2)
            .with_byzantine([0, 3])
            .with_seed(99)
            .with_budget(2_000);
        let line = spec.to_string();
        assert!(line.contains(" delay=2 "), "{line}");
        assert_eq!(ScenarioSpec::parse(&line).unwrap(), spec);
    }

    #[test]
    fn lockstep_specs_render_without_the_delay_key() {
        let spec = ScenarioSpec::new("two-clock", 4, 1);
        assert_eq!(spec.delay, 0);
        assert!(!spec.to_string().contains("delay="));
        assert_eq!(spec.timing(), byzclock_sim::TimingModel::Lockstep);
        let parsed = ScenarioSpec::parse("two-clock n=4 f=1 delay=0").unwrap();
        assert!(!parsed.to_string().contains("delay="));
    }

    #[test]
    fn delay_selects_the_bounded_model() {
        let spec = ScenarioSpec::parse("clock-sync n=7 f=2 k=8 coin=oracle delay=3").unwrap();
        assert_eq!(spec.delay, 3);
        assert_eq!(
            spec.timing(),
            byzclock_sim::TimingModel::BoundedDelay { window: 3 }
        );
        assert!(ScenarioSpec::parse("clock-sync n=7 f=2 delay=999").is_err());
    }

    #[test]
    fn default_f_follows_paper_budget() {
        let spec = ScenarioSpec::parse("two-clock n=10").unwrap();
        assert_eq!(spec.f, 3);
        let spec = ScenarioSpec::parse("two-clock n=10 f=1").unwrap();
        assert_eq!(spec.f, 1);
    }

    #[test]
    fn fault_plan_round_trips() {
        for s in [
            "none",
            "corrupt-start",
            "scramble@60",
            "corrupt-start+phantoms@60:100+blackout@61:2",
            "corrupt@35:0,1",
        ] {
            let plan: FaultPlanSpec = s.parse().unwrap();
            assert_eq!(plan.to_string(), s, "round trip failed for `{s}`");
        }
    }

    #[test]
    fn measurement_starts_after_last_fault() {
        assert_eq!(FaultPlanSpec::corrupt_start().measurement_start(), 0);
        assert_eq!(FaultPlanSpec::storm(60, 100).measurement_start(), 61);
        let plan: FaultPlanSpec = "scramble@40+blackout@41:2".parse().unwrap();
        assert_eq!(plan.measurement_start(), 44);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(ScenarioSpec::parse("").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 f=4").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 nonsense=1").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 coin=oracle:800,800").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 byz=9").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 faults=meteor@3").is_err());
        assert!(ScenarioSpec::parse("two-clock n=4 wire=zip").is_err());
    }

    #[test]
    fn degenerate_fault_budgets_are_rejected_with_a_diagnosis() {
        // n = 2f: the n - 2f grading threshold collapses to zero votes
        // (the recv_vote zero-vote Grade::One bug); rejected at validate
        // so it reads as a spec error instead of a construction panic.
        let err = ScenarioSpec::parse("clock-sync n=4 f=2").unwrap_err();
        assert!(err.to_string().contains("n > 3f"), "{err}");
        assert!(ScenarioSpec::parse("clock-sync n=6 f=3").is_err());
        // The resiliency boundary n = 3f stays expressible.
        assert!(ScenarioSpec::parse("clock-sync n=6 f=2").is_ok());
    }

    #[test]
    fn wire_knob_round_trips_and_defaults_off() {
        let spec = ScenarioSpec::new("clock-sync", 4, 1);
        assert_eq!(spec.wire, WireSpec::Fixed);
        assert!(!spec.to_string().contains("wire="));
        assert_eq!(spec.wire_config(), byzclock_sim::WireConfig::default());
        for (wire, token, boundary) in [
            (WireSpec::Packed, "wire=packed ", false),
            (WireSpec::FixedBytes, "wire=fixed-bytes ", true),
            (WireSpec::PackedBytes, "wire=packed-bytes ", true),
        ] {
            let on = spec.clone().with_wire(wire);
            let line = on.to_string();
            assert!(line.contains(token), "{line}");
            assert_eq!(ScenarioSpec::parse(&line).unwrap(), on);
            assert_eq!(on.wire_config().byte_boundary, boundary);
        }
        // An explicit default parses and renders back to nothing.
        let parsed = ScenarioSpec::parse("two-clock n=4 f=1 wire=fixed").unwrap();
        assert!(!parsed.to_string().contains("wire="));
    }

    #[test]
    fn committee_knob_round_trips_and_defaults_off() {
        let spec = ScenarioSpec::new("clock-sync", 128, 42);
        assert_eq!(spec.committee, None);
        assert!(!spec.to_string().contains("committee="));
        let on = spec.with_committee(19);
        let line = on.to_string();
        assert!(line.contains(" coin=ticket committee=19 adv="), "{line}");
        assert_eq!(ScenarioSpec::parse(&line).unwrap(), on);
        // An omitted key leaves the full coin in place.
        let parsed = ScenarioSpec::parse("clock-sync n=7 f=2 coin=ticket").unwrap();
        assert_eq!(parsed.committee, None);
    }

    #[test]
    fn committee_misconfigurations_are_rejected_with_a_diagnosis() {
        // Too small for the committee's own n > 3f.
        let err = ScenarioSpec::parse("clock-sync n=16 f=5 committee=3").unwrap_err();
        assert!(err.to_string().contains("at least 4"), "{err}");
        // Bigger than the cluster.
        let err = ScenarioSpec::parse("clock-sync n=7 f=2 committee=8").unwrap_err();
        assert!(err.to_string().contains("exceeds the cluster"), "{err}");
        // Only the ticket coin can be subsampled.
        let err = ScenarioSpec::parse("clock-sync n=16 f=5 coin=oracle committee=7").unwrap_err();
        assert!(err.to_string().contains("coin=ticket"), "{err}");
        // The boundary cases stay expressible.
        assert!(ScenarioSpec::parse("clock-sync n=16 f=5 committee=4").is_ok());
        assert!(ScenarioSpec::parse("clock-sync n=16 f=5 committee=16").is_ok());
    }

    #[test]
    fn metrics_knob_round_trips_and_defaults_off() {
        let spec = ScenarioSpec::new("clock-sync", 4, 1);
        assert_eq!(spec.metrics, MetricsSpec::None);
        assert!(!spec.to_string().contains("metrics="));
        for (metrics, token) in [
            (MetricsSpec::Decode, " metrics=decode "),
            (MetricsSpec::Alloc, " metrics=alloc "),
        ] {
            let on = spec.clone().with_metrics(metrics);
            let line = on.to_string();
            assert!(line.contains(token), "{line}");
            assert_eq!(ScenarioSpec::parse(&line).unwrap(), on);
        }
        assert!(ScenarioSpec::parse("two-clock n=4 metrics=bogus").is_err());
    }

    #[test]
    fn documented_spec_lines_parse_and_round_trip() {
        // The exact one-line grammar examples shown in ROADMAP.md,
        // README.md/ARCHITECTURE.md, the type-level rustdoc above, the
        // experiments binary's usage text, and the CI smoke steps. A
        // failure here means the documentation has drifted from the
        // parser.
        let documented = [
            // ROADMAP.md scenario-API section / type-level rustdoc example
            "clock-sync n=7 f=2 k=64 coin=ticket adv=silent faults=corrupt-start seed=3 \
             budget=3000",
            // experiments usage text
            "clock-sync n=7 f=2 k=64 coin=ticket delay=2",
            // CI smoke lines
            "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start seed=1 \
             budget=2000",
            "two-clock n=7 f=2 coin=oracle adv=split-vote faults=corrupt-start seed=1 \
             budget=2000",
            "clock-sync n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 seed=1 \
             budget=500",
            "bd-clock n=7 f=2 k=8 coin=oracle adv=silent faults=corrupt-start delay=2 seed=1 \
             budget=3000",
            // ROADMAP.md bd-clock registration line / ARCHITECTURE.md grammar
            "bd-clock n=7 f=2 k=8 coin=oracle delay=2",
            // ARCHITECTURE.md instrumentation examples
            "coin-stream n=7 f=2 coin=ticket faults=none metrics=decode budget=40",
            "coin-stream n=7 f=2 coin=ticket faults=none metrics=alloc budget=40",
            // README/ARCHITECTURE.md committee-coin grammar example
            "clock-sync n=128 f=42 k=8 coin=ticket committee=19 adv=silent \
             faults=corrupt-start seed=1 budget=400",
            // CI committee-at-scale smoke line
            "clock-sync n=512 f=170 k=8 coin=ticket committee=34 adv=silent \
             faults=corrupt-start seed=1 budget=400",
            // CI wire-codec smoke lines / ARCHITECTURE.md wire-format section
            "coin-stream n=7 f=2 coin=ticket adv=silent faults=none wire=packed seed=1 \
             budget=40",
            "clock-sync n=4 f=1 k=16 coin=ticket adv=silent faults=corrupt-start \
             wire=packed-bytes seed=1 budget=2000",
        ];
        for line in documented {
            let spec = ScenarioSpec::parse(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            let rendered = spec.to_string();
            assert_eq!(
                ScenarioSpec::parse(&rendered).unwrap(),
                spec,
                "`{line}` -> `{rendered}`"
            );
        }
    }

    #[test]
    fn keys_match_the_rendered_grammar_exactly() {
        // A spec with every optional field set renders every key in KEYS,
        // in KEYS order, and nothing else — so the parser diagnostics, the
        // documented grammar, and Display can never disagree.
        let spec = ScenarioSpec::new("clock-sync", 7, 2)
            .with_modulus(64)
            .with_committee(4)
            .with_delay(2)
            .with_byzantine([0, 3])
            .with_metrics(MetricsSpec::Decode)
            .with_wire(WireSpec::PackedBytes);
        let line = spec.to_string();
        let rendered: Vec<&str> = line
            .split_whitespace()
            .skip(1) // protocol name
            .map(|tok| tok.split_once('=').expect("key=value token").0)
            .collect();
        assert_eq!(rendered, ScenarioSpec::KEYS);
    }

    #[test]
    fn unknown_key_diagnostic_names_token_and_lists_keys() {
        let err = ScenarioSpec::parse("two-clock n=4 dealy=2").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`dealy`"), "{msg}");
        assert!(msg.contains("`dealy=2`"), "{msg}");
        for key in ScenarioSpec::KEYS {
            assert!(msg.contains(key), "missing valid key `{key}` in: {msg}");
        }
    }

    #[test]
    fn malformed_token_diagnostic_names_token_and_lists_keys() {
        let err = ScenarioSpec::parse("two-clock n=4 delay2").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`delay2`"), "{msg}");
        assert!(msg.contains("key=value"), "{msg}");
        assert!(msg.contains("budget"), "{msg}");
    }

    #[test]
    fn coin_spec_forms() {
        assert_eq!(
            "oracle".parse::<CoinSpec>().unwrap(),
            CoinSpec::perfect_oracle()
        );
        assert_eq!(
            "oracle:250,250".parse::<CoinSpec>().unwrap(),
            CoinSpec::oracle(0.25, 0.25)
        );
        assert!((CoinSpec::oracle(0.25, 0.5).p1() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adversary_spec_forms() {
        for s in [
            "silent",
            "random-vote",
            "equivocate",
            "split-vote",
            "rand-aware-splitter",
            "coin-noise:4",
            "inconsistent-dealer",
            "recover-equivocator:3",
            "ba-equivocator",
            "ba-equivocator:mixed",
        ] {
            let adv: AdversarySpec = s.parse().unwrap();
            assert_eq!(adv.to_string(), s, "round trip failed for `{s}`");
        }
    }
}
