//! The graded verifiable secret sharing core (Observation 2.1's substrate).
//!
//! One [`GvssCore`] drives the four rounds of a single coin instance in
//! which *every* node deals a batch of `targets` secrets:
//!
//! 1. **share** — dealer `d` hides each secret in a symmetric bivariate
//!    polynomial of degree `f` and sends node `i` the rows `S(x, i)`;
//! 2. **echo** — node `i` sends node `m` the cross-points `S(m, i)`;
//!    symmetry makes them checkable against `m`'s own rows;
//! 3. **vote** — node `i` broadcasts, per dealer, whether at least `n − f`
//!    echo senders matched its rows on every target (`content`). Grades
//!    are then fixed locally: `2` at `n − f` content votes, `1` at
//!    `n − 2f`. If the dealer is correct every correct node grades 2; if
//!    any correct node grades 2, every correct node grades at least 1
//!    (vote counts at two correct nodes differ by at most the `f`
//!    equivocating voters);
//! 4. **recover** — everyone broadcasts its shares `S(0, i)`; each secret
//!    is reconstructed by Berlekamp–Welch, which tolerates the `f` lying
//!    shares, so revealing is *binding* even against recover-round rushing.
//!
//! Until round 4 begins, any coalition of `f` nodes holds only `f` points
//! of degree-`f` polynomials for every correct dealer's secrets —
//! information-theoretically nothing (Definition 2.6's unpredictability).

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::messages::{check_matrix, CoinMsg, FlatMatrix};
use byzclock_field::{BatchDecoder, Fp, SymmetricBivariate};
use byzclock_sim::{NodeCfg, NodeId, SimRng, Target};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// Per-round sender dedup: claims `from`'s slot in `seen` and reports
/// whether the message should be *skipped* — `true` when the sender
/// already spent its one message this round (first wins; a malformed
/// first message still spends the slot) or its id is out of range.
fn claim_sender_slot(seen: &mut [bool], from: &NodeId) -> bool {
    match seen.get_mut(from.index()) {
        Some(slot) => std::mem::replace(slot, true),
        None => true,
    }
}

/// Grade of a dealer at this node after the vote round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Grade {
    /// Rejected: fewer than `n − 2f` content votes.
    Zero,
    /// Accepted, but other correct nodes might have rejected.
    One,
    /// Accepted with certainty that every correct node accepted.
    Two,
}

/// Recover-round decode accounting for one GVSS instance.
///
/// All codewords routed through one shared [`BatchDecoder`] (one set of
/// tables over one point set) count as one *batch*; in the honest case every included dealer's
/// openers coincide, so a whole beat's `dealers × targets` decodes ride a
/// single batch. Instrumentation only — it never influences the protocol
/// and (like `CoinApp`'s history) survives `corrupt`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Distinct point-set decoders built by recover rounds.
    pub batches: u64,
    /// Codewords decoded through those batches.
    pub codewords: u64,
}

impl DecodeStats {
    /// The counters as named instrumentation pairs — the shape
    /// `RoundProtocol::metrics` reports and the scenario extras consume
    /// (one definition, so the coin schemes can never drift apart on
    /// key names).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("decode_batches", self.batches as f64),
            ("decode_codewords", self.codewords as f64),
        ]
    }
}

/// Hot-path allocation accounting for one GVSS instance (the
/// `metrics=alloc` counters).
///
/// `storage_builds`/`decoder_builds` count the expensive work this
/// instance had to do from scratch — allocating a fresh O(n²)
/// share-matrix block, building a point set's decoder —
/// while `storage_reuses`/`decoder_hits` count the times the shared
/// [`GvssWorkspace`] satisfied the need from its pool or cache instead.
/// In the steady state of a pipelined coin every instance reuses retired
/// storage and cached decoders, so "steady-state beats allocate
/// nothing in the GVSS path" is the assertion
/// `storage_builds == 0 && decoder_builds == 0` per instance after
/// warm-up. Instrumentation only; survives `corrupt`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Fresh storage blocks allocated (the workspace pool was empty).
    pub storage_builds: u64,
    /// Storage blocks recycled from the workspace pool.
    pub storage_reuses: u64,
    /// Decoder cache misses: a new decoder entry was built.
    pub decoder_builds: u64,
    /// Recover-round point sets served by a cached decoder.
    pub decoder_hits: u64,
}

impl AllocStats {
    /// The counters as named instrumentation pairs, mirroring
    /// [`DecodeStats::metrics`] so `metrics=alloc` scenarios can sum them
    /// across retired instances.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("alloc_storage_builds", self.storage_builds as f64),
            ("alloc_storage_reuses", self.storage_reuses as f64),
            ("alloc_decoder_builds", self.decoder_builds as f64),
            ("alloc_decoder_hits", self.decoder_hits as f64),
        ]
    }
}

/// The per-instance O(n²) state block, split out of [`GvssCore`] so a
/// retired instance can hand it back to a [`GvssWorkspace`] and the next
/// instance can reuse the capacity instead of reallocating every beat.
///
/// Matrices are flat row-major (`dealer * n + sender`,
/// `dealer * targets + t`): one allocation each instead of `n` nested
/// ones, and `reset` touches lengths and values, never capacity.
#[derive(Debug, Default)]
struct GvssStorage {
    /// `[(dealer * targets + t) * (f + 1) + k]` -> coefficient `k` of my
    /// row for `dealer`'s target `t`, zero-padded to the degree bound — a
    /// padded row evaluates exactly like the `Poly::from_coeffs` trim it
    /// stands for. Meaningful only where `present`.
    coeffs: Vec<u64>,
    /// `[dealer] -> I hold rows from dealer`.
    present: Vec<bool>,
    /// The echo memo: `[node] -> the Echo payload I send it`, my rows at
    /// its share point — which by symmetry is also what its echo to me
    /// must say. Derived from `coeffs`/`present` by
    /// [`GvssCore::build_echoes`]; empty when stale (`recv_share`,
    /// `corrupt` and `reset` clear it, `recv_echo` drops it when done).
    echoes: Vec<Arc<FlatMatrix>>,
    /// `[dealer * n + sender] -> all targets matched my rows`.
    matches: Vec<bool>,
    /// Per-dealer count of `true` entries in `matches`, maintained
    /// incrementally at write time so the vote round reads a counter
    /// instead of rescanning a row per dealer.
    match_counts: Vec<u32>,
    /// `[dealer * n + voter] -> content vote received`.
    votes: Vec<bool>,
    /// Per-dealer count of `true` votes (same incremental scheme).
    vote_counts: Vec<u32>,
    /// `[dealer] -> grade` (fixed at the end of the vote round).
    grades: Vec<Grade>,
    /// `[dealer * targets + t] -> recovered value` (None = decode failed).
    recovered: Vec<Option<u64>>,
    /// Per-round sender-dedup scratch.
    seen: Vec<bool>,
}

impl GvssStorage {
    /// Clears values and (re)sizes every buffer for an `(n, f, targets)`
    /// instance, preserving capacity from previous lives.
    fn reset(&mut self, n: usize, f: usize, targets: usize) {
        self.coeffs.clear();
        self.coeffs.resize(n * targets * (f + 1), 0);
        self.present.clear();
        self.present.resize(n, false);
        self.echoes.clear();
        self.matches.clear();
        self.matches.resize(n * n, false);
        self.match_counts.clear();
        self.match_counts.resize(n, 0);
        self.votes.clear();
        self.votes.resize(n * n, false);
        self.vote_counts.clear();
        self.vote_counts.resize(n, 0);
        self.grades.clear();
        self.grades.resize(n, Grade::Zero);
        self.recovered.clear();
        self.recovered.resize(n * targets, None);
        self.seen.clear();
        self.seen.resize(n, false);
    }
}

/// Retired storage blocks kept for reuse; a pipeline holds at most `Δ_A`
/// live instances per node, so a handful suffices.
const POOL_CAP: usize = 8;
/// Distinct evaluation-point sets cached across beats. Byzantine senders
/// and scrambled instances can vary the sets, so on overflow the cache is
/// cut back to its most-hit entry rather than grown without bound: the
/// honest set is hit by every dealer of every beat, a hostile one a
/// handful of times.
const DECODER_CACHE_CAP: usize = 32;

/// Shared, cross-instance recycling arena for the GVSS hot path.
///
/// One workspace is held per node per coin pipeline (the scheme clones its
/// handle into every spawned instance); no workspace is ever shared across
/// nodes. The handle is an `Arc<Mutex<…>>` rather than an `Rc<RefCell<…>>`
/// only so application types stay `Send`: a run steps its beats serially,
/// so the lock is never contended. It holds
///
/// - a pool of retired `GvssStorage` blocks, returned on instance drop,
///   so steady-state instances reuse O(n²) matrix capacity instead of
///   reallocating it every beat,
/// - a cache of [`BatchDecoder`]s (the clean, erasure and Berlekamp–Welch
///   rungs' interpolation tables) keyed by the recover round's
///   evaluation-point set — in the honest steady state every beat reuses
///   the same point set, so they are built once per run instead of once
///   per beat, and
/// - the share-point power table the dealing and echo rounds evaluate
///   against, and
/// - the scratch the dealing, the echo memo and the recover round work
///   in, sized once for the largest instance it has served.
///
/// The decoders and the power table are pure functions of
/// `(n, f, point set)` — constants in the sense of the paper's Remark 2.1,
/// not protocol memory — which is why [`GvssCore::corrupt`] leaves the
/// workspace alone. The one learned thing a cached decoder holds, its
/// liar hint, is exempt on another ground: it changes what a decode
/// costs, never what it returns. The scratch is neither: every call
/// writes the part it reads before reading it, so nothing in it outlives
/// the call.
#[derive(Debug, Clone, Default)]
pub struct GvssWorkspace(Arc<Mutex<WorkspaceInner>>);

#[derive(Debug, Default)]
struct WorkspaceInner {
    pool: Vec<GvssStorage>,
    decoders: Vec<CachedDecoder>,
    pows: Option<Arc<SharePowers>>,
    /// Deal and echo scratch: the coefficients of rows cut at every share
    /// point (`send_share`, `targets × (f + 1) × n`), or one row's values
    /// at every share point (the echo memo, `n`).
    evals: Vec<u64>,
    view: RecoverView,
}

/// The recover round's scratch: the shares one `recv_recover` call
/// received, laid out for the decoder at a fixed stride of `n` openers, so
/// filling it moves no row and grows no vector.
#[derive(Debug, Default)]
struct RecoverView {
    /// `[dealer · n + k]` -> the share point of `dealer`'s `k`-th opener.
    xs: Vec<u64>,
    /// `[dealer]` -> how many openers `dealer` has so far.
    opened: Vec<usize>,
    /// `[(dealer · targets + t) · n + k]` -> the `k`-th opener's reduced
    /// share of `dealer`'s target `t`: the codeword the decoder reads is
    /// the first `opened[dealer]` of them.
    ys: Vec<u64>,
}

impl WorkspaceInner {
    /// Grows the scratch to serve an `(n, f, targets)` instance; a
    /// workspace that has served one this size already allocates nothing.
    fn fit_scratch(&mut self, n: usize, f: usize, targets: usize) {
        grow(&mut self.evals, (targets * (f + 1)).max(1) * n);
        grow(&mut self.view.xs, n * n);
        grow(&mut self.view.opened, n);
        grow(&mut self.view.ys, n * targets * n);
    }
}

/// Lengthens `v` to `len` with default values; never shortens it.
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

/// One decoder-cache entry. `decoder` is `None` for a point set no
/// codeword can be decoded over (too few or duplicate openers), cached so
/// a bad set is probed once.
#[derive(Debug)]
struct CachedDecoder {
    xs: Vec<u64>,
    decoder: Option<BatchDecoder>,
    hits: u64,
}

/// Powers `x⁰..=x^f` of every node's share point, transposed
/// (`(f + 1) × n`, [`Fp::power_columns`]): the table the dealing and the
/// echo memo evaluate against with [`Fp::eval_columns`].
#[derive(Debug)]
struct SharePowers {
    n: usize,
    f: usize,
    columns: Vec<u32>,
}

impl SharePowers {
    fn new(fp: &Fp, cfg: &NodeCfg) -> Self {
        let points: Vec<u64> = cfg.all_ids().map(|id| id.share_point()).collect();
        SharePowers {
            n: cfg.n,
            f: cfg.f,
            columns: fp.power_columns(&points, cfg.f + 1),
        }
    }
}

impl GvssWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        GvssWorkspace::default()
    }
}

/// Per-instance GVSS state for one node: its own dealings plus its view of
/// every other dealer.
#[derive(Debug)]
pub struct GvssCore {
    cfg: NodeCfg,
    fp: Fp,
    targets: usize,
    /// My dealings (as dealer), one bivariate per target. Filled at round 0.
    dealt: Vec<SymmetricBivariate>,
    /// My secret values (the constant terms of `dealt`).
    my_secrets: Vec<u64>,
    /// The recycled matrix/scratch block (returned to `workspace` on drop).
    st: GvssStorage,
    /// Recover-round decode accounting (instrumentation).
    decode_stats: DecodeStats,
    /// Hot-path allocation accounting (instrumentation).
    alloc_stats: AllocStats,
    pows: Arc<SharePowers>,
    workspace: GvssWorkspace,
}

impl Drop for GvssCore {
    fn drop(&mut self) {
        let st = std::mem::take(&mut self.st);
        if let Ok(mut ws) = self.workspace.0.lock() {
            if ws.pool.len() < POOL_CAP {
                ws.pool.push(st);
            }
        }
    }
}

impl GvssCore {
    /// Fresh instance state with a private workspace. `targets` is the
    /// per-dealer secret count.
    pub fn new(cfg: NodeCfg, targets: usize) -> Self {
        GvssCore::with_workspace(cfg, targets, GvssWorkspace::new())
    }

    /// Fresh instance state drawing storage and cached decoders from
    /// `workspace` (the pipelined steady-state path).
    pub fn with_workspace(cfg: NodeCfg, targets: usize, workspace: GvssWorkspace) -> Self {
        let n = cfg.n;
        let fp = Fp::for_cluster(n);
        let mut alloc_stats = AllocStats::default();
        let (pooled, pows) = {
            let mut ws = workspace.0.lock().expect("workspace lock");
            let pows = match &ws.pows {
                Some(pows) if (pows.n, pows.f) == (n, cfg.f) => Arc::clone(pows),
                _ => Arc::clone(ws.pows.insert(Arc::new(SharePowers::new(&fp, &cfg)))),
            };
            ws.fit_scratch(n, cfg.f, targets);
            (ws.pool.pop(), pows)
        };
        let mut st = match pooled {
            Some(st) => {
                alloc_stats.storage_reuses += 1;
                st
            }
            None => {
                alloc_stats.storage_builds += 1;
                GvssStorage::default()
            }
        };
        st.reset(n, cfg.f, targets);
        GvssCore {
            cfg,
            fp,
            targets,
            dealt: Vec::new(),
            my_secrets: Vec::new(),
            st,
            decode_stats: DecodeStats::default(),
            alloc_stats,
            pows,
            workspace,
        }
    }

    /// The field in use (`p` = smallest prime above `n`).
    pub fn field(&self) -> &Fp {
        &self.fp
    }

    /// My dealt secret values (empty before round 0).
    pub fn my_secrets(&self) -> &[u64] {
        &self.my_secrets
    }

    /// The grade assigned to `dealer`.
    pub fn grade(&self, dealer: NodeId) -> Grade {
        self.st.grades[dealer.index()]
    }

    /// Dealers included in the combine step (grade ≥ 1).
    pub fn included(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.st
            .grades
            .iter()
            .enumerate()
            .filter(|&(_, g)| *g >= Grade::One)
            .map(|(d, _)| NodeId::new(d as u16))
    }

    /// Recovered value of `dealer`'s `target`-th secret (None until the
    /// recover round, or when decoding failed).
    pub fn recovered(&self, dealer: NodeId, target: usize) -> Option<u64> {
        self.st.recovered[dealer.index() * self.targets + target]
    }

    /// This instance's recover-round decode accounting.
    pub fn decode_stats(&self) -> DecodeStats {
        self.decode_stats
    }

    /// This instance's hot-path allocation accounting.
    pub fn alloc_stats(&self) -> AllocStats {
        self.alloc_stats
    }

    /// Round 0 send: deal my batch. `sample` draws each secret (e.g.
    /// uniform in `[0, n)` for tickets, `{0, 1}` for the XOR coin).
    pub fn send_share(
        &mut self,
        rng: &mut SimRng,
        mut sample: impl FnMut(&mut SimRng) -> u64,
        out: &mut Vec<(Target, CoinMsg)>,
    ) {
        let (n, f, targets) = (self.cfg.n, self.cfg.f, self.targets);
        self.my_secrets = (0..targets)
            .map(|_| sample(rng) % self.fp.modulus())
            .collect();
        self.dealt = self
            .my_secrets
            .iter()
            .map(|&s| SymmetricBivariate::random_with_secret(&self.fp, s, f, rng))
            .collect();
        // Every row of every target at once: per target, coefficient `a`
        // of the row at node `m` lands at `a · n + m`.
        let block = (f + 1) * n;
        let mut ws = self.workspace.0.lock().expect("workspace lock");
        let cuts = &mut ws.evals[..targets * block];
        for (biv, cut) in self.dealt.iter().zip(cuts.chunks_exact_mut(block)) {
            biv.row_columns(&self.fp, &self.pows.columns, cut);
        }
        for to in self.cfg.all_ids() {
            let mut rows = FlatMatrix::with_capacity(targets, targets * (f + 1));
            for cut in cuts.chunks_exact(block) {
                rows.push_row_with(|elems| {
                    // Read down `to`'s column, then strip trailing zeros
                    // as `Poly::from_coeffs` does: the wire carries
                    // exactly `row(to.share_point())`.
                    let start = elems.len();
                    elems.extend(cut[to.index()..].iter().step_by(n));
                    let len = elems[start..].iter().rposition(|&c| c != 0);
                    elems.truncate(len.map_or(start, |last| start + last + 1));
                });
            }
            let rows = Arc::new(rows);
            out.push((Target::One(to), CoinMsg::Row { rows }));
        }
    }

    /// Round 0 receive: store (validated, reduced, zero-padded) rows per
    /// dealer. A message whose row count is not `targets`, or with any row
    /// absent or above the degree bound, is ignored whole.
    pub fn recv_share(&mut self, inbox: &[(NodeId, CoinMsg)]) {
        self.st.echoes.clear();
        let stride = self.cfg.f + 1;
        let block = self.targets * stride;
        for (from, msg) in inbox {
            let CoinMsg::Row { rows } = msg else { continue };
            if rows.len() != self.targets
                || !rows
                    .rows()
                    .all(|row| row.is_some_and(|row| row.len() <= stride))
            {
                continue;
            }
            let dealer = from.index();
            let mine = &mut self.st.coeffs[dealer * block..][..block];
            for (padded, row) in mine.chunks_exact_mut(stride).zip(rows.rows().flatten()) {
                padded.fill(0);
                for (c, &v) in padded.iter_mut().zip(row) {
                    *c = self.fp.reduce(v);
                }
            }
            self.st.present[dealer] = true;
        }
    }

    /// Builds the echo memo from the rows I hold: every row evaluated once
    /// at all `n` share points ([`Fp::eval_columns`]), scattered into one
    /// `Echo` payload per recipient. `send_echo` ships the payloads;
    /// `recv_echo` checks each sender's echo against the one it was sent,
    /// rebuilding the memo here first if it is stale — one evaluation path
    /// for both rounds, from whatever the rows hold, scrambled included.
    fn build_echoes(&mut self) {
        let n = self.cfg.n;
        let targets = self.targets;
        let stride = self.cfg.f + 1;
        let st = &mut self.st;
        let mut ws = self.workspace.0.lock().expect("workspace lock");
        let evals = &mut ws.evals[..n];
        let mut echoes: Vec<FlatMatrix> = (0..n)
            .map(|_| FlatMatrix::zeroed(&st.present, targets))
            .collect();
        let held = (0..n).filter(|&dealer| st.present[dealer]);
        for (slot, dealer) in held.enumerate() {
            for t in 0..targets {
                let row = &st.coeffs[(dealer * targets + t) * stride..][..stride];
                self.fp.eval_columns(row, &self.pows.columns, evals);
                let at = slot * targets + t;
                for (echo, &v) in echoes.iter_mut().zip(&*evals) {
                    echo.elems_mut()[at] = v;
                }
            }
        }
        st.echoes.clear();
        st.echoes.extend(echoes.into_iter().map(Arc::new));
    }

    /// Round 1 send: cross-points to every node — the echo memo's
    /// payloads, kept for `recv_echo`.
    pub fn send_echo(&mut self, out: &mut Vec<(Target, CoinMsg)>) {
        self.build_echoes();
        for (to, points) in self.cfg.all_ids().zip(&self.st.echoes) {
            let points = Arc::clone(points);
            out.push((Target::One(to), CoinMsg::Echo { points }));
        }
    }

    /// Round 1 receive: record which senders' cross-points match my rows.
    /// One `Echo` per sender (first wins, like [`GvssCore::recv_vote`] and
    /// [`GvssCore::recv_recover`]).
    ///
    /// By symmetry, `S(m, i) = S(i, m)`: sender `m`'s point for me must
    /// equal my row at `m`'s share point, which is exactly the entry of
    /// the echo I sent `m`. So each received point is reduced and compared
    /// with the memo, and nothing is evaluated here (unless the memo is
    /// stale, when the private `build_echoes` rebuilds it first — the one
    /// evaluation path `send_echo` uses too). The memo is dropped at the
    /// end: it is one round's derived state.
    ///
    /// The per-dealer match tally is maintained incrementally here, at
    /// write time, so `send_vote` reads a counter per dealer instead of
    /// rescanning an `n`-entry row — O(n) per message stays O(n), and the
    /// vote round drops from O(n²) to O(n).
    pub fn recv_echo(&mut self, inbox: &[(NodeId, CoinMsg)]) {
        let n = self.cfg.n;
        if self.st.echoes.len() != n {
            self.build_echoes();
        }
        self.st.seen.iter_mut().for_each(|s| *s = false);
        for (from, msg) in inbox {
            let CoinMsg::Echo { points } = msg else {
                continue;
            };
            if claim_sender_slot(&mut self.st.seen, from) {
                continue;
            }
            let Some(points) = check_matrix(points, n, self.targets) else {
                continue;
            };
            let sent = &self.st.echoes[from.index()];
            for dealer in 0..n {
                let (Some(mine), Some(theirs)) = (sent.get(dealer), points.get(dealer)) else {
                    continue;
                };
                let all_match = mine
                    .iter()
                    .zip(theirs)
                    .all(|(&m, &p)| m == self.fp.reduce(p));
                let slot = &mut self.st.matches[dealer * n + from.index()];
                if *slot != all_match {
                    // Delta form keeps the counter exact even if a slot
                    // were ever rewritten (first-wins makes that
                    // unreachable today).
                    *slot = all_match;
                    if all_match {
                        self.st.match_counts[dealer] += 1;
                    } else {
                        self.st.match_counts[dealer] -= 1;
                    }
                }
            }
        }
        self.st.echoes.clear();
    }

    /// Round 2 send: broadcast contentment per dealer — a counter read per
    /// dealer thanks to the incremental tally in [`GvssCore::recv_echo`].
    pub fn send_vote(&mut self, out: &mut Vec<(Target, CoinMsg)>) {
        let quorum = self.cfg.quorum();
        // Collected straight into the shared slice: one allocation.
        let content = (0..self.cfg.n)
            .map(|dealer| {
                self.st.present[dealer] && self.st.match_counts[dealer] as usize >= quorum
            })
            .collect();
        out.push((Target::All, CoinMsg::Vote { content }));
    }

    /// Round 2 receive: tally votes, fix grades. One `Vote` per sender
    /// (first wins) — without the dedup a double-send would simply
    /// overwrite, but first-wins keeps the accounting uniform across the
    /// three tally rounds. Vote counts are maintained incrementally per
    /// message, so the grade fix is one counter read per dealer instead of
    /// an O(n) rescan.
    pub fn recv_vote(&mut self, inbox: &[(NodeId, CoinMsg)]) {
        let n = self.cfg.n;
        self.st.seen.iter_mut().for_each(|s| *s = false);
        for (from, msg) in inbox {
            let CoinMsg::Vote { content } = msg else {
                continue;
            };
            if claim_sender_slot(&mut self.st.seen, from) {
                continue;
            }
            if content.len() != n {
                continue;
            }
            for dealer in 0..n {
                let slot = &mut self.st.votes[dealer * n + from.index()];
                if *slot != content[dealer] {
                    *slot = content[dealer];
                    if content[dealer] {
                        self.st.vote_counts[dealer] += 1;
                    } else {
                        self.st.vote_counts[dealer] -= 1;
                    }
                }
            }
        }
        let f = self.cfg.f;
        for dealer in 0..n {
            let count = self.st.vote_counts[dealer] as usize;
            self.st.grades[dealer] = if count >= n - f {
                Grade::Two
            } else if count >= n.saturating_sub(2 * f) {
                Grade::One
            } else {
                Grade::Zero
            };
        }
    }

    /// Round 3 send: broadcast my secret shares `S(0, me)` for every dealer
    /// I hold rows from (regardless of grade — inclusion is the receiver's
    /// local decision, and extra shares only help decoding).
    pub fn send_recover(&mut self, out: &mut Vec<(Target, CoinMsg)>) {
        let (targets, stride) = (self.targets, self.cfg.f + 1);
        let (coeffs, present) = (&self.st.coeffs, &self.st.present);
        let mut shares = FlatMatrix::zeroed(present, targets);
        // A row at 0 is its constant coefficient.
        let held = (0..self.cfg.n).filter(|&dealer| present[dealer]);
        let constants = held
            .flat_map(|dealer| (0..targets).map(move |t| coeffs[(dealer * targets + t) * stride]));
        for (share, c) in shares.elems_mut().iter_mut().zip(constants) {
            *share = c;
        }
        let shares = Arc::new(shares);
        out.push((Target::All, CoinMsg::Recover { shares }));
    }

    /// Round 3 receive: Berlekamp–Welch per (included dealer, target),
    /// with every decode of the beat submitted through a [`BatchDecoder`].
    ///
    /// A sender opens either all of a dealer's targets or none
    /// (`check_matrix`), so all `targets` codewords of one dealer share
    /// one evaluation-point set — and in the honest case every dealer's
    /// openers coincide, so the whole beat shares one decoder and its
    /// tables. Results are identical to per-codeword `rs::decode` (pinned
    /// by proptests in `byzclock-field`); only the cost of building the
    /// tables is amortized. The reduced shares are laid out in the
    /// workspace's recover view, which the decoder reads in place.
    pub fn recv_recover(&mut self, inbox: &[(NodeId, CoinMsg)]) {
        let n = self.cfg.n;
        let f = self.cfg.f;
        let targets = self.targets;
        let mut ws = self.workspace.0.lock().expect("workspace lock");
        let ws = &mut *ws;
        // Per dealer: the openers' share points, and one codeword (a y per
        // opener) per target.
        let view = &mut ws.view;
        view.opened[..n].fill(0);
        // One `Recover` per sender, first wins. This dedup is
        // load-bearing, not bookkeeping: a second copy of the same message
        // (a phantom replay, a Byzantine double-send) would add the
        // sender's share point to a dealer's openers twice, the duplicate
        // x-point would make [`BatchDecoder::new`] return `None`, and
        // *every* codeword of every dealer sharing that point set would
        // fail to open — one replayed envelope stalling the whole recover
        // round.
        self.st.seen.iter_mut().for_each(|s| *s = false);
        for (from, msg) in inbox {
            let CoinMsg::Recover { shares } = msg else {
                continue;
            };
            if claim_sender_slot(&mut self.st.seen, from) {
                continue;
            }
            let Some(shares) = check_matrix(shares, n, self.targets) else {
                continue;
            };
            for dealer in 0..n {
                if let Some(vals) = shares.get(dealer) {
                    let k = view.opened[dealer];
                    view.opened[dealer] += 1;
                    view.xs[dealer * n + k] = from.share_point();
                    for (t, &v) in vals.iter().enumerate() {
                        view.ys[(dealer * targets + t) * n + k] = self.fp.reduce(v);
                    }
                }
            }
        }
        // One decoder per distinct point set, looked up in the workspace
        // cache — which persists across beats, so in the honest steady
        // state (every beat's openers coincide) the tables are built
        // once per run instead of once per beat. `None` decoders (too few
        // or duplicate openers) fail every codeword, exactly as the
        // one-shot decode would, and are cached too so a bad point set is
        // probed once.
        for dealer in 0..n {
            if self.st.grades[dealer] < Grade::One {
                continue;
            }
            let opened = view.opened[dealer];
            let xs = &view.xs[dealer * n..][..opened];
            let idx = match ws.decoders.iter().position(|entry| entry.xs == xs) {
                Some(idx) => {
                    self.alloc_stats.decoder_hits += 1;
                    ws.decoders[idx].hits += 1;
                    idx
                }
                None => {
                    if ws.decoders.len() >= DECODER_CACHE_CAP {
                        let most_hit = (0..ws.decoders.len())
                            .max_by_key(|&i| ws.decoders[i].hits)
                            .expect("the cap is nonzero");
                        ws.decoders.swap(0, most_hit);
                        ws.decoders.truncate(1);
                    }
                    let decoder = BatchDecoder::new(&self.fp, xs, f);
                    // Count only decoders that were actually built;
                    // unusable point sets never become a batch.
                    self.decode_stats.batches += u64::from(decoder.is_some());
                    self.alloc_stats.decoder_builds += 1;
                    ws.decoders.push(CachedDecoder {
                        // The cold path: once per distinct point set per
                        // run, not per beat (`decoder_builds` counts it;
                        // `tests/zero_alloc_recv.rs` pins the warm rounds).
                        xs: xs.to_vec(),
                        decoder,
                        hits: 0,
                    });
                    ws.decoders.len() - 1
                }
            };
            let decoder = &mut ws.decoders[idx].decoder;
            let routed = decoder.is_some();
            for t in 0..targets {
                let ys = &view.ys[(dealer * targets + t) * n..][..opened];
                self.st.recovered[dealer * targets + t] =
                    decoder.as_mut().and_then(|d| d.decode_at_zero(ys));
                self.decode_stats.codewords += u64::from(routed);
            }
        }
    }

    /// Transient fault: scramble everything (rows, matches, votes, grades,
    /// dealings) with type-valid garbage.
    pub fn corrupt(&mut self, rng: &mut SimRng) {
        let n = self.cfg.n;
        let f = self.cfg.f;
        self.my_secrets = (0..self.targets).map(|_| self.fp.sample(rng)).collect();
        self.dealt = self
            .my_secrets
            .iter()
            .map(|&s| SymmetricBivariate::random_with_secret(&self.fp, s, f, rng))
            .collect();
        // The echo memo is derived from the rows: rebuilt, not scrambled.
        self.st.echoes.clear();
        let block = self.targets * (f + 1);
        for dealer in 0..n {
            self.st.present[dealer] = rng.random();
            if self.st.present[dealer] {
                for c in &mut self.st.coeffs[dealer * block..][..block] {
                    *c = self.fp.sample(rng);
                }
            }
            for s in 0..n {
                self.st.matches[dealer * n + s] = rng.random();
                self.st.votes[dealer * n + s] = rng.random();
            }
            self.st.grades[dealer] = match rng.random_range(0..3u8) {
                0 => Grade::Zero,
                1 => Grade::One,
                _ => Grade::Two,
            };
            for t in 0..self.targets {
                self.st.recovered[dealer * self.targets + t] =
                    rng.random::<bool>().then(|| self.fp.sample(rng));
            }
        }
        // Re-derive the incremental tallies from the scrambled matrices;
        // corrupt is cold, and the recount here is what keeps the hot
        // rounds scan-free.
        for dealer in 0..n {
            self.st.match_counts[dealer] = self.st.matches[dealer * n..(dealer + 1) * n]
                .iter()
                .filter(|&&m| m)
                .count() as u32;
            self.st.vote_counts[dealer] = self.st.votes[dealer * n..(dealer + 1) * n]
                .iter()
                .filter(|&&v| v)
                .count() as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_field::Poly;
    use rand::SeedableRng;

    /// The rows `core` holds, per dealer, as the polynomials they stand
    /// for (`None` where it holds none).
    fn held_rows(core: &GvssCore) -> Vec<Option<Vec<Poly>>> {
        let stride = core.cfg.f + 1;
        (0..core.cfg.n)
            .map(|dealer| {
                core.st.present[dealer].then(|| {
                    (0..core.targets)
                        .map(|t| {
                            let at = (dealer * core.targets + t) * stride;
                            Poly::from_coeffs(core.st.coeffs[at..at + stride].to_vec())
                        })
                        .collect()
                })
            })
            .collect()
    }

    /// The flat payload holding `rows`.
    fn flat(rows: &[Option<Vec<u64>>]) -> FlatMatrix {
        FlatMatrix::from_rows(rows.iter().map(Option::as_deref))
    }

    /// Drives a full 4-round honest execution of one instance across all
    /// `n` nodes in-process (no simulator) and returns the cores.
    fn run_honest(n: usize, f: usize, targets: usize, seed: u64) -> Vec<GvssCore> {
        run_honest_with(n, f, targets, seed, &fresh_workspaces(n))
    }

    /// One *distinct* workspace per node (`vec![ws; n]` would clone one
    /// shared handle).
    fn fresh_workspaces(n: usize) -> Vec<GvssWorkspace> {
        (0..n).map(|_| GvssWorkspace::new()).collect()
    }

    /// [`run_honest`] with caller-supplied per-node workspaces, so tests
    /// can observe cross-instance pool/cache reuse.
    fn run_honest_with(
        n: usize,
        f: usize,
        targets: usize,
        seed: u64,
        workspaces: &[GvssWorkspace],
    ) -> Vec<GvssCore> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut cores: Vec<GvssCore> = (0..n as u16)
            .map(|i| {
                GvssCore::with_workspace(
                    NodeCfg::new(NodeId::new(i), n, f),
                    targets,
                    workspaces[i as usize].clone(),
                )
            })
            .collect();
        // round 0
        let sends: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                let modn = n as u64;
                c.send_share(&mut rng, |r| r.random_range(0..modn), &mut out);
                (NodeId::new(i as u16), out)
            })
            .collect();
        for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
            c.recv_share(&inbox);
        }
        // round 1
        let sends: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                c.send_echo(&mut out);
                (NodeId::new(i as u16), out)
            })
            .collect();
        for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
            c.recv_echo(&inbox);
        }
        // round 2
        let sends: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                c.send_vote(&mut out);
                (NodeId::new(i as u16), out)
            })
            .collect();
        for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
            c.recv_vote(&inbox);
        }
        // round 3
        let sends: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                c.send_recover(&mut out);
                (NodeId::new(i as u16), out)
            })
            .collect();
        for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
            c.recv_recover(&inbox);
        }
        cores
    }

    /// The columnar dealing against the textbook row: every `Row` payload
    /// `send_share` emits is, target by target, `row(to.share_point())`
    /// of the dealt bivariate — stripped of trailing zeros, since an
    /// unstripped row would change the wire bytes without changing any
    /// recovered secret. Two instances per workspace, so the second deals
    /// in scratch the first already wrote.
    #[test]
    fn dealt_rows_are_the_bivariate_rows() {
        let mut stripped = 0;
        for n in [4usize, 7, 13, 32] {
            let f = (n - 1) / 3;
            let fp = Fp::for_cluster(n);
            let mut rng = SimRng::seed_from_u64(n as u64);
            for dealer in 0..n as u16 {
                let workspace = GvssWorkspace::new();
                for targets in [n, 1] {
                    let cfg = NodeCfg::new(NodeId::new(dealer), n, f);
                    let mut core = GvssCore::with_workspace(cfg, targets, workspace.clone());
                    let mut out = Vec::new();
                    core.send_share(&mut rng, |r| r.random_range(0..n as u64), &mut out);
                    assert_eq!(out.len(), n);
                    for (target, msg) in &out {
                        let (Target::One(to), CoinMsg::Row { rows }) = (target, msg) else {
                            panic!("rows are unicast");
                        };
                        assert_eq!(rows.len(), targets);
                        for (biv, got) in core.dealt.iter().zip(rows.rows()) {
                            let want = biv.row(&fp, to.share_point());
                            assert_eq!(got, Some(want.coeffs()), "n={n} {dealer} -> {to}");
                            stripped += usize::from(want.coeffs().len() <= f);
                        }
                    }
                }
            }
        }
        assert!(stripped > 0, "no row ended in a zero coefficient");
    }

    #[test]
    fn honest_run_grades_everyone_two() {
        let cores = run_honest(4, 1, 2, 5);
        for core in &cores {
            for dealer in 0..4u16 {
                assert_eq!(core.grade(NodeId::new(dealer)), Grade::Two);
            }
            assert_eq!(core.included().count(), 4);
        }
    }

    #[test]
    fn honest_recover_rides_one_batch_per_beat() {
        // All 7 dealers' openers coincide, so the 7 × 3 decodes of the
        // recover round share a single decoder.
        let cores = run_honest(7, 2, 3, 9);
        for core in &cores {
            let stats = core.decode_stats();
            assert_eq!(stats.batches, 1, "{stats:?}");
            assert_eq!(stats.codewords, 21, "{stats:?}");
        }
    }

    /// The workspace contract: the first instance builds its storage and
    /// decoder; every later instance over the same workspace
    /// reuses both — steady-state beats allocate nothing in the GVSS path.
    #[test]
    fn workspace_reuses_storage_and_decoders_across_instances() {
        let (n, f, targets) = (7, 2, 3);
        let workspaces = fresh_workspaces(n);
        let first = run_honest_with(n, f, targets, 9, &workspaces);
        for core in &first {
            let stats = core.alloc_stats();
            assert_eq!(stats.storage_builds, 1, "{stats:?}");
            assert_eq!(stats.storage_reuses, 0, "{stats:?}");
            assert_eq!(stats.decoder_builds, 1, "{stats:?}");
            assert_eq!(stats.decoder_hits, (n - 1) as u64, "{stats:?}");
        }
        drop(first); // retire the instances: storage returns to the pool
        let second = run_honest_with(n, f, targets, 10, &workspaces);
        for core in &second {
            let stats = core.alloc_stats();
            assert_eq!(stats.storage_builds, 0, "steady state: {stats:?}");
            assert_eq!(stats.storage_reuses, 1, "{stats:?}");
            assert_eq!(stats.decoder_builds, 0, "steady state: {stats:?}");
            assert_eq!(stats.decoder_hits, n as u64, "{stats:?}");
            // The cached decoder must decode exactly like a fresh
            // one: same per-instance codeword count, batches now zero.
            assert_eq!(core.decode_stats().batches, 0);
            assert_eq!(core.decode_stats().codewords, 21);
        }
        for dealer in 0..n {
            let dealt = second[dealer].my_secrets().to_vec();
            for core in &second {
                for (t, &secret) in dealt.iter().enumerate() {
                    assert_eq!(core.recovered(NodeId::new(dealer as u16), t), Some(secret));
                }
            }
        }
    }

    /// The incremental match/vote tallies must always equal a fresh scan
    /// of their matrices — including right after `corrupt` scrambles them.
    #[test]
    fn incremental_tallies_match_recounts() {
        let n = 7;
        let mut cores = run_honest(n, 2, 3, 11);
        let mut rng = SimRng::seed_from_u64(4);
        for core in &mut cores {
            for round in 0..2 {
                for dealer in 0..n {
                    let row = dealer * n..(dealer + 1) * n;
                    assert_eq!(
                        core.st.match_counts[dealer] as usize,
                        core.st.matches[row.clone()].iter().filter(|&&m| m).count(),
                        "round {round} dealer {dealer} match tally drifted"
                    );
                    assert_eq!(
                        core.st.vote_counts[dealer] as usize,
                        core.st.votes[row].iter().filter(|&&v| v).count(),
                        "round {round} dealer {dealer} vote tally drifted"
                    );
                }
                core.corrupt(&mut rng);
            }
        }
    }

    /// Delivers the senders' outboxes: broadcasts fan out, unicasts go to
    /// their recipient.
    fn route(
        n: usize,
        sends: Vec<(NodeId, Vec<(Target, CoinMsg)>)>,
    ) -> Vec<Vec<(NodeId, CoinMsg)>> {
        let mut inboxes: Vec<Vec<(NodeId, CoinMsg)>> = vec![Vec::new(); n];
        for (from, outs) in sends {
            for (target, msg) in outs {
                match target {
                    Target::All => inboxes.iter_mut().for_each(|i| i.push((from, msg.clone()))),
                    Target::One(to) => inboxes[to.index()].push((from, msg)),
                }
            }
        }
        inboxes
    }

    /// The kernels against the textbook: one execution with everything
    /// the fast paths special-case — a node scrambled between `send_echo`
    /// and `recv_echo` (ragged, partly missing rows, so its echo memo is
    /// rebuilt from them), optionally a node that runs `recv_echo` without
    /// ever having run `send_echo` (no memo to start from), `f` `Recover`
    /// senders lying on a third of their shares (some non-canonically),
    /// one sender opening only every other dealer (a second point set) —
    /// must leave the same echo points, match matrix, votes, grades,
    /// recovered values and decode counts as the same execution evaluated
    /// here with `Poly::eval` and `rs::decode`.
    #[test]
    fn execution_matches_the_written_out_evaluation() {
        for (n, f) in [(4usize, 1usize), (7, 2), (13, 4)] {
            for seed in 0..3u64 {
                for quiet in [None, Some(1)] {
                    check_against_written_out_evaluation(n, f, 3, seed, quiet);
                }
            }
        }
    }

    /// One execution; `quiet` names a node that skips `send_echo`.
    fn check_against_written_out_evaluation(
        n: usize,
        f: usize,
        targets: usize,
        seed: u64,
        quiet: Option<usize>,
    ) {
        let ctx = format!("n={n} seed={seed} quiet={quiet:?}");
        let fp = Fp::for_cluster(n);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut cores: Vec<GvssCore> = (0..n as u16)
            .map(|i| GvssCore::new(NodeCfg::new(NodeId::new(i), n, f), targets))
            .collect();
        let collect = |cores: &mut [GvssCore], send: &mut dyn FnMut(&mut GvssCore, &mut Vec<_>)| {
            cores
                .iter_mut()
                .map(|c| {
                    let mut out = Vec::new();
                    send(c, &mut out);
                    out
                })
                .collect::<Vec<Vec<(Target, CoinMsg)>>>()
        };
        let deliver = |sends: Vec<Vec<(Target, CoinMsg)>>| {
            route(n, (0..n as u16).map(NodeId::new).zip(sends).collect())
        };

        // Round 0, honest.
        let modn = n as u64;
        let sends = collect(&mut cores, &mut |c, out| {
            c.send_share(&mut rng, |r| r.random_range(0..modn), out)
        });
        for (c, inbox) in cores.iter_mut().zip(deliver(sends)) {
            c.recv_share(&inbox);
        }

        // Round 1: every echo point is the sender's row at the
        // recipient's share point.
        let sends: Vec<Vec<(Target, CoinMsg)>> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                if quiet != Some(i) {
                    c.send_echo(&mut out);
                }
                out
            })
            .collect();
        for (core, outs) in cores.iter().zip(&sends) {
            let held = held_rows(core);
            for (target, msg) in outs {
                let (Target::One(to), CoinMsg::Echo { points }) = (target, msg) else {
                    panic!("{ctx}: echoes are unicast");
                };
                let want: Vec<Option<Vec<u64>>> = held
                    .iter()
                    .map(|rows| {
                        rows.as_ref().map(|polys| {
                            polys
                                .iter()
                                .map(|p| p.eval(&fp, to.share_point()))
                                .collect()
                        })
                    })
                    .collect();
                assert_eq!(**points, flat(&want), "{ctx}: echo to {to}");
            }
        }
        cores[0].corrupt(&mut rng);
        let inboxes = deliver(sends);
        let mut want_matches: Vec<Vec<bool>> = cores.iter().map(|c| c.st.matches.clone()).collect();
        for ((core, inbox), matches) in cores.iter().zip(&inboxes).zip(&mut want_matches) {
            let held = held_rows(core);
            for (from, msg) in inbox {
                let CoinMsg::Echo { points } = msg else {
                    unreachable!()
                };
                for dealer in 0..n {
                    if let (Some(mine), Some(theirs)) = (&held[dealer], points.get(dealer)) {
                        matches[dealer * n + from.index()] = mine
                            .iter()
                            .zip(theirs)
                            .all(|(row, &p)| row.eval(&fp, from.share_point()) == p % fp.modulus());
                    }
                }
            }
        }
        for (c, inbox) in cores.iter_mut().zip(inboxes) {
            c.recv_echo(&inbox);
        }
        for (core, want) in cores.iter().zip(&want_matches) {
            assert_eq!(&core.st.matches, want, "{ctx}: match matrix");
            assert!(
                core.st.echoes.is_empty(),
                "{ctx}: the memo outlived its round"
            );
        }

        // Round 2: votes and grades follow from the match matrix.
        let sends = collect(&mut cores, &mut |c, out| c.send_vote(out));
        for ((core, outs), matches) in cores.iter().zip(&sends).zip(&want_matches) {
            let want: Vec<bool> = (0..n)
                .map(|dealer| {
                    let count = matches[dealer * n..][..n].iter().filter(|&&m| m).count();
                    core.st.present[dealer] && count >= n - f
                })
                .collect();
            assert_eq!(outs[0].1, CoinMsg::vote(want), "{ctx}");
        }
        let inboxes = deliver(sends);
        let mut want_grades: Vec<Vec<Grade>> = Vec::new();
        for (core, inbox) in cores.iter().zip(&inboxes) {
            let mut votes = core.st.votes.clone();
            for (from, msg) in inbox {
                let CoinMsg::Vote { content } = msg else {
                    unreachable!()
                };
                for dealer in 0..n {
                    votes[dealer * n + from.index()] = content[dealer];
                }
            }
            want_grades.push(
                (0..n)
                    .map(
                        |dealer| match votes[dealer * n..][..n].iter().filter(|&&v| v).count() {
                            c if c >= n - f => Grade::Two,
                            c if c + 2 * f >= n => Grade::One,
                            _ => Grade::Zero,
                        },
                    )
                    .collect(),
            );
        }
        for (c, inbox) in cores.iter_mut().zip(inboxes) {
            c.recv_vote(&inbox);
        }
        for (core, want) in cores.iter().zip(&want_grades) {
            assert_eq!(&core.st.grades, want, "{ctx}: grades");
        }

        // Round 3: honest shares are the rows at 0; then the last f
        // senders lie and node 1 opens only the even dealers.
        let mut sends = collect(&mut cores, &mut |c, out| c.send_recover(out));
        for (sender, (core, outs)) in cores.iter().zip(&mut sends).enumerate() {
            let CoinMsg::Recover { shares } = &outs[0].1 else {
                unreachable!()
            };
            let want: Vec<Option<Vec<u64>>> = held_rows(core)
                .iter()
                .map(|rows| {
                    rows.as_ref()
                        .map(|ps| ps.iter().map(|p| p.eval(&fp, 0)).collect())
                })
                .collect();
            assert_eq!(**shares, flat(&want), "{ctx}: shares of {sender}");
            let mut forged = want;
            for (dealer, vals) in forged.iter_mut().enumerate() {
                if sender == 1 && dealer % 2 == 1 {
                    *vals = None;
                }
                for (t, v) in vals.iter_mut().flatten().enumerate() {
                    if sender >= n - f && (dealer + t + sender) % 3 == 0 {
                        *v = fp.add(*v, 1) + fp.modulus() * (dealer as u64 % 2);
                    }
                }
            }
            outs[0].1 = CoinMsg::recover(forged);
        }
        let inboxes = deliver(sends);
        let mut want_recovered: Vec<Vec<Option<u64>>> = Vec::new();
        let mut want_stats: Vec<DecodeStats> = Vec::new();
        for ((core, inbox), grades) in cores.iter().zip(&inboxes).zip(&want_grades) {
            let mut recovered = core.st.recovered.clone();
            let mut point_sets: Vec<Vec<u64>> = Vec::new();
            let mut stats = DecodeStats::default();
            for dealer in (0..n).filter(|&d| grades[d] >= Grade::One) {
                let opened: Vec<(u64, &[u64])> = inbox
                    .iter()
                    .filter_map(|(from, msg)| {
                        let CoinMsg::Recover { shares } = msg else {
                            unreachable!()
                        };
                        shares.get(dealer).map(|vals| (from.share_point(), vals))
                    })
                    .collect();
                for t in 0..targets {
                    let points: Vec<(u64, u64)> =
                        opened.iter().map(|&(x, vals)| (x, vals[t])).collect();
                    recovered[dealer * targets + t] =
                        byzclock_field::rs::decode(&fp, &points, f).map(|g| g.eval(&fp, 0));
                }
                // A usable point set is one batch, however many dealers
                // share it; every codeword routed through one counts.
                if opened.len() > f {
                    let xs: Vec<u64> = opened.iter().map(|&(x, _)| x).collect();
                    if !point_sets.contains(&xs) {
                        point_sets.push(xs);
                        stats.batches += 1;
                    }
                    stats.codewords += targets as u64;
                }
            }
            want_recovered.push(recovered);
            want_stats.push(stats);
        }
        for (c, inbox) in cores.iter_mut().zip(inboxes) {
            c.recv_recover(&inbox);
        }
        for (i, core) in cores.iter().enumerate() {
            assert_eq!(
                core.st.recovered, want_recovered[i],
                "{ctx}: node {i} recovered"
            );
            assert_eq!(core.decode_stats(), want_stats[i], "{ctx}: node {i} stats");
        }
        // Not vacuous: through all of that, an honest dealer's secret
        // still opens.
        let honest_dealer = 2;
        assert!(
            (0..targets).any(|t| cores[2].recovered(NodeId::new(honest_dealer), t)
                == Some(cores[honest_dealer as usize].my_secrets()[t])),
            "{ctx}: nothing opened"
        );
    }

    #[test]
    fn honest_run_recovers_all_secrets_consistently() {
        let cores = run_honest(7, 2, 3, 9);
        for dealer in 0..7usize {
            let dealt = cores[dealer].my_secrets().to_vec();
            assert_eq!(dealt.len(), 3);
            for core in &cores {
                for (t, &secret) in dealt.iter().enumerate() {
                    assert_eq!(
                        core.recovered(NodeId::new(dealer as u16), t),
                        Some(secret),
                        "dealer {dealer} target {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn silent_dealer_gets_grade_zero() {
        // Run honestly but erase dealer 3's rows before the echo round by
        // simply never delivering them: emulate via fresh cores where
        // dealer 3 never dealt.
        let n = 4;
        let f = 1;
        let mut rng = SimRng::seed_from_u64(1);
        let mut cores: Vec<GvssCore> = (0..n as u16)
            .map(|i| GvssCore::new(NodeCfg::new(NodeId::new(i), n, f), 1))
            .collect();
        // Everyone deals except node 3.
        let mut all_sends: Vec<(NodeId, Vec<(Target, CoinMsg)>)> = Vec::new();
        for (i, c) in cores.iter_mut().enumerate() {
            if i == 3 {
                continue;
            }
            let mut out = Vec::new();
            c.send_share(&mut rng, |r| r.random_range(0..4), &mut out);
            all_sends.push((NodeId::new(i as u16), out));
        }
        for (c, inbox) in cores.iter_mut().zip(route(n, all_sends)) {
            c.recv_share(&inbox);
        }
        // echo + vote rounds, all nodes (including 3, who is honest but
        // didn't deal).
        for round in 1..=2 {
            let sends: Vec<_> = cores
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let mut out = Vec::new();
                    if round == 1 {
                        c.send_echo(&mut out);
                    } else {
                        c.send_vote(&mut out);
                    }
                    (NodeId::new(i as u16), out)
                })
                .collect();
            for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
                if round == 1 {
                    c.recv_echo(&inbox);
                } else {
                    c.recv_vote(&inbox);
                }
            }
        }
        for core in &cores {
            assert_eq!(core.grade(NodeId::new(3)), Grade::Zero);
            assert_eq!(core.grade(NodeId::new(0)), Grade::Two);
            assert_eq!(core.included().count(), 3);
        }
    }

    /// Regression: a single duplicated `Recover` message must not poison
    /// the decode. Before the per-sender dedup, the duplicate pushed its
    /// sender's share point into every dealer's `xs` twice; the duplicated
    /// x-point made the shared `BatchDecoder` `None`, and
    /// every secret of every dealer opened by that point set failed — one
    /// phantom replay (or Byzantine double-send) stalling recovery
    /// cluster-wide.
    #[test]
    fn duplicated_recover_message_still_opens_the_secrets() {
        let n = 7;
        let f = 2;
        let targets = 3;
        let mut rng = SimRng::seed_from_u64(9);
        let mut cores: Vec<GvssCore> = (0..n as u16)
            .map(|i| GvssCore::new(NodeCfg::new(NodeId::new(i), n, f), targets))
            .collect();
        // Honest rounds 0-2.
        for round in 0..3 {
            let sends: Vec<_> = cores
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    let mut out = Vec::new();
                    match round {
                        0 => c.send_share(&mut rng, |r| r.random_range(0..7), &mut out),
                        1 => c.send_echo(&mut out),
                        _ => c.send_vote(&mut out),
                    }
                    (NodeId::new(i as u16), out)
                })
                .collect();
            for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
                match round {
                    0 => c.recv_share(&inbox),
                    1 => c.recv_echo(&inbox),
                    _ => c.recv_vote(&inbox),
                }
            }
        }
        // Recover round — with node 1's broadcast replayed once, as a
        // phantom burst (or a Byzantine double-send) would.
        let sends: Vec<_> = cores
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut out = Vec::new();
                c.send_recover(&mut out);
                if i == 1 {
                    let dup = out[0].1.clone();
                    out.push((Target::All, dup));
                }
                (NodeId::new(i as u16), out)
            })
            .collect();
        let dealt: Vec<Vec<u64>> = cores.iter().map(|c| c.my_secrets().to_vec()).collect();
        for (c, inbox) in cores.iter_mut().zip(route(n, sends)) {
            c.recv_recover(&inbox);
        }
        for core in &cores {
            for dealer in 0..n {
                for (t, &secret) in dealt[dealer].iter().enumerate() {
                    assert_eq!(
                        core.recovered(NodeId::new(dealer as u16), t),
                        Some(secret),
                        "dealer {dealer} target {t}: duplicated Recover poisoned the decode"
                    );
                }
            }
        }
    }

    /// Cache overflow keeps the point set every beat hits. Hostile
    /// senders (or a scrambled cohort) can mint fresh opener sets faster
    /// than the cap; cutting the cache back must not cost the honest set
    /// its tables.
    #[test]
    fn decoder_cache_overflow_keeps_the_most_hit_point_set() {
        let (n, f) = (7usize, 2usize);
        let workspace = GvssWorkspace::new();
        let cfg = NodeCfg::new(NodeId::new(0), n, f);
        let mut core = GvssCore::with_workspace(cfg, 1, workspace.clone());
        core.st.grades.fill(Grade::Two);
        // Sender `s` opens dealer `d` iff bit `s` of `mask(d)` is set.
        let inbox = |mask: &dyn Fn(usize) -> usize| -> Vec<(NodeId, CoinMsg)> {
            (0..n)
                .map(|s| {
                    let shares = (0..n).map(|d| (mask(d) >> s & 1 == 1).then(|| vec![0]));
                    (NodeId::new(s as u16), CoinMsg::recover(shares.collect()))
                })
                .collect()
        };
        let everyone = (1 << n) - 1;
        core.recv_recover(&inbox(&|_| everyone));
        assert_eq!(core.alloc_stats().decoder_builds, 1);
        // 35 distinct hostile sets, 7 per beat: the 32nd overflows.
        for beat in 0..5 {
            core.recv_recover(&inbox(&|d| 1 + beat * n + d));
        }
        let builds = core.alloc_stats().decoder_builds;
        assert_eq!(builds, 36);
        let cached = workspace.0.lock().unwrap().decoders.len();
        assert!(
            cached < DECODER_CACHE_CAP,
            "the cache was cut back: {cached}"
        );
        core.recv_recover(&inbox(&|_| everyone));
        assert_eq!(
            core.alloc_stats().decoder_builds,
            builds,
            "the honest point set was evicted"
        );
    }

    /// The tally rounds keep the *first* message per sender: a duplicate
    /// vote with flipped content cannot rewrite the tally.
    #[test]
    fn duplicate_votes_and_echoes_keep_the_first_message() {
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let mut core = GvssCore::new(cfg, 1);
        let from = NodeId::new(2);
        core.recv_vote(&[
            (from, CoinMsg::vote(vec![true; 4])),
            (from, CoinMsg::vote(vec![false; 4])),
        ]);
        assert!(
            core.st.votes.chunks(4).all(|per| per[2]),
            "first vote must stand"
        );
    }

    #[test]
    fn malformed_messages_are_ignored() {
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let mut core = GvssCore::new(cfg, 2);
        let from = NodeId::new(1);
        // Wrong target count in a Row.
        core.recv_share(&[(from, CoinMsg::row(vec![vec![1]]))]);
        assert!(!core.st.present[1]);
        // Row polynomial of excessive degree.
        core.recv_share(&[(from, CoinMsg::row(vec![vec![1, 2, 3, 4, 5], vec![1]]))]);
        assert!(!core.st.present[1]);
        // A row payload with an absent row.
        let rows = Arc::new(FlatMatrix::from_rows([Some(&[1][..]), None]));
        core.recv_share(&[(from, CoinMsg::Row { rows })]);
        assert!(!core.st.present[1]);
        // Vote with wrong arity.
        core.recv_vote(&[(from, CoinMsg::vote(vec![true]))]);
        assert!(core.st.votes.chunks(4).all(|per| !per[1]));
        // Echo with wrong dealer arity.
        core.recv_echo(&[(from, CoinMsg::echo(vec![None]))]);
        assert!(core.st.matches.chunks(4).all(|per| !per[1]));
    }

    /// Hiding: f rows of a degree-f symmetric bivariate reveal nothing
    /// about the secret — every candidate secret is equally consistent.
    #[test]
    fn f_rows_are_perfectly_hiding() {
        let fp = Fp::for_cluster(4);
        let mut rng = SimRng::seed_from_u64(8);
        let f = 1;
        // Dealer's secret 3, node 1's row (the single corrupted node's view).
        let biv = SymmetricBivariate::random_with_secret(&fp, 3, f, &mut rng);
        let row1 = biv.row(&fp, NodeId::new(1).share_point());
        // For every candidate secret s, there exists a symmetric bivariate
        // with that secret agreeing with row1: count consistent dealings by
        // brute force over a small field would be excessive; instead verify
        // the interpolation degree-of-freedom argument: the secret poly
        // g(y) = S(0, y) has degree f = 1 and must satisfy
        // g(1) = row1(0); g(0) is otherwise free.
        let pinned = row1.eval(&fp, 0);
        for candidate in 0..fp.modulus() {
            let g = Poly::interpolate(
                &fp,
                &[(0, candidate), (NodeId::new(1).share_point(), pinned)],
            )
            .unwrap();
            assert_eq!(g.eval(&fp, 0), candidate);
            assert_eq!(g.eval(&fp, NodeId::new(1).share_point()), pinned);
        }
    }

    #[test]
    fn corruption_is_type_valid() {
        let cfg = NodeCfg::new(NodeId::new(0), 4, 1);
        let mut core = GvssCore::new(cfg, 2);
        let mut rng = SimRng::seed_from_u64(3);
        core.corrupt(&mut rng);
        // Everything still within type bounds; subsequent rounds must not
        // panic on the scrambled state.
        let mut out = Vec::new();
        core.send_echo(&mut out);
        core.send_vote(&mut out);
        core.send_recover(&mut out);
        assert!(!out.is_empty());
    }
}
