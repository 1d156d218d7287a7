//! A deterministic, lockstep *global-beat-system* network simulator.
//!
//! This crate is the execution substrate for the PODC'08 self-stabilizing
//! Byzantine clock-synchronization stack. It reproduces the paper's model
//! (Section 2) exactly:
//!
//! - `n` fully-connected nodes driven by a global beat system; every message
//!   sent at beat `r` is delivered before beat `r + 1` (Def. 2.2(1)) —
//!   or, under the pluggable [`TimingModel::BoundedDelay`] (the paper's
//!   §6.3 semi-synchronous extension), within a seeded window of beats;
//! - the network authenticates senders and does not tamper with payloads
//!   (Def. 2.2(2)) — the simulator stamps the `from` field itself;
//! - no phantom messages once the network is non-faulty (Def. 2.2(3)) —
//!   but *during* a transient fault the [`faults`] module can replay stale
//!   traffic, corrupt node memory arbitrarily, and black out deliveries;
//! - up to `f < n/3` Byzantine nodes controlled by an [`Adversary`] that is
//!   *rushing* (it chooses its messages after observing the current beat's
//!   correct traffic addressed to Byzantine nodes) while private channels
//!   between correct nodes stay invisible to it.
//!
//! A **beat** consists of one or more *exchange phases*, because the
//! paper's beat interval is long enough for several send-and-receive
//! exchanges (`ss-Byz-4-Clock` runs its second 2-clock after the first one
//! finishes *within the same beat*; `ss-Byz-Clock-Sync` adds a third
//! exchange). Each phase runs: correct nodes send → adversary acts →
//! everything is delivered. See [`Application`] for the node-side contract.
//!
//! Everything is deterministic: a run is a pure function of the
//! [`SimBuilder`] configuration and the master seed.
//!
//! # Example
//!
//! ```
//! use byzclock_sim::{Application, Envelope, NodeCfg, Outbox, SilentAdversary, SimBuilder};
//! use byzclock_sim::{Wire, WireFormat, WireReader, WireWriter};
//!
//! /// Every node broadcasts its id each beat and counts receipts.
//! struct Pinger { cfg: NodeCfg, seen: usize }
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u16);
//! impl Wire for Ping {
//!     fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) { self.0.encode(format, w) }
//!     fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
//!         u16::decode(format, r).map(Ping)
//!     }
//! }
//!
//! impl Application for Pinger {
//!     type Msg = Ping;
//!     fn send(&mut self, _phase: usize, out: &mut Outbox<'_, Ping>) {
//!         out.broadcast(Ping(self.cfg.id.raw()));
//!     }
//!     fn deliver(&mut self, _phase: usize, inbox: &[Envelope<Ping>], _rng: &mut byzclock_sim::SimRng) {
//!         self.seen += inbox.len();
//!     }
//!     fn corrupt(&mut self, _rng: &mut byzclock_sim::SimRng) { self.seen = 0; }
//! }
//!
//! let mut sim = SimBuilder::new(4, 1)
//!     .seed(7)
//!     .build(|cfg, _rng| Pinger { cfg, seen: 0 }, SilentAdversary);
//! sim.run_beats(3);
//! // 3 correct senders (the Byzantine node is silent), 3 beats.
//! for (_, app) in sim.correct_apps() {
//!     assert_eq!(app.seen, 9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod app;
mod config;
mod envelope;
mod id;
mod rng;
mod runner;
mod stats;
mod timing;
mod wire;

pub mod faults;

pub use adversary::{Adversary, AdversaryView, ByzOutbox, SilentAdversary, Visibility};
pub use app::{collect_sends, Application, Outbox};
pub use config::SimBuilder;
pub use envelope::{Envelope, Target};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use id::{NodeCfg, NodeId};
pub use rng::{derive_seed, SimRng};
pub use runner::Simulation;
pub use stats::{BeatTraffic, TrafficStats};
pub use timing::TimingModel;
pub use wire::{Wire, WireConfig, WireFormat, WireReader, WireWriter, MAX_WIRE_ELEMS};
