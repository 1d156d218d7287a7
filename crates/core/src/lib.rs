//! The PODC'08 algorithms: *Fast Self-Stabilizing Byzantine Tolerant
//! Digital Clock Synchronization* (Ben-Or, Dolev, Hoch).
//!
//! This crate implements the paper's entire algorithmic stack over the
//! `byzclock-sim` global-beat-system model:
//!
//! | Paper artifact | Type |
//! |---|---|
//! | Fig. 1 `ss-Byz-Coin-Flip` | [`Pipeline`] + [`PipelinedCoin`] |
//! | Fig. 2 `ss-Byz-2-Clock` | [`TwoClock`] |
//! | Fig. 3 `ss-Byz-4-Clock` | [`FourClock`] (and [`SharedFourClock`], Remark 4.1) |
//! | Fig. 4 `ss-Byz-Clock-Sync` | [`ClockSync`] |
//! | §5 recursive doubling | [`RecursiveClock`] |
//! | Remark 3.1 anti-pattern | [`BrokenTwoClock`] + [`adversary::RandAwareSplitter`] |
//! | §6.3 bounded delay | [`BdClock`] on a round-tag wheel ([`RoundMsg`]) |
//!
//! Everything is generic over the coin via [`RandSource`] /
//! [`CoinScheme`]: plug in the GVSS ticket coin from `byzclock-coin` for
//! the full construction, [`OracleRand`] to isolate the clock layer, or
//! [`LocalRand`] to reproduce the exponential-time baseline.
//!
//! [`Pipeline`] is the one driver of round-based instances and runs in
//! lockstep, one round per beat. [`BdClock`] needs no instances: its clock
//! value is the round index of its own wheel, which advances on `n - f`
//! quorums of round tags and so tolerates bounded delivery delay.
//!
//! # Example: the 2-clock over an ideal beacon
//!
//! ```
//! use byzclock_core::{all_synced, DigitalClock, OracleBeacon, TwoClock};
//! use byzclock_sim::{SilentAdversary, SimBuilder};
//!
//! let beacon = OracleBeacon::perfect(7);
//! let mut sim = SimBuilder::new(7, 2).seed(1).build(
//!     move |cfg, _rng| TwoClock::new(cfg, beacon.source(cfg.id)),
//!     SilentAdversary,
//! );
//! let beats = sim
//!     .run_until(500, |s| all_synced(s.correct_apps().map(|(_, a)| a.read())).is_some())
//!     .expect("expected-constant convergence");
//! assert!(beats < 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod scenario;

mod bd_clock;
mod buffered;
mod clock;
mod clock_sync;
mod four_clock;
mod pipeline;
mod rand_source;
mod recursive;
mod round;
mod trit;
mod two_clock;

pub use bd_clock::adversary::{RandomTagAdversary, TagEquivocator};
pub use bd_clock::{BdClock, BdClockMsg, BdSnapshot};
pub use buffered::RoundMsg;
pub use clock::{all_synced, run_until_stable_sync, DigitalClock, SyncTracker};
pub use clock_sync::{ClockSync, ClockSyncMsg};
pub use four_clock::{FourClock, FourClockMsg, SharedFourClock, SharedFourClockMsg};
pub use pipeline::{Pipeline, SlotMsg};
pub use rand_source::{
    FixedRand, LocalRand, OracleBeacon, OracleDraw, OracleRand, PipelinedCoin, RandSource,
};
pub use recursive::{LevelMsg, RecursiveClock};
pub use round::{merge_metrics, CoinScheme, RoundProtocol};
pub use trit::{dedup_by_sender, majority_literal, majority_with_rand, MajorityCount, Trit};
pub use two_clock::{BrokenTwoClock, TwoClock, TwoClockCore, TwoClockMsg};
