//! The §5 recursive-doubling construction: a `2^m`-clock from `m` stacked
//! 2-clocks.
//!
//! "Any `2^{k+1}`-Clock problem can be solved with `A1` that solves
//! `2^k`-Clock and `A2` that solves the 2-Clock problem" — unrolled, that
//! is a chain of 2-clocks where level `j` executes a beat iff all levels
//! below it read 0 after their own same-beat execution (the Fig. 3 gate,
//! applied recursively), and the clock is `Σ 2^j · clock_j`.
//!
//! The paper keeps this construction only to dismiss it: it costs `log k`
//! message complexity and at least `log k` expected convergence time,
//! which `ss-Byz-Clock-Sync` reduces to constants. Experiments F4 and M1
//! measure exactly that comparison.

use crate::clock::DigitalClock;
use crate::rand_source::RandSource;
use crate::trit::Trit;
use crate::two_clock::{TwoClock, TwoClockMsg};
use byzclock_sim::{
    Application, Envelope, NodeCfg, Outbox, SimRng, Wire, WireFormat, WireReader, WireWriter,
};
use rand::Rng;

/// A message of one level of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelMsg<M> {
    /// Which 2-clock level this belongs to (0 = least significant bit).
    pub level: u8,
    /// The level's 2-clock traffic.
    pub msg: TwoClockMsg<M>,
}

impl<M: Wire> Wire for LevelMsg<M> {
    #[inline(always)]
    fn encode(&self, format: WireFormat, w: &mut WireWriter<'_>) {
        w.put_tagged(self.level, &self.msg, format);
    }

    fn decode(format: WireFormat, r: &mut WireReader<'_>) -> Option<Self> {
        Some(LevelMsg {
            level: r.u8()?,
            msg: Wire::decode(format, r)?,
        })
    }
}

/// The §5 `2^m`-clock: `m` gated 2-clock levels, one exchange phase each.
#[derive(Debug)]
pub struct RecursiveClock<R: RandSource> {
    levels: Vec<TwoClock<R>>,
    /// Gate chain: `gates[j]` = levels `0..j` all read 0 so far this beat.
    zero_chain: bool,
    gated_this_beat: Vec<bool>,
}

impl<R: RandSource> RecursiveClock<R> {
    /// Builds a `2^levels`-clock; `make_rand` supplies one coin per level.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0` or `levels > 63`.
    pub fn new(cfg: NodeCfg, levels: usize, mut make_rand: impl FnMut(usize) -> R) -> Self {
        assert!((1..=63).contains(&levels), "levels must be in 1..=63");
        RecursiveClock {
            levels: (0..levels)
                .map(|j| TwoClock::new(cfg, make_rand(j)))
                .collect(),
            zero_chain: true,
            gated_this_beat: vec![false; levels],
        }
    }

    /// Number of levels `m` (the clock counts mod `2^m`).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// The combined clock value, or `None` while any level reads `⊥`.
    pub fn clock(&self) -> Option<u64> {
        let mut acc = 0u64;
        for (j, level) in self.levels.iter().enumerate() {
            acc |= u64::from(level.clock().bit()?) << j;
        }
        Some(acc)
    }
}

impl<R: RandSource> DigitalClock for RecursiveClock<R> {
    fn modulus(&self) -> u64 {
        1u64 << self.levels.len()
    }

    fn read(&self) -> Option<u64> {
        self.clock()
    }
}

impl<R: RandSource> Application for RecursiveClock<R> {
    type Msg = LevelMsg<R::Msg>;

    fn phases(&self) -> usize {
        self.levels.len()
    }

    fn send(&mut self, phase: usize, out: &mut Outbox<'_, Self::Msg>) {
        if phase >= self.levels.len() {
            return;
        }
        if phase == 0 {
            // New beat: level 0 always steps; reset the gate chain.
            self.zero_chain = true;
        }
        let gate = phase == 0 || self.zero_chain;
        self.gated_this_beat[phase] = gate;
        if gate {
            let mut sends = Vec::new();
            self.levels[phase].step_send(out.rng(), &mut sends);
            for (t, m) in sends {
                let msg = LevelMsg {
                    level: phase as u8,
                    msg: m,
                };
                out.push(t, msg);
            }
        }
    }

    fn deliver(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], rng: &mut SimRng) {
        if phase >= self.levels.len() {
            return;
        }
        if self.gated_this_beat[phase] {
            let sub: Vec<Envelope<TwoClockMsg<R::Msg>>> = inbox
                .iter()
                .filter(|&e| usize::from(e.msg.level) == phase)
                .map(|e| e.map(e.msg.msg.clone()))
                .collect();
            self.levels[phase].step_deliver(&sub, rng);
        }
        // Fig. 3's gate, chained: the next level steps iff everything below
        // it reads 0 *after* this beat's execution.
        self.zero_chain = self.zero_chain && self.levels[phase].clock() == Trit::Zero;
    }

    fn corrupt(&mut self, rng: &mut SimRng) {
        for level in &mut self.levels {
            level.scramble(rng);
        }
        self.zero_chain = rng.random();
        for g in &mut self.gated_this_beat {
            *g = rng.random();
        }
    }

    fn begin_beat(&mut self, beat: u64) {
        for level in &mut self.levels {
            level.begin_beat(beat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::all_synced;
    use crate::rand_source::{OracleBeacon, OracleRand};
    use byzclock_sim::{SilentAdversary, SimBuilder, Simulation};

    fn rec_sim(
        n: usize,
        f: usize,
        levels: usize,
        seed: u64,
    ) -> Simulation<RecursiveClock<OracleRand>, SilentAdversary> {
        let beacons: Vec<OracleBeacon> = (0..levels)
            .map(|j| OracleBeacon::perfect(seed.wrapping_add(j as u64 * 31)))
            .collect();
        SimBuilder::new(n, f).seed(seed).build(
            move |cfg, _rng| {
                let beacons = beacons.clone();
                RecursiveClock::new(cfg, levels, move |j| beacons[j].source(cfg.id))
            },
            SilentAdversary,
        )
    }

    fn synced(sim: &Simulation<RecursiveClock<OracleRand>, SilentAdversary>) -> Option<u64> {
        all_synced(sim.correct_apps().map(|(_, a)| a.read()))
    }

    /// A 2-level recursive clock is exactly a 4-clock: converges and then
    /// counts 0,1,2,3.
    #[test]
    fn two_levels_behave_like_four_clock() {
        let mut sim = rec_sim(7, 2, 2, 5);
        sim.run_until(500, |s| synced(s).is_some())
            .expect("must converge");
        let v0 = synced(&sim).unwrap();
        for i in 1..=8 {
            sim.step();
            assert_eq!(synced(&sim), Some((v0 + i) % 4));
        }
    }

    /// Three levels count mod 8 — and convergence time grows with depth
    /// (the log-k overhead the paper's §5 points out).
    #[test]
    fn three_levels_count_mod_8() {
        let mut sim = rec_sim(7, 2, 3, 8);
        sim.run_until(1500, |s| synced(s).is_some())
            .expect("must converge");
        let v0 = synced(&sim).unwrap();
        for i in 1..=16 {
            sim.step();
            assert_eq!(synced(&sim), Some((v0 + i) % 8));
        }
    }

    #[test]
    fn modulus_is_power_of_two() {
        let b = OracleBeacon::perfect(0);
        let cfg = NodeCfg::new(byzclock_sim::NodeId::new(0), 4, 1);
        let rc = RecursiveClock::new(cfg, 5, |_| b.source(cfg.id));
        assert_eq!(rc.modulus(), 32);
        assert_eq!(rc.levels(), 5);
        assert_eq!(rc.clock(), None, "fresh levels read ⊥");
    }

    #[test]
    #[should_panic(expected = "levels must be")]
    fn zero_levels_rejected() {
        let b = OracleBeacon::perfect(0);
        let cfg = NodeCfg::new(byzclock_sim::NodeId::new(0), 4, 1);
        let _ = RecursiveClock::new(cfg, 0, |_| b.source(cfg.id));
    }
}
