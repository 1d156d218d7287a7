//! Coin-layer Byzantine strategies.
//!
//! These attack the GVSS rounds themselves (dealings, echoes, votes,
//! shares) rather than the clock votes above them. All operate on the
//! standalone [`crate::CoinApp`] message type ([`SlotMsg`]`<`[`CoinMsg`]`>`)
//! and are measured by experiment F1.

use crate::messages::CoinMsg;
use byzclock_core::SlotMsg;
use byzclock_sim::{Adversary, AdversaryView, ByzOutbox, NodeId};
use rand::Rng;

/// Sends structurally *valid-shaped* but content-random messages for every
/// slot and round variant — stress for the defensive parsing and the
/// decoder's error budget.
#[derive(Debug, Clone, Copy)]
pub struct CoinNoiseAdversary {
    /// Pipeline depth to imitate (slots `0..depth`).
    pub depth: u8,
    /// Per-dealer secret count of the attacked scheme (`n` for tickets,
    /// 1 for the XOR coin).
    pub targets: usize,
}

impl CoinNoiseAdversary {
    fn random_msg(&self, rng: &mut byzclock_sim::SimRng, n: usize, f: usize) -> CoinMsg {
        let p = byzclock_field::smallest_prime_above(n as u64);
        match rng.random_range(0..4u8) {
            0 => CoinMsg::row(
                (0..self.targets)
                    .map(|_| (0..=f).map(|_| rng.random_range(0..p)).collect())
                    .collect(),
            ),
            1 => CoinMsg::echo(
                (0..n)
                    .map(|_| {
                        rng.random::<bool>()
                            .then(|| (0..self.targets).map(|_| rng.random_range(0..p)).collect())
                    })
                    .collect(),
            ),
            2 => CoinMsg::vote((0..n).map(|_| rng.random()).collect()),
            _ => CoinMsg::recover(
                (0..n)
                    .map(|_| {
                        rng.random::<bool>()
                            .then(|| (0..self.targets).map(|_| rng.random_range(0..p)).collect())
                    })
                    .collect(),
            ),
        }
    }
}

impl Adversary<SlotMsg<CoinMsg>> for CoinNoiseAdversary {
    fn act(
        &mut self,
        view: &AdversaryView<'_, SlotMsg<CoinMsg>>,
        out: &mut ByzOutbox<'_, SlotMsg<CoinMsg>>,
    ) {
        let n = view.n();
        let f = view.f();
        for &b in view.byzantine() {
            for slot in 0..self.depth {
                for to in view.all_ids() {
                    let msg = self.random_msg(out.rng(), n, f);
                    out.send(b, to, SlotMsg { slot, msg });
                }
            }
        }
    }
}

/// Recover-round equivocation: Byzantine nodes stay silent through the
/// dealing/echo/vote rounds (their dealings get grade 0 everywhere) but
/// attack the *reveal*: they send different fabricated share vectors to
/// different recipients, trying to tip borderline Berlekamp–Welch decodes
/// of the **correct** dealers' secrets in different directions at
/// different observers.
///
/// The decoder's `f`-error budget makes this provably harmless when all
/// `n − f` correct shares are consistent; the adversary's hope is the
/// grade-1 corner where fewer correct rows agree. The ticket coin
/// localizes any residual divergence to the zero-ticket test, while the
/// XOR coin flips globally — the F1 contrast.
#[derive(Debug, Clone, Copy)]
pub struct RecoverEquivocator {
    /// Slot carrying the recover round (`Δ_A − 1`).
    pub recover_slot: u8,
    /// Per-dealer secret count of the attacked scheme.
    pub targets: usize,
}

impl Adversary<SlotMsg<CoinMsg>> for RecoverEquivocator {
    fn act(
        &mut self,
        view: &AdversaryView<'_, SlotMsg<CoinMsg>>,
        out: &mut ByzOutbox<'_, SlotMsg<CoinMsg>>,
    ) {
        let n = view.n();
        let p = byzclock_field::smallest_prime_above(n as u64);
        for &b in view.byzantine() {
            for to in view.all_ids() {
                // A fresh random share vector *per recipient* — maximal
                // equivocation.
                let shares: Vec<Option<Vec<u64>>> = (0..n)
                    .map(|_| {
                        Some(
                            (0..self.targets)
                                .map(|_| out.rng().random_range(0..p))
                                .collect::<Vec<u64>>(),
                        )
                    })
                    .collect();
                out.send(
                    b,
                    to,
                    SlotMsg {
                        slot: self.recover_slot,
                        msg: CoinMsg::recover(shares),
                    },
                );
            }
        }
    }
}

/// A lying dealer: deals *inconsistent* rows (a different random polynomial
/// to every node) and then echo-confirms itself, trying to buy a grade for
/// a dealing that binds to nothing.
#[derive(Debug, Clone, Copy)]
pub struct InconsistentDealer {
    /// Per-dealer secret count of the attacked scheme.
    pub targets: usize,
    /// Degree bound `f` used for the fake rows.
    pub f: usize,
}

impl Adversary<SlotMsg<CoinMsg>> for InconsistentDealer {
    fn act(
        &mut self,
        view: &AdversaryView<'_, SlotMsg<CoinMsg>>,
        out: &mut ByzOutbox<'_, SlotMsg<CoinMsg>>,
    ) {
        let n = view.n();
        let p = byzclock_field::smallest_prime_above(n as u64);
        for &b in view.byzantine() {
            // Slot 0: deal garbage rows, unique per recipient.
            for to in view.all_ids() {
                let rows: Vec<Vec<u64>> = (0..self.targets)
                    .map(|_| (0..=self.f).map(|_| out.rng().random_range(0..p)).collect())
                    .collect();
                out.send(
                    b,
                    to,
                    SlotMsg {
                        slot: 0,
                        msg: CoinMsg::row(rows),
                    },
                );
            }
            // Slot 2: vote content for all Byzantine dealers, none for the
            // correct ones (maximal vote skew).
            let vote = CoinMsg::vote(
                (0..n as u16)
                    .map(|i| view.is_byzantine(NodeId::new(i)))
                    .collect(),
            );
            for to in view.all_ids() {
                out.send(
                    b,
                    to,
                    SlotMsg {
                        slot: 2,
                        msg: vote.clone(),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::measure_coin;
    use crate::ticket::TicketCoinScheme;

    #[test]
    fn noise_does_not_break_ticket_agreement_much() {
        let stats = measure_coin(
            7,
            2,
            3,
            60,
            TicketCoinScheme::new,
            CoinNoiseAdversary {
                depth: 4,
                targets: 7,
            },
        );
        // Correct dealers stay grade-2 and binding; noise dealers are
        // graded out or consistently included. Agreement should stay high.
        assert!(
            stats.agreement_rate() > 0.8,
            "noise crushed agreement: {stats:?}"
        );
        assert!(stats.p0() > 0.2, "{stats:?}");
    }

    #[test]
    fn inconsistent_dealer_is_graded_out() {
        let stats = measure_coin(
            7,
            2,
            5,
            60,
            TicketCoinScheme::new,
            InconsistentDealer { targets: 7, f: 2 },
        );
        assert!(
            stats.agreement_rate() > 0.8,
            "inconsistent dealings crushed agreement: {stats:?}"
        );
    }

    #[test]
    fn recover_equivocation_bounded_by_decoder() {
        let stats = measure_coin(
            7,
            2,
            7,
            60,
            TicketCoinScheme::new,
            RecoverEquivocator {
                recover_slot: 3,
                targets: 7,
            },
        );
        assert!(
            stats.agreement_rate() > 0.8,
            "recover equivocation crushed agreement: {stats:?}"
        );
    }
}
