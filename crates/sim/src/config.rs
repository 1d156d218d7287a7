//! Simulation construction.

use crate::adversary::{Adversary, Visibility};
use crate::rng::stream_rng;
use crate::runner::Simulation;
use crate::{Application, FaultPlan, NodeCfg, NodeId, SimRng, TimingModel, WireConfig};

/// Builder for a [`Simulation`].
///
/// `n` and the protocol fault budget `f` are the paper's code constants;
/// which nodes are *actually* Byzantine is chosen separately (default: the
/// `f` highest ids) so experiments can explore the resiliency boundary by
/// placing more real faults than the protocol tolerates.
///
/// # Example
///
/// ```
/// use byzclock_sim::{SimBuilder, NodeId};
///
/// let builder = SimBuilder::new(7, 2)
///     .seed(42)
///     .byzantine([0u16, 3]);
/// # let _ = builder;
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    n: usize,
    f: usize,
    byz: Vec<NodeId>,
    seed: u64,
    visibility: Visibility,
    fault_plan: FaultPlan,
    history_cap: usize,
    corrupted_start: bool,
    timing: TimingModel,
    wire: WireConfig,
}

impl SimBuilder {
    /// Starts a builder for an `n`-node cluster whose protocols are
    /// configured with fault budget `f`. By default the `f` highest node
    /// ids are Byzantine.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n <= 2f`. The paper assumes `n > 3f`; the
    /// builder only enforces the weaker `n > 2f` so the resiliency
    /// experiments can probe the `f = n/3` boundary — but below a correct
    /// majority every `n - f` threshold in the stack degenerates (`n - 2f`
    /// reaches 0, so GVSS would grade dealers on *zero* votes), so such
    /// budgets are configuration errors, not scenarios.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(n >= 1, "cluster must have at least one node");
        assert!(
            n > 2 * f,
            "fault budget f={f} must leave a correct majority (n > 2f), got n={n}"
        );
        let byz = ((n - f) as u16..n as u16).map(NodeId::new).collect();
        SimBuilder {
            n,
            f,
            byz,
            seed: 0,
            visibility: Visibility::PrivateChannels,
            fault_plan: FaultPlan::none(),
            history_cap: 4096,
            corrupted_start: false,
            timing: TimingModel::Lockstep,
            wire: WireConfig::default(),
        }
    }

    /// Cluster size `n`.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Protocol fault budget `f`.
    pub fn fault_budget(&self) -> usize {
        self.f
    }

    /// Chooses which nodes are actually Byzantine (any count `< n`).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range, duplicated, or all nodes would be
    /// Byzantine.
    pub fn byzantine<I>(mut self, ids: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<NodeId>,
    {
        let mut byz: Vec<NodeId> = ids.into_iter().map(Into::into).collect();
        byz.sort_unstable();
        let before = byz.len();
        byz.dedup();
        assert_eq!(before, byz.len(), "duplicate byzantine id");
        assert!(
            byz.iter().all(|id| id.index() < self.n),
            "byzantine id out of range"
        );
        assert!(byz.len() < self.n, "at least one node must stay correct");
        self.byz = byz;
        self
    }

    /// No Byzantine nodes at all (fault-free runs).
    pub fn all_correct(mut self) -> Self {
        self.byz.clear();
        self
    }

    /// Master seed; everything in the run derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adversary visibility policy (default: the paper's private channels).
    pub fn visibility(mut self, visibility: Visibility) -> Self {
        self.visibility = visibility;
        self
    }

    /// Schedules transient faults.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Delivery-timing model (default: the paper's lockstep global beat).
    /// [`TimingModel::BoundedDelay`] turns the run semi-synchronous: a
    /// correct message arrives within a seeded window of beats, and the
    /// adversary may rush or reorder its own traffic inside the window.
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Wire-codec configuration: which encoding ([`crate::WireFormat`])
    /// the byte accounting uses, and whether envelopes actually cross a
    /// byte boundary (serialized at send, re-parsed at delivery). The
    /// default — fixed format, in-memory delivery — is byte-identical to
    /// the pre-codec simulator.
    pub fn wire(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }

    /// Capacity of the stale-traffic ring used for phantom replay.
    pub fn history_cap(mut self, cap: usize) -> Self {
        self.history_cap = cap;
        self
    }

    /// Starts every correct node from scrambled memory: after the factory
    /// runs, [`Application::corrupt`] fires once with the node's own RNG —
    /// the self-stabilization experiments' "arbitrary initial state"
    /// (Definition 2.4) without hand-writing a corrupting factory closure.
    pub fn corrupted_start(mut self, corrupted: bool) -> Self {
        self.corrupted_start = corrupted;
        self
    }

    /// Fluent escape hatch: applies `f` to the builder inside a method
    /// chain (useful when a configuration step is conditional).
    ///
    /// # Example
    ///
    /// ```
    /// use byzclock_sim::SimBuilder;
    ///
    /// let stress = true;
    /// let builder = SimBuilder::new(7, 2)
    ///     .apply(|b| if stress { b.corrupted_start(true) } else { b });
    /// # let _ = builder;
    /// ```
    pub fn apply(self, f: impl FnOnce(Self) -> Self) -> Self {
        f(self)
    }

    /// Builds the simulation: `factory` constructs the protocol stack for
    /// each correct node (Byzantine slots get no application — the
    /// adversary speaks for them).
    pub fn build<A, Adv, F>(self, mut factory: F, adversary: Adv) -> Simulation<A, Adv>
    where
        A: Application,
        Adv: Adversary<A::Msg>,
        F: FnMut(NodeCfg, &mut SimRng) -> A,
    {
        let SimBuilder {
            n,
            f,
            byz,
            seed,
            visibility,
            fault_plan,
            history_cap,
            corrupted_start,
            timing,
            wire,
        } = self;
        let mut apps = Vec::with_capacity(n);
        let mut node_rngs = Vec::with_capacity(n);
        for i in 0..n as u16 {
            let id = NodeId::new(i);
            let mut rng = stream_rng(seed, u64::from(i));
            let app = if byz.contains(&id) {
                None
            } else {
                let mut app = factory(NodeCfg::new(id, n, f), &mut rng);
                if corrupted_start {
                    app.corrupt(&mut rng);
                }
                Some(app)
            };
            apps.push(app);
            node_rngs.push(rng);
        }
        let adv_rng = stream_rng(seed, 1 << 32);
        let fault_rng = stream_rng(seed, (1 << 32) + 1);
        // A dedicated stream for delivery delays: adding the timing model
        // perturbs no node/adversary/fault stream, and lockstep runs never
        // draw from it — historical seeds replay bit-for-bit.
        let delay_rng = stream_rng(seed, (1 << 32) + 2);
        // Same discipline for phantom round tags: a separate stream keeps
        // `fault_rng`'s draw sequence (phantom picks, recipients) exactly
        // as it was before envelopes carried tags.
        let phantom_tag_rng = stream_rng(seed, (1 << 32) + 3);
        Simulation::from_parts(
            n,
            f,
            byz,
            visibility,
            apps,
            node_rngs,
            adversary,
            adv_rng,
            fault_rng,
            phantom_tag_rng,
            fault_plan,
            history_cap,
            timing,
            delay_rng,
            wire,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Envelope, Outbox, SilentAdversary};

    #[test]
    fn corrupted_start_scrambles_after_the_factory() {
        struct Flag {
            corrupted: bool,
        }
        impl Application for Flag {
            type Msg = ();
            fn send(&mut self, _phase: usize, _out: &mut Outbox<'_, ()>) {}
            fn deliver(&mut self, _phase: usize, _inbox: &[Envelope<()>], _rng: &mut SimRng) {}
            fn corrupt(&mut self, _rng: &mut SimRng) {
                self.corrupted = true;
            }
        }
        let clean =
            SimBuilder::new(4, 1).build(|_cfg, _rng| Flag { corrupted: false }, SilentAdversary);
        assert!(clean.correct_apps().all(|(_, a)| !a.corrupted));
        let scrambled = SimBuilder::new(4, 1)
            .corrupted_start(true)
            .build(|_cfg, _rng| Flag { corrupted: false }, SilentAdversary);
        assert!(scrambled.correct_apps().all(|(_, a)| a.corrupted));
    }

    #[test]
    fn default_byzantine_are_highest_ids() {
        let b = SimBuilder::new(7, 2);
        assert_eq!(b.byz, vec![NodeId::new(5), NodeId::new(6)]);
    }

    #[test]
    #[should_panic(expected = "fault budget")]
    fn rejects_f_equal_n() {
        let _ = SimBuilder::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "correct majority")]
    fn rejects_degenerate_budget_without_correct_majority() {
        // n = 2f: every n - f threshold stops outnumbering the liars.
        let _ = SimBuilder::new(4, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicate_byzantine() {
        let _ = SimBuilder::new(4, 1).byzantine([2u16, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_byzantine() {
        let _ = SimBuilder::new(4, 1).byzantine([4u16]);
    }
}
